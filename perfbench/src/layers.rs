//! The traced per-layer breakdown.
//!
//! Every number here comes from the benchmark's own spans and counter
//! snapshots around calls into one layer of the library; nothing inside
//! the library is instrumented for it. A layer a workload does not
//! exercise reads 0.

use crate::report::Metric;
use crate::trace::Tracer;
use crate::workloads::{config, PairFacts, Rep, SHARDS};
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_campaign::artifact::{to_json, PartialArtifact};
use specstab_campaign::executor::{
    batching_enabled, burst_configuration, run_campaign_with_progress, CellOutcome, CellResult,
};
use specstab_campaign::matrix::{Cell, InitMode, ScenarioMatrix};
use specstab_campaign::merge::MergeAccumulator;
use specstab_campaign::plan::CampaignPlan;
use specstab_campaign::shard::execute_shard;
use specstab_kernel::engine::{RunLimits, Simulator, StepScratch};
use specstab_kernel::harness::{HarnessState, ProtocolHarness};
use specstab_kernel::measure::MeasurementContext;
use specstab_kernel::protocol::random_configuration;
use specstab_protocols::registry::{self, HarnessVisitor, ProtocolInfo};
use specstab_telemetry::{global, CounterSnapshot};
use specstab_topology::Graph;
use std::collections::BTreeMap;
use std::time::Instant;

/// Daemon classes the batch counters are split by, in metric order.
pub const CLASSES: [&str; 4] = ["sync", "central-rr", "central-rand", "dist"];

/// The executor's work-unit size: groups are split into chunks of at most
/// this many cells, and routing is decided (and counted) per chunk.
const CHUNK_CELLS: usize = 32;

/// Engine steps replayed per sampled cell at most.
const REPLAY_CAP: usize = 200_000;

/// Minimum timed seconds per replayed sample; short cells repeat.
const REPLAY_MIN_S: f64 = 0.002;

/// Per-layer metric names and units, in output order (the `per_layer`
/// list of `BENCHMARK.json`).
pub fn names() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = vec![
        ("topology.resolve_s".into(), "s"),
        ("harness.build_s".into(), "s"),
        ("engine.steps_per_s".into(), "1/s"),
        ("engine.guard_evals_per_move".into(), "count"),
        ("measure.steps_per_s".into(), "1/s"),
        ("measure.overhead_ratio".into(), "ratio"),
    ];
    for (metric, unit) in [
        ("batch.lane_moves_per_s", "1/s"),
        ("batch.occupancy", "ratio"),
        ("batch.routed_groups", "count"),
        ("batch.fallback_groups", "count"),
    ] {
        for class in CLASSES {
            out.push((format!("{metric}.{class}"), unit));
        }
    }
    out.extend([
        ("executor.group_s_p50".into(), "s"),
        ("executor.group_s_max".into(), "s"),
        ("executor.busy_frac".into(), "ratio"),
        ("plan.bytes".into(), "bytes"),
        ("plan.encode_s".into(), "s"),
        ("plan.decode_s".into(), "s"),
        ("plan.decode_scaling".into(), "ratio"),
        ("artifact.encode_s".into(), "s"),
        ("partial.decode_s".into(), "s"),
        ("merge.s".into(), "s"),
        ("serve.transport_s".into(), "s"),
        ("serve.expired_leases".into(), "count"),
        ("serve.duplicate_uploads".into(), "count"),
        ("trace.overhead_frac".into(), "ratio"),
    ]);
    out
}

/// The per-layer metrics of one traced repetition, plus the names of any
/// consistency checks that failed while gathering them.
pub struct Breakdown {
    /// Metrics in [`names`] order.
    pub metrics: Vec<Metric>,
    /// Failed checks (replay vs campaign outcome, routing model, shard
    /// merge vs served artifact).
    pub failed_checks: Vec<String>,
}

/// Gathers every per-layer metric around the traced repetition `rep`.
///
/// # Errors
///
/// Failures of the extra passes (replay, half-plan decode, shards) that
/// make a metric impossible to take.
pub fn breakdown(
    seed: u64,
    untraced_wall_s: f64,
    rep: &Rep,
    tracer: &mut Tracer,
) -> Result<Breakdown, String> {
    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut failed = Vec::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    put("topology.resolve_s", tracer.total("topology.resolve"));
    put("harness.build_s", tracer.total("harness.build"));
    put("artifact.encode_s", tracer.total("artifact.encode"));
    put("trace.overhead_frac", rep.wall_s / untraced_wall_s - 1.0);

    // Engine vs measurement on sampled cells.
    let span = tracer.enter("replay");
    let replay = replay_samples(rep, seed, &mut failed)?;
    tracer.exit(span);
    put("engine.steps_per_s", replay.steps as f64 / replay.engine_s);
    put("engine.guard_evals_per_move", replay.guard_evals as f64 / replay.moves.max(1) as f64);
    put("measure.steps_per_s", replay.steps as f64 / replay.measure_s);
    put("measure.overhead_ratio", replay.measure_s / replay.engine_s);

    // Batch routing, per daemon class.
    let span = tracer.enter("batch.lanes");
    let lanes = lane_pass(rep, seed, &mut failed);
    tracer.exit(span);
    for (i, class) in CLASSES.iter().enumerate() {
        put(&format!("batch.lane_moves_per_s.{class}"), lanes[i].0);
        put(&format!("batch.occupancy.{class}"), lanes[i].1);
        put(&format!("batch.routed_groups.{class}"), routed(&rep.counters)[i] as f64);
        put(&format!("batch.fallback_groups.{class}"), fallback(&rep.counters)[i] as f64);
    }

    if let (Some(plan), Some(serve)) = (&rep.prepared.plan, rep.serve) {
        // The plan layer: encode and decode as timed in set-up, plus the
        // decode of a plan of half the cells, for the scaling ratio.
        let decode_s = tracer.total("plan.decode");
        put("plan.bytes", plan.to_json().len() as f64);
        put("plan.encode_s", tracer.total("plan.encode"));
        put("plan.decode_s", decode_s);
        let half = ScenarioMatrix::from_cells(plan.cells[..plan.cells.len() / 2].to_vec());
        let half = CampaignPlan::new(&half, &plan.config, SHARDS).to_json();
        let span = tracer.enter("plan.half_decode");
        let started = Instant::now();
        CampaignPlan::from_json(&half)?;
        put("plan.decode_scaling", decode_s / started.elapsed().as_secs_f64());
        tracer.exit(span);

        // Shards in-process, one thread like the served worker: execution
        // time, partial decode and merge, and what transport adds.
        let span = tracer.enter("shard.pass");
        let shards = shard_pass(plan, &rep.artifact, &mut failed)?;
        tracer.exit(span);
        let (p50, max, busy) = executor_stats(&shards.cells, 1, shards.execute_s);
        put("executor.group_s_p50", p50);
        put("executor.group_s_max", max);
        put("executor.busy_frac", busy);
        put("partial.decode_s", shards.decode_s);
        put("merge.s", shards.merge_s);
        put("serve.transport_s", serve.worker_s - shards.execute_s);
        put("serve.expired_leases", serve.expired_leases as f64);
        put("serve.duplicate_uploads", serve.duplicate_uploads as f64);
    } else {
        let (p50, max, busy) = executor_stats(
            &rep.result.cells,
            rep.result.threads_used,
            rep.result.wall.as_secs_f64(),
        );
        put("executor.group_s_p50", p50);
        put("executor.group_s_max", max);
        put("executor.busy_frac", busy);
        for name in [
            "plan.bytes",
            "plan.encode_s",
            "plan.decode_s",
            "plan.decode_scaling",
            "partial.decode_s",
            "merge.s",
            "serve.transport_s",
            "serve.expired_leases",
            "serve.duplicate_uploads",
        ] {
            put(name, 0.0);
        }
    }
    let metrics = names()
        .into_iter()
        .map(|(name, unit)| {
            let v = values.get(&name).copied().unwrap_or(f64::NAN);
            Metric::new(name, v, unit)
        })
        .collect();
    Ok(Breakdown { metrics, failed_checks: failed })
}

fn routed(c: &CounterSnapshot) -> [u64; 4] {
    [
        c.batch_routed_sync_groups,
        c.batch_routed_rr_groups,
        c.batch_routed_rand_groups,
        c.batch_routed_dist_groups,
    ]
}

fn fallback(c: &CounterSnapshot) -> [u64; 4] {
    [
        c.batch_fallback_sync_groups,
        c.batch_fallback_rr_groups,
        c.batch_fallback_rand_groups,
        c.batch_fallback_dist_groups,
    ]
}

/// The batch class of a daemon spec (index into [`CLASSES`]), as the
/// executor classifies group daemons; `None` when not batch-eligible.
fn class_of(spec: &str) -> Option<usize> {
    match spec {
        "sync" => Some(0),
        "central-rr" => Some(1),
        "central-rand" => Some(2),
        _ => spec
            .strip_prefix("dist:")
            .and_then(|p| p.parse::<f64>().ok())
            .filter(|p| (0.0..=1.0).contains(p))
            .map(|_| 3),
    }
}

/// Whether the executor routes a chunk to the lane engine: batching on, a
/// packed harness, and for the central daemons a graph within the
/// harness's crossover gate.
fn routes(facts: &PairFacts, class: usize) -> bool {
    let central = class == 1 || class == 2;
    batching_enabled() && facts.supports_batch && (!central || facts.n <= facts.central_batch_max_n)
}

/// The executor's work units: runs of one group key, split every
/// [`CHUNK_CELLS`] cells.
fn chunks(cells: &[Cell]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=cells.len() {
        if i == cells.len() || cells[i].group_key() != cells[start].group_key() {
            let mut lo = start;
            while lo < i {
                let hi = (lo + CHUNK_CELLS).min(i);
                out.push(lo..hi);
                lo = hi;
            }
            start = i;
        }
    }
    out
}

/// Re-runs, per daemon class, only the chunks the executor routes to the
/// lane engine, and returns `(lane moves/s, occupancy)` per class from
/// the counter deltas. Also checks the routing model against the routed
/// and fallback counts of the traced repetition.
fn lane_pass(rep: &Rep, seed: u64, failed: &mut Vec<String>) -> [(f64, f64); 4] {
    let cells = rep.prepared.matrix.cells();
    let mut per_class: [Vec<Cell>; 4] = Default::default();
    let mut predicted = [[0u64; 4]; 2];
    for chunk in chunks(cells) {
        let first = &cells[chunk.start];
        let (Some(class), Some(facts)) = (
            class_of(&first.daemon),
            rep.prepared.pairs.get(&(first.topology.clone(), first.protocol.clone())),
        ) else {
            continue;
        };
        if routes(facts, class) {
            predicted[0][class] += 1;
            per_class[class].extend_from_slice(&cells[chunk]);
        } else {
            predicted[1][class] += 1;
        }
    }
    if predicted[0] != routed(&rep.counters) || predicted[1] != fallback(&rep.counters) {
        failed.push(format!(
            "routing model predicted routed {:?} / fallback {:?}, executor counted {:?} / {:?}",
            predicted[0],
            predicted[1],
            routed(&rep.counters),
            fallback(&rep.counters)
        ));
    }
    let mut out = [(0.0, 0.0); 4];
    for (class, cells) in per_class.into_iter().enumerate() {
        if cells.is_empty() {
            continue;
        }
        let matrix = ScenarioMatrix::from_cells(cells);
        let before = global().snapshot();
        let started = Instant::now();
        let result = run_campaign_with_progress(&matrix, &config(seed), None);
        let secs = started.elapsed().as_secs_f64();
        let d = global().snapshot().delta(&before);
        if fallback(&d).iter().sum::<u64>() != 0 || result.total_errors() != 0 {
            failed.push(format!("lane pass of class {} left the lane engine", CLASSES[class]));
        }
        let occupancy = if d.batch_lane_steps == 0 {
            0.0
        } else {
            1.0 - d.batch_idle_lane_steps as f64 / d.batch_lane_steps as f64
        };
        out[class] = (d.moves as f64 / secs, occupancy);
    }
    out
}

/// Group time p50 and max (summed cell wall time per group key), and the
/// busy fraction: summed cell time over `threads × wall_s`.
fn executor_stats(cells: &[CellResult], threads: usize, wall_s: f64) -> (f64, f64, f64) {
    let mut groups: BTreeMap<String, u64> = BTreeMap::new();
    for c in cells {
        *groups.entry(c.cell.group_key()).or_default() += c.wall_nanos;
    }
    let secs: Vec<f64> = groups.values().map(|&n| n as f64 * 1e-9).collect();
    let busy: f64 = secs.iter().sum::<f64>() / (threads.max(1) as f64 * wall_s);
    (crate::report::median(&secs), secs.iter().fold(0.0, |a: f64, &b| a.max(b)), busy)
}

struct ShardStats {
    cells: Vec<CellResult>,
    execute_s: f64,
    decode_s: f64,
    merge_s: f64,
}

/// Executes every shard in-process on one thread, round-trips each
/// partial through JSON, and merges them; the merge must reproduce the
/// served artifact byte for byte.
fn shard_pass(
    plan: &CampaignPlan,
    served: &str,
    failed: &mut Vec<String>,
) -> Result<ShardStats, String> {
    let mut stats = ShardStats { cells: Vec::new(), execute_s: 0.0, decode_s: 0.0, merge_s: 0.0 };
    let mut partials = Vec::new();
    for id in 0..plan.shards.len() {
        let t = Instant::now();
        let partial = execute_shard(plan, id, 1)?;
        stats.execute_s += t.elapsed().as_secs_f64();
        let text = partial.to_json();
        stats.cells.extend(partial.cells);
        let t = Instant::now();
        let decoded = PartialArtifact::from_json(&text)?;
        stats.decode_s += t.elapsed().as_secs_f64();
        partials.push(decoded);
    }
    let t = Instant::now();
    let mut acc = MergeAccumulator::new();
    for p in partials {
        acc.accept(p)?;
    }
    let merged = acc.finish()?;
    stats.merge_s = t.elapsed().as_secs_f64();
    if to_json(&merged, true) != served {
        failed.push("in-process shard merge differs from the served artifact".into());
    }
    Ok(stats)
}

#[derive(Default)]
struct ReplayTotals {
    steps: u64,
    moves: u64,
    guard_evals: u64,
    engine_s: f64,
    measure_s: f64,
}

/// Replays the first cell of every (topology, protocol, daemon) of the
/// workload twice — once under the campaign's measurement stack, once on
/// the bare engine for the same number of steps — with the campaign's
/// initial configuration and daemon seed, capped at [`REPLAY_CAP`] steps.
/// An uncapped replay must reproduce the campaign's cell outcome.
fn replay_samples(rep: &Rep, seed: u64, failed: &mut Vec<String>) -> Result<ReplayTotals, String> {
    let cfg = config(seed);
    let mut seen = std::collections::BTreeSet::new();
    let mut totals = ReplayTotals::default();
    for (i, cell) in rep.prepared.matrix.cells().iter().enumerate() {
        if !seen.insert((cell.topology.clone(), cell.protocol.clone(), cell.daemon.clone())) {
            continue;
        }
        let (graph, diam) = &rep.prepared.topologies[&cell.topology];
        let cap = cfg.max_steps.min(REPLAY_CAP);
        let sample = registry::resolve(
            &cell.protocol,
            Replay {
                cell,
                graph,
                diam: *diam,
                cell_seed: cell.cell_seed(seed),
                max_steps: cap,
                margin: cfg.early_stop_margin,
            },
        )??;
        if sample.outcome.steps_run < cap {
            let campaign = rep.result.cells.get(i).and_then(|c| c.outcome.as_ref().ok());
            if campaign != Some(&sample.outcome) {
                failed.push(format!("replay of {} differs from the campaign", cell.group_key()));
            }
        }
        totals.steps += sample.steps;
        totals.moves += sample.moves;
        totals.guard_evals += sample.guard_evals;
        totals.engine_s += sample.engine_s;
        totals.measure_s += sample.measure_s;
    }
    Ok(totals)
}

/// The executor's per-cell stream mixer (SplitMix64 finalizer); replays
/// derive the daemon and init streams from the cell seed exactly as the
/// campaign does.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Replay<'a> {
    cell: &'a Cell,
    graph: &'a Graph,
    diam: u32,
    cell_seed: u64,
    max_steps: usize,
    margin: usize,
}

struct ReplaySample {
    outcome: CellOutcome,
    steps: u64,
    moves: u64,
    guard_evals: u64,
    engine_s: f64,
    measure_s: f64,
}

impl HarnessVisitor for Replay<'_> {
    type Output = Result<ReplaySample, String>;

    fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> Self::Output {
        let graph = self.graph;
        let h = H::build(graph, self.diam).map_err(|e| e.to_string())?;
        let init = || {
            let mut rng = StdRng::seed_from_u64(mix(self.cell_seed, 0x1217));
            match self.cell.init {
                InitMode::Burst(0) => Ok(random_configuration(graph, h.protocol(), &mut rng)),
                InitMode::Burst(faults) => {
                    h.legitimate_configuration(graph, &mut rng).map(|healthy| {
                        burst_configuration(graph, h.protocol(), healthy, faults, &mut rng)
                    })
                }
                InitMode::Witness => h.witness_configuration(graph),
            }
            .map_err(|e| e.to_string())
        };
        let daemon_seed = mix(self.cell_seed, 0x000D_AE17);
        let sim = Simulator::new(graph, h.protocol());
        let mut scratch = StepScratch::<HarnessState<H>>::new();
        let mut sample = ReplaySample {
            outcome: CellOutcome {
                steps_run: 0,
                stabilization_steps: 0,
                legitimacy_entry: 0,
                moves: 0,
                ended_legitimate: false,
                bound: None,
                violated_bound: false,
            },
            steps: 0,
            moves: 0,
            guard_evals: 0,
            engine_s: 0.0,
            measure_s: 0.0,
        };
        while sample.measure_s + sample.engine_s < REPLAY_MIN_S || sample.steps == 0 {
            let mut daemon = h.daemon(&self.cell.daemon, daemon_seed)?;
            let start = init()?;
            let t = Instant::now();
            let report = MeasurementContext::new(h.safety_predicate(), h.legitimacy_predicate())
                .with_early_stop(h.legitimacy_predicate(), self.margin)
                .run_with_scratch(&sim, daemon.as_mut(), start, self.max_steps, &mut scratch);
            sample.measure_s += t.elapsed().as_secs_f64();
            let mut daemon = h.daemon(&self.cell.daemon, daemon_seed)?;
            let start = init()?;
            let t = Instant::now();
            let summary = sim.run_with_scratch(
                start,
                daemon.as_mut(),
                RunLimits::with_max_steps(report.steps_run),
                &mut [],
                &mut scratch,
            );
            sample.engine_s += t.elapsed().as_secs_f64();
            if summary.steps != report.steps_run || summary.moves != report.moves {
                return Err(format!(
                    "engine replay of {} diverged from its measured replay",
                    self.cell.group_key()
                ));
            }
            let bound =
                (self.cell.daemon == "sync").then(|| h.sync_bound(graph, self.diam)).flatten();
            sample.outcome = CellOutcome {
                steps_run: report.steps_run,
                stabilization_steps: report.stabilization_steps,
                legitimacy_entry: report.legitimacy_entry,
                moves: report.moves,
                ended_legitimate: report.ended_legitimate,
                bound: bound.map(|b| b.value),
                violated_bound: bound.is_some_and(|b| b.violated_by(&report)),
            };
            sample.steps += summary.steps as u64;
            sample.moves += summary.moves;
            sample.guard_evals += summary.counters.guard_evals;
        }
        Ok(sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_split_groups_at_the_executor_work_unit() {
        let m = ScenarioMatrix::builder()
            .topologies(["ring:8"])
            .protocols(["ssme"])
            .daemons(["sync", "central-rr"])
            .fault_bursts([0])
            .seeds(0..40)
            .build();
        let sizes: Vec<usize> = chunks(m.cells()).iter().map(std::ops::Range::len).collect();
        assert_eq!(sizes, vec![32, 8, 32, 8]);
    }

    #[test]
    fn daemon_classes_follow_the_executor() {
        assert_eq!(class_of("sync"), Some(0));
        assert_eq!(class_of("central-rr"), Some(1));
        assert_eq!(class_of("central-rand"), Some(2));
        assert_eq!(class_of("dist:0.5"), Some(3));
        assert_eq!(class_of("dist:1.5"), None);
        assert_eq!(class_of("central-min"), None);
    }
}
