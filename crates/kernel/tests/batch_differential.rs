//! Differential suite for replica-parallel batched stepping: under every
//! batch daemon (sync, central round-robin, central-rand and
//! random-distributed), every lane of [`run_batch`] must be
//! observationally identical to an independent scalar run of the same
//! initial configuration under the matching scalar daemon — same
//! step/move counts, same stop reason, same final configuration, and
//! (measured, each lane through its own incremental local monitor) the
//! same [`StabilizationReport`] fields as a scalar `MeasurementContext`
//! over the whole-configuration predicates, with and without early stop,
//! across topologies
//! × seeds × lane counts K ∈ {1, 3, 64, 100}. The random daemons
//! additionally pin the per-lane RNG streams: lane `l` seeded with `s`
//! replays the scalar daemon seeded with `s` draw for draw. A final
//! property holds the transposed incremental enabled-bitset to the dense
//! full-sweep reference it replaced.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use specstab_kernel::batch::{
    run_batch, run_batch_with_dense_sweep, BatchDaemon, LaneMeasure, PackedProtocol,
};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{
    BoxedDaemon, CentralDaemon, CentralStrategy, RandomDistributedDaemon, SynchronousDaemon,
};
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::measure::{LocalSpec, LocalTerm, MeasurementContext, StabilizationReport};
use specstab_kernel::observer::ConfigPredicate;
use specstab_kernel::protocol::{random_configuration, Protocol, RuleId, RuleInfo, View};
use specstab_topology::{generators, Graph, VertexId};

/// Max propagation: adopt the largest neighbor value when it beats yours.
/// Terminal once the maximum has flooded the graph — a protocol whose
/// convergence step varies per seed, so big batches always mix active and
/// masked lanes.
#[derive(Clone)]
struct MaxProto;

impl Protocol for MaxProto {
    type State = u32;
    fn name(&self) -> String {
        "max".into()
    }
    fn rules(&self) -> Vec<RuleInfo> {
        vec![RuleInfo::new("ADOPT")]
    }
    fn enabled_rule(&self, view: &View<'_, u32>) -> Option<RuleId> {
        let best = view.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0);
        (best > *view.state()).then_some(RuleId::new(0))
    }
    fn apply(&self, view: &View<'_, u32>, _rule: RuleId) -> u32 {
        view.neighbor_states().map(|(_, &s)| s).max().unwrap()
    }
    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u32 {
        rng.gen_range(0..1000)
    }
}

impl PackedProtocol for MaxProto {
    type Lane = u32;
    type LaneScratch = Vec<u32>;

    fn pack(&self, state: &u32) -> u32 {
        *state
    }

    fn unpack(&self, lane: u32) -> u32 {
        lane
    }

    fn step_lanes(
        &self,
        graph: &Graph,
        lanes: usize,
        soa: &[u32],
        next: &mut [u32],
        fired: &mut [bool],
        scratch: &mut Vec<u32>,
    ) {
        scratch.resize(lanes, 0);
        let best = &mut scratch[..lanes];
        for v in graph.vertices() {
            let base = v.index() * lanes;
            best.fill(0);
            for &u in graph.neighbors(v) {
                let ru = &soa[u.index() * lanes..u.index() * lanes + lanes];
                for (b, &s) in best.iter_mut().zip(ru) {
                    *b = (*b).max(s);
                }
            }
            for l in 0..lanes {
                fired[base + l] = best[l] > soa[base + l];
                next[base + l] = best[l];
            }
        }
    }

    fn eval_vertex_lanes(
        &self,
        graph: &Graph,
        v: usize,
        lanes: usize,
        soa: &[u32],
        next: &mut [u32],
        fired: &mut [bool],
        scratch: &mut Vec<u32>,
    ) {
        scratch.resize(lanes, 0);
        let best = &mut scratch[..lanes];
        let v = VertexId::new(v);
        let base = v.index() * lanes;
        best.fill(0);
        for &u in graph.neighbors(v) {
            let ru = &soa[u.index() * lanes..u.index() * lanes + lanes];
            for (b, &s) in best.iter_mut().zip(ru) {
                *b = (*b).max(s);
            }
        }
        for l in 0..lanes {
            fired[base + l] = best[l] > soa[base + l];
            next[base + l] = best[l];
        }
    }
}

fn graph_for(case: u8) -> Graph {
    match case % 4 {
        0 => generators::ring(9).unwrap(),
        1 => generators::torus(3, 4).unwrap(),
        2 => generators::path(7).unwrap(),
        _ => generators::complete(5).unwrap(),
    }
}

fn random_inits(graph: &Graph, k: usize, seed: u64) -> Vec<Configuration<u32>> {
    (0..k)
        .map(|l| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0xB47C * l as u64 + 1));
            random_configuration(graph, &MaxProto, &mut rng)
        })
        .collect()
}

/// Safety: at most one strict local maximum (a count), so violation
/// tracking has something to record mid-run. Legitimacy: every vertex
/// agrees with its neighbours (a conjunction; on a connected graph, the
/// maximum has flooded).
struct MaxSpec;

impl LocalSpec<u32> for MaxSpec {
    fn term(&self, v: VertexId, config: &Configuration<u32>, graph: &Graph) -> LocalTerm {
        let s = *config.get(v);
        let peak = graph.neighbors(v).iter().all(|&u| s > *config.get(u));
        let differs = graph.neighbors(v).iter().any(|&u| s != *config.get(u));
        LocalTerm::new(usize::from(peak), differs)
    }
    fn verdicts(&self, count: usize, bad: usize) -> (bool, bool) {
        (count <= 1, bad == 0)
    }
}

/// [`MaxSpec`]'s safety, summing every term: the scalar reference.
fn max_safety() -> ConfigPredicate<u32> {
    Box::new(|c, g| MaxSpec.evaluate(c, g).0)
}

/// [`MaxSpec`]'s legitimacy, summing every term.
fn max_legitimacy() -> ConfigPredicate<u32> {
    Box::new(|c, g| MaxSpec.evaluate(c, g).1)
}

/// Every batch daemon mode the suite sweeps.
const MODES: [BatchDaemon; 6] = [
    BatchDaemon::Sync,
    BatchDaemon::CentralRr,
    BatchDaemon::CentralRand,
    BatchDaemon::RandomDistributed { p: 0.25 },
    BatchDaemon::RandomDistributed { p: 0.5 },
    BatchDaemon::RandomDistributed { p: 1.0 },
];

/// The scalar daemon lane `l` of a `mode` batch replays, built from the
/// lane's seed (ignored by the deterministic daemons).
fn scalar_daemon(mode: BatchDaemon, seed: u64) -> BoxedDaemon<u32> {
    match mode {
        BatchDaemon::Sync => Box::new(SynchronousDaemon::new()),
        BatchDaemon::CentralRr => Box::new(CentralDaemon::new(CentralStrategy::RoundRobin)),
        BatchDaemon::CentralRand => Box::new(CentralDaemon::new(CentralStrategy::Random(seed))),
        BatchDaemon::RandomDistributed { p } => Box::new(RandomDistributedDaemon::new(p, seed)),
    }
}

/// One RNG seed per lane.
fn lane_seeds(k: usize, seed: u64) -> Vec<u64> {
    (0..k as u64).map(|l| seed ^ (0x5EED * l + 7)).collect()
}

fn assert_reports_match(lane: &StabilizationReport, scalar: &StabilizationReport) {
    assert_eq!(lane.steps_run, scalar.steps_run);
    assert_eq!(lane.moves, scalar.moves);
    assert_eq!(lane.stop, scalar.stop);
    assert_eq!(lane.last_violation, scalar.last_violation);
    assert_eq!(lane.violation_count, scalar.violation_count);
    assert_eq!(lane.stabilization_steps, scalar.stabilization_steps);
    assert_eq!(lane.first_legitimate, scalar.first_legitimate);
    assert_eq!(lane.legitimacy_entry, scalar.legitimacy_entry);
    assert_eq!(lane.ended_legitimate, scalar.ended_legitimate);
}

/// Runs `k` lanes of `mode` on graph `case` with a plain (unmeasured)
/// batch and checks each lane against an independent scalar engine run
/// under the matching scalar daemon.
fn check_batch_equals_scalar(case: u8, seed: u64, mode: BatchDaemon, k: usize, max_steps: usize) {
    let graph = graph_for(case);
    let inits = random_inits(&graph, k, seed);
    let seeds = lane_seeds(k, seed);
    let seeds_arg: &[u64] = if mode.needs_lane_seeds() { &seeds } else { &[] };
    let lanes = run_batch(&graph, &MaxProto, mode, seeds_arg, inits.clone(), max_steps, None);
    prop_assert_eq!(lanes.len(), k);
    for ((lane, final_config), (init, &s)) in lanes.iter().zip(inits.iter().zip(&seeds)) {
        let sim = Simulator::new(&graph, &MaxProto);
        let limits = RunLimits::with_max_steps(max_steps);
        let scalar = sim.run(init.clone(), scalar_daemon(mode, s).as_mut(), limits, &mut []);
        prop_assert_eq!(lane.steps_run, scalar.steps);
        prop_assert_eq!(lane.moves, scalar.moves);
        prop_assert_eq!(lane.stop, scalar.stop);
        prop_assert_eq!(final_config, &scalar.final_config);
    }
}

/// Runs `k` measured lanes of `mode` on graph `case` (early stop on
/// legitimacy when `early`) and checks each lane's report against a
/// scalar `MeasurementContext` under the matching scalar daemon.
fn check_measured_equals_scalar(case: u8, seed: u64, mode: BatchDaemon, k: usize, early: bool) {
    let graph = graph_for(case);
    let inits = random_inits(&graph, k, seed);
    let seeds = lane_seeds(k, seed);
    let seeds_arg: &[u64] = if mode.needs_lane_seeds() { &seeds } else { &[] };
    let measure = LaneMeasure { spec: &MaxSpec, early_stop: early.then_some(2) };
    let measured =
        run_batch(&graph, &MaxProto, mode, seeds_arg, inits.clone(), 1_000, Some(measure));
    prop_assert_eq!(measured.len(), k);
    for ((report, final_config), (init, &s)) in measured.iter().zip(inits.iter().zip(&seeds)) {
        let sim = Simulator::new(&graph, &MaxProto);
        let mut ctx = MeasurementContext::new(max_safety(), max_legitimacy());
        if early {
            ctx = ctx.with_early_stop(max_legitimacy(), 2);
        }
        let scalar = ctx.run(&sim, scalar_daemon(mode, s).as_mut(), init.clone(), 1_000);
        assert_reports_match(report, &scalar);
        // The scalar measurement context doesn't expose its final
        // configuration, so cross-check against a plain run truncated
        // to the measured run's step count: a fresh daemon from the
        // same seed replays the same schedule, so equal step counts
        // mean equal configurations regardless of why each run stopped.
        let plain = sim.run(
            init.clone(),
            scalar_daemon(mode, s).as_mut(),
            RunLimits::with_max_steps(report.steps_run),
            &mut [],
        );
        prop_assert_eq!(final_config, &plain.final_config);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Plain batched runs equal K independent scalar engine runs under
    /// the matching scalar daemon. Under the divergent modes lanes
    /// disagree about which vertices move from the very first step.
    #[test]
    fn batch_equals_scalar_runs(
        case in 0u8..4,
        seed in 0u64..1_000,
        mode_pick in 0usize..6,
        k_pick in 0usize..4,
        tight in 0u8..2,
    ) {
        // Alternate between a tight step budget (lanes hit MaxSteps) and
        // a generous one (lanes reach Terminal).
        let max_steps = if tight == 0 { 2 } else { 2_000 };
        let k = [1, 3, 64, 100][k_pick];
        check_batch_equals_scalar(case, seed, MODES[mode_pick], k, max_steps);
    }

    /// Measured batched runs give every lane the report of a scalar
    /// `MeasurementContext` (with and without early stop on legitimacy)
    /// under the matching scalar daemon.
    #[test]
    fn batch_measured_equals_scalar_measurement(
        case in 0u8..4,
        seed in 0u64..1_000,
        mode_pick in 0usize..6,
        k_pick in 0usize..4,
        early_pick in 0u8..2,
    ) {
        let k = [1, 3, 64, 100][k_pick];
        check_measured_equals_scalar(case, seed, MODES[mode_pick], k, early_pick == 1);
    }
}

// Per-daemon properties: each pins one divergent mode with its own case
// budget, so a regression in one lane engine shows up under its own name
// and is not diluted across the mixed-mode sweep above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Central round-robin lanes each keep their own cursor and commit
    /// one vertex per pass, replaying the scalar `central-rr` daemon.
    #[test]
    fn batch_central_rr_equals_scalar_runs(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        tight in 0u8..2,
    ) {
        let max_steps = if tight == 0 { 5 } else { 2_000 };
        let k = [1, 3, 64, 100][k_pick];
        check_batch_equals_scalar(case, seed, BatchDaemon::CentralRr, k, max_steps);
    }

    /// Measured central round-robin lanes replicate the scalar
    /// `MeasurementContext` report lane for lane.
    #[test]
    fn batch_central_rr_measured_equals_scalar_measurement(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
        early_pick in 0u8..2,
    ) {
        let k = [1, 3, 64, 100][k_pick];
        check_measured_equals_scalar(case, seed, BatchDaemon::CentralRr, k, early_pick == 1);
    }

    /// Central-rand lane `l` carries its own RNG stream seeded exactly
    /// like scalar replica `l`, so its pick sequence replays the scalar
    /// seeded `CentralStrategy::Random` daemon draw for draw.
    #[test]
    fn batch_central_rand_equals_scalar_runs(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..3,
        tight in 0u8..2,
    ) {
        let max_steps = if tight == 0 { 5 } else { 2_000 };
        let k = [1, 3, 64][k_pick];
        check_batch_equals_scalar(case, seed, BatchDaemon::CentralRand, k, max_steps);
    }

    /// Random-distributed lanes replay their scalar replica's `gen_bool`
    /// coin sequence (ascending vertex order over the enabled set) plus
    /// the uniform fallback draw on empty samples.
    #[test]
    fn batch_random_distributed_equals_scalar_runs(
        case in 0u8..4,
        seed in 0u64..1_000,
        k_pick in 0usize..3,
        p_pick in 0usize..3,
        tight in 0u8..2,
    ) {
        let max_steps = if tight == 0 { 5 } else { 2_000 };
        let k = [1, 3, 64][k_pick];
        let mode = BatchDaemon::RandomDistributed { p: [0.25, 0.5, 1.0][p_pick] };
        check_batch_equals_scalar(case, seed, mode, k, max_steps);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The transposed incremental enabled-bitset maintains exactly the
    /// enabled set a dense full guard sweep recomputes from scratch:
    /// forcing the dense-sweep reference path (same selection and RNG
    /// code, only the bitset maintenance differs) yields bit-identical
    /// lane results for every divergent daemon mode.
    #[test]
    fn incremental_bitset_matches_dense_sweep(
        case in 0u8..4,
        seed in 0u64..1_000,
        mode_pick in 1usize..6,
        k_pick in 0usize..3,
    ) {
        let k = [1, 3, 64][k_pick];
        let mode = MODES[mode_pick];
        let graph = graph_for(case);
        let inits = random_inits(&graph, k, seed);
        let seeds = lane_seeds(k, seed);
        let seeds_arg: &[u64] = if mode.needs_lane_seeds() { &seeds } else { &[] };
        let incremental =
            run_batch(&graph, &MaxProto, mode, seeds_arg, inits.clone(), 1_000, None);
        let dense =
            run_batch_with_dense_sweep(&graph, &MaxProto, mode, seeds_arg, inits, 1_000, None);
        prop_assert_eq!(incremental.len(), dense.len());
        for ((a, config_a), (b, config_b)) in incremental.iter().zip(&dense) {
            prop_assert_eq!(a.steps_run, b.steps_run);
            prop_assert_eq!(a.moves, b.moves);
            prop_assert_eq!(a.stop, b.stop);
            prop_assert_eq!(config_a, config_b);
        }
    }
}
