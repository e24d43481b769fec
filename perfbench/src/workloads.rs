//! The three workloads: what each one runs, how one repetition is set up
//! and executed, and the digests its artifacts are pinned to.
//!
//! A repetition is timed from the first call into the campaign library
//! (the matrix build) until the final artifact bytes are in hand; its
//! set-up prefix ends where the first cell can execute.

use crate::trace::Tracer;
use specstab_campaign::artifact::to_json;
use specstab_campaign::executor::{
    resolve_topology, run_campaign_with_progress, CampaignConfig, CampaignResult,
};
use specstab_campaign::matrix::{Cell, InitMode, ScenarioMatrix};
use specstab_campaign::plan::CampaignPlan;
use specstab_campaign::serve::{run_worker, Coordinator, ServeOptions, WorkOptions};
use specstab_kernel::harness::ProtocolHarness;
use specstab_protocols::registry::{self, HarnessVisitor, ProtocolInfo};
use specstab_telemetry::{global, parse_ndjson, CounterSnapshot, EventKind};
use specstab_topology::Graph;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Worker threads for every workload (the 2-core box the numbers come
/// from; `sharded-small` spends them on one coordinator and one worker).
pub const THREADS: usize = 2;

/// The campaign CLI's default base seed; the artifact digests below are
/// pinned at it.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Shards of the `sharded-small` plan.
pub const SHARDS: usize = 8;

/// The four batch-eligible daemons of `lanes` and `sharded-small`.
const FOUR_DAEMONS: [&str; 4] = ["sync", "central-rr", "central-rand", "dist:0.5"];

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The ROADMAP's headline ssme grid, one seed per group.
    DefaultGrid,
    /// Small batch-routed groups only.
    Lanes,
    /// `--protocols all` on small topologies, served over loopback HTTP.
    ShardedSmall,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::DefaultGrid, Workload::Lanes, Workload::ShardedSmall];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DefaultGrid => "default-grid",
            Workload::Lanes => "lanes",
            Workload::ShardedSmall => "sharded-small",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Problem size: `Full` is what the benchmark measures, `Tiny` the
/// cut-down grids with the same shape that the self-test and the warm-up run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured grids.
    Full,
    /// Seconds-long grids for the self-test and the warm-up.
    Tiny,
}

/// One block of a workload's grid: protocols × topologies × daemons ×
/// inits × seeds, enumerated in the campaign's canonical order.
struct Block {
    protocols: &'static [&'static str],
    topologies: &'static [&'static str],
    daemons: &'static [&'static str],
    inits: &'static [InitMode],
    seeds: u64,
}

const BURSTS_0_2: [InitMode; 2] = [InitMode::Burst(0), InitMode::Burst(2)];
const BURSTS_0_2_W: [InitMode; 3] = [InitMode::Burst(0), InitMode::Burst(2), InitMode::Witness];

fn blocks(workload: Workload, scale: Scale) -> Vec<Block> {
    let full = scale == Scale::Full;
    match workload {
        Workload::DefaultGrid => vec![Block {
            protocols: &["ssme"],
            topologies: if full {
                &["ring:12", "torus:3x4", "tree:12", "path:12", "ring:1024", "torus:32x32"]
            } else {
                &["ring:12", "torus:3x4", "ring:64"]
            },
            daemons: &["sync", "central-rand", "dist:0.5"],
            inits: &BURSTS_0_2_W,
            seeds: 1,
        }],
        Workload::Lanes => {
            // A multiple of 32 seeds, so every group fills whole chunks. A
            // chunk runs until its slowest lane converges, so chunk times
            // are heavy-tailed; eight chunks per group average that out.
            let seeds = if full { 256 } else { 32 };
            let (rings, path, ssme): (&[&str], &[&str], &[&str]) = if full {
                (&["ring:64", "ring:128"], &["path:128"], &["ring:32", "torus:4x8"])
            } else {
                (&["ring:8"], &["path:8"], &["ring:8"])
            };
            vec![
                Block {
                    protocols: &["dijkstra", "dijkstra3"],
                    topologies: rings,
                    daemons: &FOUR_DAEMONS,
                    inits: &BURSTS_0_2,
                    seeds,
                },
                Block {
                    protocols: &["dijkstra4"],
                    topologies: path,
                    daemons: &FOUR_DAEMONS,
                    inits: &BURSTS_0_2,
                    seeds,
                },
                Block {
                    protocols: &["ssme"],
                    topologies: ssme,
                    daemons: &FOUR_DAEMONS,
                    inits: &BURSTS_0_2,
                    seeds,
                },
            ]
        }
        Workload::ShardedSmall => vec![Block {
            protocols: &["ssme", "dijkstra", "dijkstra3", "dijkstra4", "bfs", "matching"],
            topologies: if full {
                &["ring:12", "torus:3x4", "tree:12", "path:12"]
            } else {
                &["ring:6", "path:6"]
            },
            daemons: &FOUR_DAEMONS,
            inits: &BURSTS_0_2,
            // 120 groups × 25 seeds = 3,000 cells: the size at which the
            // plan and partial decode cost dominates the served run.
            seeds: if full { 25 } else { 1 },
        }],
    }
}

/// The campaign configuration every workload runs with.
pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig { threads: THREADS, seed, ..CampaignConfig::default() }
}

/// Pinned FNV-1a digests of the artifact bytes (`to_json` with cells) of
/// the full-size workloads, by campaign seed: the default seed and seeds
/// 0–10. Artifacts are deterministic across machines and thread counts,
/// so any other digest is a correctness failure.
const PINNED: &[(Workload, u64, u64)] = &[
    (Workload::DefaultGrid, 0, 0xeb89_8300_677e_1aed),
    (Workload::DefaultGrid, 1, 0xdc75_c1fa_c966_1a8d),
    (Workload::DefaultGrid, 2, 0xd7ae_e1b8_3243_cd05),
    (Workload::DefaultGrid, 3, 0x6143_c69c_3915_c265),
    (Workload::DefaultGrid, 4, 0xb366_86b6_1a27_d0ef),
    (Workload::DefaultGrid, 5, 0x5aea_a343_c070_dc15),
    (Workload::DefaultGrid, 6, 0x25f7_739a_2ec5_1029),
    (Workload::DefaultGrid, 7, 0xf434_c037_2b15_741a),
    (Workload::DefaultGrid, 8, 0x8a05_1402_cdce_a476),
    (Workload::DefaultGrid, 9, 0xd542_e690_c5ae_1991),
    (Workload::DefaultGrid, 10, 0x41b8_27ea_71fd_9110),
    (Workload::DefaultGrid, DEFAULT_SEED, 0x5351_a07b_ede7_013e),
    (Workload::Lanes, 0, 0x451d_4ccb_c865_addc),
    (Workload::Lanes, 1, 0xe1fe_12b2_7dee_ad46),
    (Workload::Lanes, 2, 0x81c3_ccbc_1348_107f),
    (Workload::Lanes, 3, 0x0b93_3431_b6a0_adb6),
    (Workload::Lanes, 4, 0xb56f_1cfc_6f77_f43f),
    (Workload::Lanes, 5, 0xf1d5_c7d3_87ba_6309),
    (Workload::Lanes, 6, 0xb9d4_86e9_7d58_c57b),
    (Workload::Lanes, 7, 0x024d_e8db_fcc8_5a5b),
    (Workload::Lanes, 8, 0xc7db_0b99_c8be_638c),
    (Workload::Lanes, 9, 0xd54f_d0f2_1bc6_b327),
    (Workload::Lanes, 10, 0x6188_2cee_c900_3176),
    (Workload::Lanes, DEFAULT_SEED, 0x81b5_0ef1_d18c_844f),
    (Workload::ShardedSmall, 0, 0xa577_f211_053f_be63),
    (Workload::ShardedSmall, 1, 0xf99c_157d_db79_b31c),
    (Workload::ShardedSmall, 2, 0x9320_9522_072f_9810),
    (Workload::ShardedSmall, 3, 0xadc6_452e_872a_94a6),
    (Workload::ShardedSmall, 4, 0xd2bd_7365_d3da_b7c1),
    (Workload::ShardedSmall, 5, 0xbaa5_969b_b072_e4e2),
    (Workload::ShardedSmall, 6, 0x7c19_af8b_847f_3cd9),
    (Workload::ShardedSmall, 7, 0xd084_02dc_6ba4_a7ef),
    (Workload::ShardedSmall, 8, 0xa8a9_6f7c_b8d6_40b0),
    (Workload::ShardedSmall, 9, 0x79ec_6f82_6244_47a7),
    (Workload::ShardedSmall, 10, 0xaca6_9726_6c07_58bb),
    (Workload::ShardedSmall, DEFAULT_SEED, 0x4d51_0b50_11da_e311),
];

/// The pinned digest for `workload` at `seed`, if one is recorded.
pub fn pinned_digest(workload: Workload, scale: Scale, seed: u64) -> Option<u64> {
    if scale != Scale::Full {
        return None;
    }
    PINNED.iter().find(|(w, s, _)| *w == workload && *s == seed).map(|&(_, _, d)| d)
}

/// 64-bit FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// What the registry says about one (topology, protocol) pair, gathered
/// by building its harness once during set-up.
#[derive(Clone, Copy, Debug)]
pub struct PairFacts {
    /// Vertices of the topology.
    pub n: usize,
    /// Whether the harness has a lane-packed implementation.
    pub supports_batch: bool,
    /// The harness's central-daemon routing gate.
    pub central_batch_max_n: usize,
}

/// Registry visitor building one harness, as the executor does per group.
struct BuildProbe<'a> {
    graph: &'a Graph,
    diam: u32,
}

impl HarnessVisitor for BuildProbe<'_> {
    type Output = Result<PairFacts, String>;
    fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> Self::Output {
        let h = H::build(self.graph, self.diam).map_err(|e| e.to_string())?;
        Ok(PairFacts {
            n: self.graph.n(),
            supports_batch: h.supports_batch(),
            central_batch_max_n: h.central_batch_max_n(),
        })
    }
}

/// Everything set-up produced: the matrix, resolved topologies and
/// harness facts, plus for `sharded-small` the plan and a bound
/// coordinator.
pub struct Prepared {
    /// The workload's cells, in canonical order.
    pub matrix: ScenarioMatrix,
    /// Resolved topologies (graph, diameter) by spec.
    pub topologies: BTreeMap<String, (Graph, u32)>,
    /// Harness facts by (topology, protocol).
    pub pairs: BTreeMap<(String, String), PairFacts>,
    /// The plan, as encoded (sharded-small only).
    pub plan: Option<CampaignPlan>,
    /// The bound coordinator, holding the decoded plan (sharded-small only).
    pub coordinator: Option<Coordinator>,
}

/// Set-up: build the matrix, resolve every topology, build every
/// (topology, protocol) harness — the CLI's upfront compatibility filter —
/// and, on `sharded-small`, encode the plan, decode it as the coordinator
/// would read it from disk, and bind the coordinator on loopback.
///
/// # Errors
///
/// A topology that does not resolve, or any coordinator bind failure.
pub fn setup(
    workload: Workload,
    scale: Scale,
    seed: u64,
    tracer: &mut Tracer,
    spool: &Path,
) -> Result<Prepared, String> {
    let cfg = config(seed);
    let setup_span = tracer.enter("setup");
    let span = tracer.enter("matrix.build");
    let blocks = blocks(workload, scale);
    let mut topo_specs = BTreeSet::new();
    let mut pair_specs = BTreeSet::new();
    for b in &blocks {
        for t in b.topologies {
            topo_specs.insert((*t).to_string());
            for p in b.protocols {
                pair_specs.insert(((*t).to_string(), (*p).to_string()));
            }
        }
    }
    tracer.exit(span);
    let mut topologies = BTreeMap::new();
    for t in &topo_specs {
        let span = tracer.enter("topology.resolve");
        let resolved = resolve_topology(t);
        tracer.exit(span);
        topologies.insert(t.clone(), resolved?);
    }
    let mut pairs = BTreeMap::new();
    for (t, p) in pair_specs {
        let (graph, diam) = &topologies[&t];
        let span = tracer.enter("harness.build");
        let facts = registry::resolve(&p, BuildProbe { graph, diam: *diam });
        tracer.exit(span);
        // Incompatible pairs (Dijkstra off its ring/line) are skipped, as
        // the CLI skips them.
        if let Ok(Ok(f)) = facts {
            pairs.insert((t, p), f);
        }
    }
    let span = tracer.enter("matrix.build");
    let mut cells: Vec<Cell> = Vec::new();
    for b in &blocks {
        let m = ScenarioMatrix::builder()
            .topologies(b.topologies.iter().copied())
            .protocols(b.protocols.iter().copied())
            .daemons(b.daemons.iter().copied())
            .init_modes(b.inits.iter().copied())
            .seeds(0..b.seeds)
            .build_where(|c| pairs.contains_key(&(c.topology.clone(), c.protocol.clone())));
        cells.extend_from_slice(m.cells());
    }
    let matrix = ScenarioMatrix::from_cells(cells);
    tracer.exit(span);
    let (plan, coordinator) = if workload == Workload::ShardedSmall {
        let plan = CampaignPlan::new(&matrix, &cfg, SHARDS);
        let span = tracer.enter("plan.encode");
        let text = plan.to_json();
        tracer.exit(span);
        let span = tracer.enter("plan.decode");
        let decoded = CampaignPlan::from_json(&text);
        tracer.exit(span);
        let span = tracer.enter("serve.bind");
        let options = ServeOptions {
            spool: spool.join("spool"),
            trace_path: tracer.enabled().then(|| spool.join("serve.ndjson")),
            ..ServeOptions::default()
        };
        let coordinator = Coordinator::bind(decoded?, "127.0.0.1:0", options);
        tracer.exit(span);
        (Some(plan), Some(coordinator?))
    } else {
        (None, None)
    };
    tracer.exit(setup_span);
    Ok(Prepared { matrix, topologies, pairs, plan, coordinator })
}

/// What the served run's worker saw.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Wall seconds of `run_worker`, plan fetch to exit.
    pub worker_s: f64,
    /// Uploads the coordinator acknowledged as duplicates.
    pub duplicate_uploads: u64,
    /// Leases that expired (counted from the coordinator's event stream,
    /// which only traced runs record).
    pub expired_leases: u64,
}

/// One timed repetition.
pub struct Rep {
    /// Set-up products (the coordinator is consumed by the run).
    pub prepared: Prepared,
    /// The campaign result.
    pub result: CampaignResult,
    /// The final artifact bytes.
    pub artifact: String,
    /// Seconds from the matrix build to the artifact bytes.
    pub wall_s: f64,
    /// Seconds of set-up within `wall_s`.
    pub setup_s: f64,
    /// Global engine-counter delta over the campaign call.
    pub counters: CounterSnapshot,
    /// Served-run statistics (sharded-small only).
    pub serve: Option<ServeStats>,
}

/// Runs one repetition: set-up, the campaign (in-process, or served to
/// one pull-worker over loopback HTTP), and the artifact encode.
///
/// # Errors
///
/// Set-up failures, a failed coordinator or worker, or a served run that
/// ends without a merged result.
pub fn run_rep(
    workload: Workload,
    scale: Scale,
    seed: u64,
    tracer: &mut Tracer,
    work_dir: &Path,
) -> Result<Rep, String> {
    let spool = fresh_dir(work_dir, "rep")?;
    let started = Instant::now();
    let mut prepared = setup(workload, scale, seed, tracer, &spool)?;
    let setup_s = started.elapsed().as_secs_f64();
    let before = global().snapshot();
    let span = tracer.enter("campaign");
    let (result, serve) = match prepared.coordinator.take() {
        None => (run_campaign_with_progress(&prepared.matrix, &config(seed), None), None),
        Some(coordinator) => {
            let (result, stats) = serve_once(coordinator)?;
            (result, Some(stats))
        }
    };
    tracer.exit(span);
    let counters = global().snapshot().delta(&before);
    let span = tracer.enter("artifact.encode");
    let artifact = to_json(&result, true);
    tracer.exit(span);
    let wall_s = started.elapsed().as_secs_f64();
    let serve = serve.map(|mut s| {
        s.expired_leases = count_expired_leases(&spool.join("serve.ndjson"));
        s
    });
    std::fs::remove_dir_all(&spool).map_err(|e| format!("removing {}: {e}", spool.display()))?;
    Ok(Rep { prepared, result, artifact, wall_s, setup_s, counters, serve })
}

/// Serves the bound coordinator's plan to one single-threaded pull-worker
/// on a second thread.
fn serve_once(coordinator: Coordinator) -> Result<(CampaignResult, ServeStats), String> {
    let addr = coordinator.local_addr().map_err(|e| format!("coordinator address: {e}"))?;
    let opts = WorkOptions {
        coordinator: format!("http://{addr}"),
        worker_id: "perfbench-worker".into(),
        threads: 1,
        lease_only: false,
    };
    let (served, worker) = std::thread::scope(|scope| {
        let coord = scope.spawn(move || coordinator.run());
        let work = scope.spawn(|| {
            let started = Instant::now();
            run_worker(&opts).map(|summary| (summary, started.elapsed().as_secs_f64()))
        });
        (
            coord.join().map_err(|_| "coordinator thread panicked".to_string()),
            work.join().map_err(|_| "worker thread panicked".to_string()),
        )
    });
    let result = served??.ok_or("coordinator stopped without a merged result")?;
    let (summary, worker_s) = worker??;
    Ok((result, ServeStats { worker_s, duplicate_uploads: summary.duplicates, expired_leases: 0 }))
}

/// Lease expiries recorded in a coordinator event stream (0 when the run
/// was not traced and wrote none).
fn count_expired_leases(path: &Path) -> u64 {
    let Ok(text) = std::fs::read_to_string(path) else { return 0 };
    parse_ndjson(&text).map_or(0, |events| {
        events.iter().filter(|e| matches!(e.kind, EventKind::LeaseExpired { .. })).count() as u64
    })
}

/// Creates an empty, uniquely named directory under `work_dir`.
pub fn fresh_dir(work_dir: &Path, prefix: &str) -> Result<PathBuf, String> {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = work_dir.join(format!(
        "{prefix}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The correctness verdict of one repetition.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// Cells attempted.
    pub cells: u64,
    /// Cells that errored.
    pub errors: u64,
    /// Theorem-bound violations.
    pub violations: u64,
    /// Cells of the matrix missing from (or misplaced in) the artifact.
    pub missing: u64,
    /// Failed whole-artifact checks (digest, served-vs-in-process).
    pub failed_checks: Vec<String>,
}

impl Verdict {
    /// Failures counted against `cells` (errors, violations, missing cells,
    /// failed checks).
    pub fn failed(&self) -> u64 {
        self.errors + self.violations + self.missing + self.failed_checks.len() as u64
    }
}

/// Checks one repetition: zero cell errors and bound violations, every
/// matrix cell present in order, the pinned digest (when one is given),
/// and byte equality with the in-process reference (when one is given).
pub fn check(rep: &Rep, pinned: Option<u64>, reference: Option<&str>) -> Verdict {
    let expected = rep.prepared.matrix.cells();
    let got = &rep.result.cells;
    let misplaced = expected.iter().zip(got).filter(|(e, g)| **e != g.cell).count();
    let mut v = Verdict {
        cells: expected.len() as u64,
        errors: rep.result.total_errors(),
        violations: rep.result.total_violations(),
        missing: (misplaced + expected.len().saturating_sub(got.len())) as u64,
        failed_checks: Vec::new(),
    };
    if let Some(want) = pinned {
        let digest = fnv1a(rep.artifact.as_bytes());
        if digest != want {
            v.failed_checks.push(format!("artifact digest {digest:#018x} != pinned {want:#018x}"));
        }
    }
    if let Some(reference) = reference {
        if reference != rep.artifact {
            v.failed_checks.push("served artifact differs from run_campaign on the plan".into());
        }
    }
    v
}

/// The in-process reference for a served run: `run_campaign` on the
/// plan's cells and configuration.
pub fn in_process_reference(plan: &CampaignPlan) -> String {
    let matrix = ScenarioMatrix::from_cells(plan.cells.clone());
    let cfg = CampaignConfig { threads: THREADS, ..plan.config.clone() };
    to_json(&run_campaign_with_progress(&matrix, &cfg, None), true)
}
