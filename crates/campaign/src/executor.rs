//! The sharded campaign executor.
//!
//! The unit of work is a contiguous chunk of one **scenario group** — the
//! run of cells sharing topology × protocol × daemon × init (the seed axis
//! varies fastest in the canonical matrix order), split at
//! `MAX_RUN_CELLS` so seed-heavy groups still spread across the pool.
//! Workers claim chunks through a shared atomic cursor (work-stealing by
//! over-decomposition: each worker pulls the next unclaimed chunk, so
//! stragglers never idle the pool), execute the chunk's cells in canonical
//! order, and aggregate statistics **in-worker** while running — there is
//! no post-join pass over all cells. The main thread only reassembles the
//! partials in canonical order, folding same-group chunks with
//! [`GroupSummary::merge`].
//!
//! Every cell derives its RNG stream purely from its coordinates
//! ([`Cell::cell_seed`]), and each group's statistics are fed in canonical
//! cell order regardless of scheduling, so results are bit-identical
//! regardless of thread count.

use crate::matrix::{Cell, InitMode, ScenarioMatrix};
use crate::stats::OnlineStats;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::batch::BatchDaemon;
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{BoxedDaemon, DaemonClass};
use specstab_kernel::engine::{Simulator, StepScratch};
use specstab_kernel::fault::inject_faults_in_place;
use specstab_kernel::harness::{HarnessError, HarnessState, ProtocolHarness};
use specstab_kernel::measure::MeasurementContext;
use specstab_kernel::protocol::{random_configuration, Protocol};
use specstab_protocols::registry::{self, HarnessVisitor, ProtocolInfo};
use specstab_telemetry::{BatchDaemonClass, Heartbeat, RunCounters};
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::spec::parse_spec;
use specstab_topology::Graph;
use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Process-wide toggle for the lane-packed batched group path. On by
/// default; the differential test suite flips it off to force the scalar
/// reference path on otherwise-batchable groups.
static BATCHING: AtomicBool = AtomicBool::new(true);

/// Enables or disables the batched group path for this process.
///
/// Batched and scalar execution produce bit-identical cell outcomes (the
/// equivalence the kernel's differential suite proves), so this toggle
/// never changes artifacts — it exists for tests and for A/B timing runs.
pub fn set_batching_enabled(on: bool) {
    BATCHING.store(on, Ordering::Relaxed);
}

/// Whether the batched group path is currently enabled.
#[must_use]
pub fn batching_enabled() -> bool {
    BATCHING.load(Ordering::Relaxed)
}

/// Campaign-wide execution parameters.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Worker threads; `0` = all available cores.
    pub threads: usize,
    /// Hard per-run step budget.
    pub max_steps: usize,
    /// Campaign base seed, mixed into every cell seed.
    pub seed: u64,
    /// Early-stop margin: a run ends once legitimacy has held for
    /// `margin + 1` consecutive configurations.
    pub early_stop_margin: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        Self { threads: 0, max_steps: 2_000_000, seed: 0xC0FFEE, early_stop_margin: 3 }
    }
}

/// Numbers measured in one successfully executed cell.
#[derive(Clone, Debug, PartialEq)]
pub struct CellOutcome {
    /// Steps actually executed.
    pub steps_run: usize,
    /// Measured stabilization time w.r.t. safety (Definition 3, empirical).
    pub stabilization_steps: usize,
    /// Index from which legitimacy held for the rest of the run.
    pub legitimacy_entry: usize,
    /// Vertex activations executed.
    pub moves: u64,
    /// Whether the run ended inside the legitimate region.
    pub ended_legitimate: bool,
    /// The theorem bound this cell is checked against, when one applies —
    /// under the synchronous daemon, whatever
    /// [`ProtocolHarness::sync_bound`] provides (Theorem 2's `⌈diam/2⌉`
    /// for SSME, the `2n − 3` law for Dijkstra's K-state ring).
    pub bound: Option<u64>,
    /// Whether the measurement exceeded `bound`.
    pub violated_bound: bool,
}

/// One cell plus its execution result.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// The cell coordinates.
    pub cell: Cell,
    /// Vertices of the parsed topology (0 when the topology failed to parse).
    pub n: usize,
    /// Diameter of the parsed topology.
    pub diam: u32,
    /// Taxonomy class of the daemon, when it parsed.
    pub class: Option<DaemonClass>,
    /// The cell's derived deterministic seed.
    pub cell_seed: u64,
    /// Measured outcome, or a description of why the cell failed.
    pub outcome: Result<CellOutcome, String>,
    /// Wall-clock nanoseconds the cell took. **Telemetry only**: feeds
    /// event streams and metrics sidecars, never the deterministic
    /// artifacts (zero for failed cells and for cells read back from
    /// partials).
    pub wall_nanos: u64,
    /// The cell's engine counters (telemetry only, like `wall_nanos`).
    pub counters: RunCounters,
}

/// Aggregated statistics for one scenario group (all cells sharing
/// topology × protocol × daemon × fault burst, i.e. the seed axis).
#[derive(Clone, Debug)]
pub struct GroupSummary {
    /// Canonical group key.
    pub key: String,
    /// Shared cell coordinates.
    pub topology: String,
    /// Protocol spec (registry name).
    pub protocol: String,
    /// Daemon spec.
    pub daemon: String,
    /// Daemon taxonomy class, when it parsed.
    pub class: Option<DaemonClass>,
    /// Initial-configuration mode.
    pub init: InitMode,
    /// Vertices.
    pub n: usize,
    /// Diameter.
    pub diam: u32,
    /// Cells executed (including failed ones).
    pub runs: u64,
    /// Cells that errored.
    pub errors: u64,
    /// Cells that ended legitimate.
    pub converged: u64,
    /// Streaming stats over measured stabilization steps.
    pub stabilization: OnlineStats,
    /// Streaming stats over legitimacy entry.
    pub entry: OnlineStats,
    /// Streaming stats over moves.
    pub moves: OnlineStats,
    /// The applicable theorem bound, when the group has one.
    pub bound: Option<u64>,
    /// Cells whose measurement exceeded the bound.
    pub violations: u64,
}

impl GroupSummary {
    /// The daemon class as display text (empty when the daemon never
    /// parsed).
    #[must_use]
    pub fn class_str(&self) -> String {
        self.class.map_or_else(String::new, |c| c.to_string())
    }

    /// An empty summary seeded from the first cell of a group.
    fn seeded_from(cr: &CellResult) -> Self {
        Self {
            key: cr.cell.group_key(),
            topology: cr.cell.topology.clone(),
            protocol: cr.cell.protocol.clone(),
            daemon: cr.cell.daemon.clone(),
            class: cr.class,
            init: cr.cell.init,
            n: cr.n,
            diam: cr.diam,
            runs: 0,
            errors: 0,
            converged: 0,
            stabilization: OnlineStats::new(),
            entry: OnlineStats::new(),
            moves: OnlineStats::new(),
            bound: None,
            violations: 0,
        }
    }

    /// Feeds one cell result into the streaming aggregates.
    fn record(&mut self, cr: &CellResult) {
        self.runs += 1;
        if self.class.is_none() {
            self.class = cr.class;
        }
        match &cr.outcome {
            Ok(o) => {
                self.stabilization.push(o.stabilization_steps as f64);
                self.entry.push(o.legitimacy_entry as f64);
                self.moves.push(o.moves as f64);
                self.converged += u64::from(o.ended_legitimate);
                self.bound = self.bound.or(o.bound);
                self.violations += u64::from(o.violated_bound);
            }
            Err(_) => self.errors += 1,
        }
    }

    /// Merges another partial summary **of the same group** into this one,
    /// as if `other`'s cells had been fed after `self`'s. Counters merge
    /// exactly; streaming statistics merge via [`OnlineStats::merge`]
    /// (exact when `self` is empty, approximate for the quantile sketches
    /// otherwise). This is also the building block for combining campaign
    /// artifacts across processes (each process sweeping a slice of the
    /// seed axis).
    ///
    /// # Panics
    ///
    /// Panics if the two summaries describe different groups.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.key, other.key, "merging different groups");
        self.runs += other.runs;
        self.errors += other.errors;
        self.converged += other.converged;
        self.violations += other.violations;
        if self.class.is_none() {
            self.class = other.class;
        }
        self.bound = self.bound.or(other.bound);
        self.stabilization.merge(&other.stabilization);
        self.entry.merge(&other.entry);
        self.moves.merge(&other.moves);
    }
}

/// Everything a campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignResult {
    /// Per-cell results in canonical matrix order.
    pub cells: Vec<CellResult>,
    /// Per-group aggregates, ordered by first appearance in the matrix.
    pub groups: Vec<GroupSummary>,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Wall-clock duration of the sweep (excluded from artifacts so they
    /// stay byte-identical across machines and thread counts).
    pub wall: Duration,
    /// The configuration the campaign ran with.
    pub config: CampaignConfig,
}

impl CampaignResult {
    /// Total bound violations across all groups.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.groups.iter().map(|g| g.violations).sum()
    }

    /// Total cell errors across all groups.
    #[must_use]
    pub fn total_errors(&self) -> u64 {
        self.groups.iter().map(|g| g.errors).sum()
    }
}

/// Cap on cells per work unit. Groups at or below this size are aggregated
/// in one piece — their statistics are **bit-identical** to a sequential
/// canonical-order feed (the common case: every shipped matrix and the
/// golden artifact use ≤ 32 seeds per group). Larger groups are split into
/// deterministic, thread-count-independent chunks so seed-heavy campaigns
/// (one group × thousands of seeds) still parallelize; their chunk partials
/// are folded with [`GroupSummary::merge`], which keeps count/min/max and
/// the violation counters exact and merges mean/variance/quantiles with
/// the documented parallel-combination accuracy.
const MAX_RUN_CELLS: usize = 32;

/// Splits the canonical cell order into contiguous runs sharing a group
/// key — the executor's unit of work — chunking oversized groups at
/// [`MAX_RUN_CELLS`]. Chunk boundaries depend only on the matrix, never on
/// thread count or scheduling.
fn group_runs(cells: &[Cell]) -> Vec<std::ops::Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0usize;
    for i in 1..=cells.len() {
        if i == cells.len() || cells[i].group_key() != cells[start].group_key() {
            let mut lo = start;
            while lo < i {
                let hi = (lo + MAX_RUN_CELLS).min(i);
                runs.push(lo..hi);
                lo = hi;
            }
            start = i;
        }
    }
    runs
}

/// Per-worker pool of engine scratch buffers, keyed by the protocol's
/// state type. Workers execute cells of many protocols (hence many state
/// types) back to back; the pool hands each monomorphized cell runner
/// *the* [`StepScratch`] for its state type, so buffer allocations are
/// amortized across every run the worker ever executes (ROADMAP:
/// "cross-run scratch reuse"). The type-erased lookup happens once per
/// measured run — never inside the step loop.
#[derive(Default)]
pub struct ScratchPool {
    slots: HashMap<TypeId, Box<dyn Any>>,
}

impl ScratchPool {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The pooled scratch buffers for state type `S` (created on first
    /// use).
    pub fn get<S: 'static>(&mut self) -> &mut StepScratch<S> {
        self.slots
            .entry(TypeId::of::<S>())
            .or_insert_with(|| Box::new(StepScratch::<S>::new()))
            .downcast_mut::<StepScratch<S>>()
            .expect("slot keyed by state TypeId")
    }
}

/// Executes one contiguous group run in canonical cell order, aggregating
/// its statistics while running (per-worker partial aggregation).
///
/// All cells of a run share one group key — hence one topology and one
/// protocol — so the topology parse and the protocol-runner resolution
/// happen once per run, and the monomorphized group runner builds the
/// harness once for all of the run's cells.
fn execute_group_run(
    cells: &[Cell],
    config: &CampaignConfig,
    topo_cache: &mut HashMap<String, Result<(Graph, u32), String>>,
    scratch: &mut ScratchPool,
) -> (Vec<CellResult>, GroupSummary) {
    let first = cells.first().expect("group runs are nonempty");
    let topo = topo_cache
        .entry(first.topology.clone())
        .or_insert_with(|| resolve_topology(&first.topology))
        .clone();
    let error_results = |n: usize, diam: u32, e: &str| -> Vec<CellResult> {
        cells
            .iter()
            .map(|cell| CellResult {
                cell: cell.clone(),
                n,
                diam,
                class: None,
                cell_seed: cell.cell_seed(config.seed),
                outcome: Err(e.to_string()),
                wall_nanos: 0,
                counters: RunCounters::default(),
            })
            .collect()
    };
    let results = match &topo {
        Err(e) => error_results(0, 0, e),
        Ok((graph, diam)) => match registry::resolve(&first.protocol, RunnerLookup) {
            Ok(runner) => runner(cells, graph, *diam, config, scratch),
            Err(e) => error_results(graph.n(), *diam, &e),
        },
    };
    let mut summary: Option<GroupSummary> = None;
    for cr in &results {
        summary.get_or_insert_with(|| GroupSummary::seeded_from(cr)).record(cr);
    }
    (results, summary.expect("group runs are nonempty"))
}

/// Folds per-run partial summaries (in canonical run order) into the final
/// group list, merging duplicates with [`GroupSummary::merge`]. For
/// canonical matrices every group is one contiguous run, so the fold is a
/// pure reordering and the statistics are bit-identical to sequential
/// accumulation. Also the building block of [`crate::merge`], which feeds
/// it the groups of canonically ordered partial artifacts.
pub(crate) fn fold_groups(partials: Vec<GroupSummary>) -> Vec<GroupSummary> {
    let mut order: Vec<String> = Vec::new();
    let mut by_key: HashMap<String, GroupSummary> = HashMap::new();
    for partial in partials {
        if let Some(existing) = by_key.get_mut(&partial.key) {
            existing.merge(&partial);
        } else {
            order.push(partial.key.clone());
            by_key.insert(partial.key.clone(), partial);
        }
    }
    order.into_iter().map(|k| by_key.remove(&k).expect("group recorded")).collect()
}

/// Runs every cell of `matrix` across a worker pool, aggregating group
/// statistics inside the workers.
///
/// Deterministic: the per-cell outcomes (and therefore the aggregate
/// statistics and artifacts) depend only on the matrix and
/// `config.seed` / `config.max_steps` — never on `config.threads`.
#[must_use]
pub fn run_campaign(matrix: &ScenarioMatrix, config: &CampaignConfig) -> CampaignResult {
    run_campaign_with_progress(matrix, config, None)
}

/// [`run_campaign`] with an optional live progress heartbeat, ticked from
/// the main thread as finished group runs drain out of the worker channel.
/// The heartbeat only ever *observes* results — scheduling, seeding and
/// aggregation are untouched, so the result is bit-identical with or
/// without it.
#[must_use]
pub fn run_campaign_with_progress(
    matrix: &ScenarioMatrix,
    config: &CampaignConfig,
    progress: Option<&Heartbeat>,
) -> CampaignResult {
    let started = Instant::now();
    let cells = matrix.cells();
    let runs = group_runs(cells);
    let threads = effective_threads(config.threads, runs.len());
    let cursor = AtomicUsize::new(0);
    type RunOutput = (Vec<CellResult>, GroupSummary);
    let (tx, rx) = mpsc::channel::<(usize, RunOutput)>();

    let mut slots: Vec<Option<RunOutput>> = Vec::new();
    slots.resize_with(runs.len(), || None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let cursor = &cursor;
            let runs = &runs;
            scope.spawn(move || {
                // Per-worker topology cache: matrices reuse few topologies
                // across many cells, and BFS diameters are cell-invariant.
                let mut topo_cache: HashMap<String, Result<(Graph, u32), String>> = HashMap::new();
                // Per-worker scratch pool: engine step buffers are reused
                // across every run this worker executes.
                let mut scratch = ScratchPool::new();
                loop {
                    let idx = cursor.fetch_add(1, Ordering::Relaxed);
                    if idx >= runs.len() {
                        break;
                    }
                    let out = execute_group_run(
                        &cells[runs[idx].clone()],
                        config,
                        &mut topo_cache,
                        &mut scratch,
                    );
                    if tx.send((idx, out)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        for (idx, out) in rx {
            if let Some(hb) = progress {
                for cr in &out.0 {
                    hb.cell_done(cr.counters.moves);
                }
            }
            slots[idx] = Some(out);
        }
    });

    let mut all_cells = Vec::with_capacity(cells.len());
    let mut partials = Vec::with_capacity(runs.len());
    for slot in slots {
        let (results, summary) = slot.expect("every group run executed");
        all_cells.extend(results);
        partials.push(summary);
    }
    CampaignResult {
        cells: all_cells,
        groups: fold_groups(partials),
        threads_used: threads,
        wall: started.elapsed(),
        config: config.clone(),
    }
}

fn effective_threads(requested: usize, work_units: usize) -> usize {
    let available = if requested == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    available.clamp(1, work_units.max(1))
}

/// Sequential reference executor: runs the group runs one by one on the
/// calling thread with identical per-cell seeding and the same in-run
/// aggregation. Exists so tests can cross-check the parallel path; also
/// handy in constrained environments.
#[must_use]
pub fn run_campaign_sequential(matrix: &ScenarioMatrix, config: &CampaignConfig) -> CampaignResult {
    let started = Instant::now();
    let cells = matrix.cells();
    let mut topo_cache = HashMap::new();
    let mut scratch = ScratchPool::new();
    let mut all_cells = Vec::with_capacity(cells.len());
    let mut partials = Vec::new();
    for run in group_runs(cells) {
        let (results, summary) =
            execute_group_run(&cells[run], config, &mut topo_cache, &mut scratch);
        all_cells.extend(results);
        partials.push(summary);
    }
    CampaignResult {
        cells: all_cells,
        groups: fold_groups(partials),
        threads_used: 1,
        wall: started.elapsed(),
        config: config.clone(),
    }
}

/// Resolves a topology spec into a connected graph and its diameter —
/// the one parse/connectivity/diameter sequence shared by the executor's
/// per-worker topology cache and by frontends doing upfront
/// compatibility filtering (so every consumer reports the same errors).
///
/// # Errors
///
/// The parse error, or a "not connected" message.
pub fn resolve_topology(spec: &str) -> Result<(Graph, u32), String> {
    parse_spec(spec).map_err(|e| e.to_string()).and_then(|g| {
        if g.is_connected() {
            let diam = DistanceMatrix::new(&g).diameter();
            Ok((g, diam))
        } else {
            Err(format!("'{spec}' is not connected"))
        }
    })
}

/// The monomorphized per-protocol group runner: one instantiation of
/// [`run_harness_group`] per registered harness type, reached through a
/// plain `fn` pointer — no `dyn` dispatch anywhere near the step loop.
type GroupRunner = fn(&[Cell], &Graph, u32, &CampaignConfig, &mut ScratchPool) -> Vec<CellResult>;

/// Registry visitor resolving a protocol name to its monomorphized
/// [`GroupRunner`].
struct RunnerLookup;

impl HarnessVisitor for RunnerLookup {
    type Output = GroupRunner;
    fn visit<H: ProtocolHarness + 'static>(self, _info: &'static ProtocolInfo) -> GroupRunner {
        run_harness_group::<H>
    }
}

/// Runs one group chunk of any registered protocol. The harness — and
/// with it the protocol's specification and any precomputation such as
/// BFS distances — is built **once** for the chunk's shared
/// (topology, protocol) pair; a failed build (e.g. the typed
/// incompatible-topology error) fails every cell with the same message.
/// This single generic function replaces the per-protocol `run_*_cell`
/// clones; each instantiation is fully protocol-specialized.
fn run_harness_group<H: ProtocolHarness>(
    cells: &[Cell],
    graph: &Graph,
    diam: u32,
    config: &CampaignConfig,
    scratch: &mut ScratchPool,
) -> Vec<CellResult> {
    let harness = H::build(graph, diam);
    // Group keys include the daemon, so one shared check covers the chunk:
    // synchronous and central round-robin groups of batch-capable
    // protocols step all their seed replicas lane-parallel through the
    // packed engine. Any reason the batched path can't serve the chunk
    // bit-identically (protocol not packed, toggle off, or a per-cell
    // setup error that the scalar path reports cell by cell) falls back
    // to the scalar loop below and is counted per daemon class in the
    // process-wide telemetry.
    if let Ok(h) = &harness {
        let spec = cells.first().expect("group runs are nonempty").daemon.as_str();
        let mode = match spec {
            "sync" => Some((BatchDaemon::Sync, BatchDaemonClass::Sync)),
            "central-rr" => Some((BatchDaemon::CentralRr, BatchDaemonClass::CentralRr)),
            "central-rand" => Some((BatchDaemon::CentralRand, BatchDaemonClass::CentralRand)),
            _ => spec
                .strip_prefix("dist:")
                .and_then(|p| p.parse::<f64>().ok())
                .filter(|p| (0.0..=1.0).contains(p))
                .map(|p| {
                    (BatchDaemon::RandomDistributed { p }, BatchDaemonClass::RandomDistributed)
                }),
        };
        if let Some((mode, class)) = mode {
            let central = matches!(mode, BatchDaemon::CentralRr | BatchDaemon::CentralRand);
            // Central groups commit one move per lane per pass, so they
            // only amortize below the harness's measured crossover size
            // (128 on the byte-lane rings, 32 on i32-lane ssme — see
            // `ProtocolHarness::central_batch_max_n`); larger central
            // groups take the counted per-class scalar fallback. Sync and
            // dist groups commit whole selections and route at any size.
            let size_ok = !central || graph.n() <= h.central_batch_max_n();
            if batching_enabled() && h.supports_batch() && size_ok {
                if let Some(results) = run_batched_group(h, mode, cells, graph, diam, config) {
                    specstab_telemetry::global().record_batch_routed(class);
                    return results;
                }
            }
            specstab_telemetry::global().record_batch_fallback(class);
        }
    }
    cells
        .iter()
        .map(|cell| {
            let cell_seed = cell.cell_seed(config.seed);
            let started = Instant::now();
            let (class, counters, outcome) = match &harness {
                Ok(h) => run_harness_cell(h, cell, graph, diam, cell_seed, config, scratch),
                Err(e) => (None, RunCounters::default(), Err(e.to_string())),
            };
            let wall_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            CellResult {
                cell: cell.clone(),
                n: graph.n(),
                diam,
                class,
                cell_seed,
                outcome,
                wall_nanos,
                counters,
            }
        })
        .collect()
}

/// Runs one group chunk under a batchable daemon through the lane-packed
/// batched engine: every cell's initial configuration becomes one replica
/// lane of a single structure-of-arrays run (see
/// `specstab_kernel::batch`).
///
/// Lanes are set up by the scalar path's [`set_up_cell`] and measured
/// with the same predicates and early stop as [`run_harness_cell`], so
/// the per-cell outcomes are bit-identical to the scalar path. Returns
/// `None` when any cell's setup fails (bad daemon spec, witness error,
/// ...) — the scalar loop then reruns the chunk and attributes the error
/// to the right cell.
///
/// `wall_nanos` is the batch total split evenly across the lanes: lanes
/// run fused, so no truer per-cell attribution exists (telemetry only,
/// never an artifact input).
fn run_batched_group<H: ProtocolHarness>(
    harness: &H,
    mode: BatchDaemon,
    cells: &[Cell],
    graph: &Graph,
    diam: u32,
    config: &CampaignConfig,
) -> Option<Vec<CellResult>> {
    let started = Instant::now();
    let mut seeds = Vec::with_capacity(cells.len());
    let mut classes = Vec::with_capacity(cells.len());
    let mut lane_seeds = Vec::with_capacity(cells.len());
    let mut inits = Vec::with_capacity(cells.len());
    for cell in cells {
        let cell_seed = cell.cell_seed(config.seed);
        let setup = set_up_cell(harness, cell, graph, cell_seed).ok()?;
        seeds.push(cell_seed);
        classes.push(setup.daemon.class());
        lane_seeds.push(setup.daemon_seed);
        inits.push(setup.init);
    }
    let lane_seeds: &[u64] = if mode.needs_lane_seeds() { &lane_seeds } else { &[] };
    let reports = harness.batched_measure(
        graph,
        mode,
        lane_seeds,
        inits,
        config.max_steps,
        config.early_stop_margin,
    )?;
    // The chunk shares one daemon; the synchronous theorem bounds only
    // apply to the lanes when that daemon is "sync".
    let bound = (mode == BatchDaemon::Sync).then(|| harness.sync_bound(graph, diam)).flatten();
    let total_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let per_cell_nanos = total_nanos / cells.len().max(1) as u64;
    Some(
        cells
            .iter()
            .zip(seeds)
            .zip(classes)
            .zip(reports)
            .map(|(((cell, cell_seed), class), (report, _final_config))| CellResult {
                cell: cell.clone(),
                n: graph.n(),
                diam,
                class: Some(class),
                cell_seed,
                outcome: Ok(CellOutcome {
                    steps_run: report.steps_run,
                    stabilization_steps: report.stabilization_steps,
                    legitimacy_entry: report.legitimacy_entry,
                    moves: report.moves,
                    ended_legitimate: report.ended_legitimate,
                    bound: bound.map(|b| b.value),
                    violated_bound: bound.is_some_and(|b| b.violated_by(&report)),
                }),
                wall_nanos: per_cell_nanos,
                counters: report.counters,
            })
            .collect(),
    )
}

/// Runs one cell on an already-built harness: set the cell up
/// ([`set_up_cell`]), execute one measured run on pooled scratch buffers,
/// and check the harness's synchronous theorem bound.
fn run_harness_cell<H: ProtocolHarness>(
    harness: &H,
    cell: &Cell,
    graph: &Graph,
    diam: u32,
    cell_seed: u64,
    config: &CampaignConfig,
    scratch: &mut ScratchPool,
) -> (Option<DaemonClass>, RunCounters, Result<CellOutcome, String>) {
    let CellSetup { mut daemon, init, .. } = match set_up_cell(harness, cell, graph, cell_seed) {
        Ok(setup) => setup,
        Err((class, e)) => return (class, RunCounters::default(), Err(e)),
    };
    let class = Some(daemon.class());
    let sim = Simulator::new(graph, harness.protocol());
    let report =
        MeasurementContext::new(harness.safety_predicate(), harness.legitimacy_predicate())
            .with_early_stop(harness.legitimacy_predicate(), config.early_stop_margin)
            .run_with_scratch(
                &sim,
                daemon.as_mut(),
                init,
                config.max_steps,
                scratch.get::<HarnessState<H>>(),
            );
    let bound = (cell.daemon == "sync").then(|| harness.sync_bound(graph, diam)).flatten();
    (
        class,
        report.counters,
        Ok(CellOutcome {
            steps_run: report.steps_run,
            stabilization_steps: report.stabilization_steps,
            legitimacy_entry: report.legitimacy_entry,
            moves: report.moves,
            ended_legitimate: report.ended_legitimate,
            bound: bound.map(|b| b.value),
            violated_bound: bound.is_some_and(|b| b.violated_by(&report)),
        }),
    )
}

/// One cell's seeded set-up: its daemon, the seed the daemon was built
/// from, and its initial configuration.
struct CellSetup<S> {
    daemon: BoxedDaemon<S>,
    daemon_seed: u64,
    init: Configuration<S>,
}

/// Builds a cell's daemon and initial configuration (a burst into the
/// harness's legitimate configuration, or the adversarial witness where
/// supported) from its cell seed. Both executor paths set cells up here,
/// so batched lane `l` replays scalar cell `l`'s seeds exactly: its RNG
/// stream is the scalar daemon's seed, and its initial configuration the
/// scalar cell's. A failure carries the daemon class when the daemon was
/// resolved before it.
fn set_up_cell<H: ProtocolHarness>(
    harness: &H,
    cell: &Cell,
    graph: &Graph,
    cell_seed: u64,
) -> Result<CellSetup<HarnessState<H>>, (Option<DaemonClass>, String)> {
    let daemon_seed = mix(cell_seed, 0x000D_AE17);
    let daemon = harness.daemon(&cell.daemon, daemon_seed).map_err(|e| (None, e))?;
    let failed = |e: HarnessError| (Some(daemon.class()), e.to_string());
    let mut rng = StdRng::seed_from_u64(mix(cell_seed, 0x1217));
    let init = match cell.init {
        // Full burst: the initial configuration is uniformly arbitrary —
        // don't construct the legitimate resting point only to discard it.
        InitMode::Burst(0) => random_configuration(graph, harness.protocol(), &mut rng),
        InitMode::Burst(faults) => {
            let healthy = harness.legitimate_configuration(graph, &mut rng).map_err(failed)?;
            burst_configuration(graph, harness.protocol(), healthy, faults, &mut rng)
        }
        InitMode::Witness => harness.witness_configuration(graph).map_err(failed)?,
    };
    Ok(CellSetup { daemon, daemon_seed, init })
}

/// Builds the initial configuration for a burst-mode scenario: a full
/// random burst when `faults == 0`, otherwise `faults` (clamped to `n`)
/// corrupted vertices of `healthy`. Public so other frontends (e.g. the
/// `simulate` CLI) share the exact partial-burst semantics.
pub fn burst_configuration<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    mut healthy: Configuration<P::State>,
    faults: usize,
    rng: &mut StdRng,
) -> Configuration<P::State> {
    if faults == 0 {
        random_configuration(graph, protocol, rng)
    } else {
        let _ = inject_faults_in_place(&mut healthy, graph, protocol, faults.min(graph.n()), rng);
        healthy
    }
}

/// Mixes a stream label into a cell seed (SplitMix64 finalizer).
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::ScenarioMatrix;

    fn tiny_matrix() -> ScenarioMatrix {
        ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["ssme"])
            .daemons(["sync", "dist:0.5"])
            .fault_bursts([0, 1])
            .seeds(0..3)
            .build()
    }

    #[test]
    fn parallel_equals_sequential() {
        let m = tiny_matrix();
        let cfg = CampaignConfig { threads: 4, max_steps: 100_000, ..Default::default() };
        let par = run_campaign(&m, &cfg);
        let seq = run_campaign_sequential(&m, &cfg);
        assert_eq!(par.cells.len(), seq.cells.len());
        for (a, b) in par.cells.iter().zip(seq.cells.iter()) {
            assert_eq!(a.cell, b.cell);
            assert_eq!(a.cell_seed, b.cell_seed);
            assert_eq!(a.outcome.as_ref().ok(), b.outcome.as_ref().ok());
            assert_eq!(a.outcome.is_err(), b.outcome.is_err());
        }
    }

    #[test]
    fn sync_cells_respect_theorem2_with_zero_violations() {
        let m = ScenarioMatrix::builder()
            .topologies(["ring:8", "torus:3x4"])
            .protocols(["ssme"])
            .daemons(["sync"])
            .fault_bursts([0, 2])
            .seeds(0..5)
            .build();
        let r = run_campaign(&m, &CampaignConfig { max_steps: 200_000, ..Default::default() });
        assert_eq!(r.total_errors(), 0);
        assert_eq!(r.total_violations(), 0, "Theorem 2 must hold in every sync cell");
        for g in &r.groups {
            assert_eq!(g.converged, g.runs, "all sync runs converge");
            assert!(g.bound.is_some());
        }
    }

    #[test]
    fn dijkstra_cells_only_work_on_rings() {
        let m = ScenarioMatrix::builder()
            .topologies(["ring:6", "path:5"])
            .protocols(["dijkstra"])
            .daemons(["sync"])
            .seeds(0..2)
            .build();
        let r = run_campaign(&m, &CampaignConfig::default());
        let ring_group = &r.groups[0];
        let path_group = &r.groups[1];
        assert_eq!(ring_group.errors, 0);
        assert_eq!(path_group.errors, path_group.runs, "non-ring cells fail cleanly");
    }

    #[test]
    fn bad_specs_surface_as_cell_errors_not_panics() {
        let m = ScenarioMatrix::builder()
            .topologies(["mobius:9", "ring:6"])
            .protocols(["ssme"])
            .daemons(["sync", "warp-drive"])
            .seeds(0..2)
            .build();
        let r = run_campaign(&m, &CampaignConfig::default());
        assert_eq!(r.cells.len(), 8);
        let errors = r.cells.iter().filter(|c| c.outcome.is_err()).count();
        assert_eq!(errors, 6, "2 bad-topology groups x2 + 1 bad-daemon group x2");
    }

    #[test]
    fn oversized_groups_chunk_without_losing_determinism() {
        // One group x 80 seeds: split into three work units (so seed-heavy
        // campaigns parallelize), yet parallel and sequential execution
        // still agree byte-for-byte because chunk boundaries are fixed.
        let m = ScenarioMatrix::builder()
            .topologies(["ring:8"])
            .protocols(["ssme"])
            .daemons(["sync"])
            .fault_bursts([0])
            .seeds(0..80)
            .build();
        assert_eq!(super::group_runs(m.cells()).len(), 3);
        let cfg = CampaignConfig { threads: 4, max_steps: 100_000, ..Default::default() };
        let par = run_campaign(&m, &cfg);
        let seq = run_campaign_sequential(&m, &cfg);
        assert_eq!(par.groups.len(), 1);
        let g = &par.groups[0];
        assert_eq!(g.runs, 80);
        assert_eq!(g.errors, 0);
        assert_eq!(g.converged, 80);
        assert_eq!(g.stabilization.count(), 80);
        assert_eq!(
            crate::artifact::to_json(&par, true),
            crate::artifact::to_json(&seq, true),
            "chunked aggregation must stay thread-count invariant"
        );
        // Independent reference for the chunk-merge path: recompute the
        // group statistics naively from the per-cell outcomes (both
        // executors share group_runs/merge, so the par==seq check alone
        // cannot catch a merge bug).
        let entries: Vec<f64> = par
            .cells
            .iter()
            .map(|c| c.outcome.as_ref().expect("no errors").legitimacy_entry as f64)
            .collect();
        let naive_mean = entries.iter().sum::<f64>() / entries.len() as f64;
        let naive_var =
            entries.iter().map(|x| (x - naive_mean).powi(2)).sum::<f64>() / entries.len() as f64;
        assert_eq!(g.entry.count(), 80);
        assert_eq!(g.entry.min(), entries.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(g.entry.max(), entries.iter().copied().fold(f64::NEG_INFINITY, f64::max));
        assert!((g.entry.mean() - naive_mean).abs() < 1e-9, "merged mean drifted");
        assert!((g.entry.variance() - naive_var).abs() < 1e-6, "merged variance drifted");
        let mut sorted = entries;
        sorted.sort_by(f64::total_cmp);
        let exact_p50 = sorted[sorted.len() / 2];
        let spread = (g.entry.max() - g.entry.min()).max(1.0);
        assert!(
            (g.entry.p50() - exact_p50).abs() <= spread * 0.5,
            "merged p50 {} too far from exact {exact_p50}",
            g.entry.p50()
        );
        assert!(g.entry.p50() >= g.entry.min() && g.entry.p50() <= g.entry.max());
    }

    #[test]
    #[should_panic(expected = "merging different groups")]
    fn merge_rejects_mismatched_groups() {
        let m = tiny_matrix();
        let r = run_campaign_sequential(&m, &CampaignConfig::default());
        let mut a = r.groups[0].clone();
        a.merge(&r.groups[1]);
    }

    #[test]
    fn partial_bursts_recover_faster_than_full_bursts_on_average() {
        // The speculation story at cell granularity: small bursts sit
        // closer to the legitimate region.
        let m = ScenarioMatrix::builder()
            .topologies(["ring:10"])
            .protocols(["ssme"])
            .daemons(["sync"])
            .fault_bursts([0, 1])
            .seeds(0..8)
            .build();
        let r = run_campaign(&m, &CampaignConfig { max_steps: 200_000, ..Default::default() });
        let full = &r.groups[0];
        let burst1 = &r.groups[1];
        assert!(full.entry.mean() >= burst1.entry.mean());
    }
}
