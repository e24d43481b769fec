//! Stabilization-time measurement (Definition 3, empirically).
//!
//! For a single execution the *measured* stabilization time w.r.t. a safety
//! predicate is `last violation index + 1`. Provided the run extends past
//! entry into a closed legitimate region, that number certifies suffix
//! satisfaction (closure of the legitimate set is validated separately by
//! tests and by [`crate::spec::closure_violation`]).
//!
//! The daemon-level stabilization time `conv_time(π, d)` is the supremum
//! over all executions allowed by `d`; [`max_over_runs`] estimates it by
//! sampling (a lower bound on the worst case), while [`crate::search`]
//! computes it exactly on small instances.
//!
//! # Local specifications
//!
//! Every specification in the registry is a count or a conjunction of
//! per-vertex terms that read only the vertex's closed neighbourhood:
//! mutual-exclusion safety is "at most one privileged vertex" (a count),
//! the unison's `Γ1` is "every register correct and every edge within
//! drift 1" (a conjunction). A [`LocalSpec`] states a specification in
//! that form, and a [`LocalMonitor`] keeps its term array and the two
//! totals across a run. After a step only the terms of the moved vertices
//! and their neighbours can change, so the monitor re-evaluates exactly
//! those: a step costs O(Σ deg(moved)) instead of the O(n + m) of a
//! whole-configuration predicate. The benchmark's `default-grid`
//! workload, whose time goes to ssme central-rand runs at n = 1024, went
//! from a median 18.6 s to 2.26 s per repetition with it (10 alternated
//! pairs, 2 cores). [`MeasurementContext::local`] and every lane of
//! [`crate::batch::run_batch`] measure through one monitor each;
//! [`LocalSpec::evaluate`] sums every term, the whole-configuration form
//! that harness predicates derive from.

use crate::config::Configuration;
use crate::daemon::Daemon;
use crate::engine::{RunLimits, Simulator, StepScratch, StopReason};
use crate::observer::{ConfigPredicate, Observer, StepEvent};
use crate::protocol::Protocol;
use specstab_telemetry::RunCounters;
use specstab_topology::{Graph, VertexId};

/// Outcome of a measured run.
#[derive(Clone, Debug)]
pub struct StabilizationReport {
    /// Steps (actions) actually executed.
    pub steps_run: usize,
    /// Moves (vertex activations) executed.
    pub moves: u64,
    /// Why the run stopped.
    pub stop: StopReason,
    /// Index of the last configuration violating safety, if any.
    pub last_violation: Option<usize>,
    /// Number of unsafe configurations observed.
    pub violation_count: usize,
    /// Measured stabilization time w.r.t. safety: `last_violation + 1`.
    pub stabilization_steps: usize,
    /// First index at which the legitimacy predicate held.
    pub first_legitimate: Option<usize>,
    /// Index from which legitimacy held for the remainder of the run.
    pub legitimacy_entry: usize,
    /// Whether the run ended inside the legitimate region.
    pub ended_legitimate: bool,
    /// The run's deterministic engine counters (see
    /// [`crate::engine::RunSummary::counters`]), passed through so batch
    /// drivers can aggregate telemetry without touching the global.
    pub counters: RunCounters,
}

/// Parameters for [`measure_stabilization`].
pub struct MeasureSettings {
    /// Hard cap on executed steps.
    pub max_steps: usize,
}

impl MeasureSettings {
    /// Settings with a step cap.
    #[must_use]
    pub fn new(max_steps: usize) -> Self {
        Self { max_steps }
    }
}

/// One vertex's share of a [`LocalSpec`]: how many of the counted facts
/// hold at the vertex (its privileges, for mutual exclusion) and whether a
/// conjoined condition fails there.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct LocalTerm {
    /// The vertex's contribution to the counted total.
    pub count: u32,
    /// Whether the vertex violates a conjoined condition.
    pub bad: bool,
}

impl LocalTerm {
    /// A term counting `count` facts, `bad` when a condition fails.
    #[must_use]
    pub fn new(count: usize, bad: bool) -> Self {
        let count = u32::try_from(count).expect("a per-vertex count fits u32");
        Self { count, bad }
    }
}

/// A specification stated as per-vertex terms (see the module docs).
///
/// The verdicts on a configuration are
/// `verdicts(Σ_v term(v).count, #{v : term(v).bad})`.
pub trait LocalSpec<S> {
    /// Vertex `v`'s term in `config`. It must read only the states of `v`
    /// and its graph neighbours: the monitor re-evaluates a term only when
    /// one of those changed.
    fn term(&self, v: VertexId, config: &Configuration<S>, graph: &Graph) -> LocalTerm;

    /// The `(safe, legitimate)` verdicts for the summed counts and the
    /// number of bad vertices.
    fn verdicts(&self, count: usize, bad: usize) -> (bool, bool);

    /// The verdicts on `config`, summing every term: the
    /// whole-configuration form of the specification.
    fn evaluate(&self, config: &Configuration<S>, graph: &Graph) -> (bool, bool) {
        let (count, bad) = graph.vertices().fold((0, 0), |(count, bad), v| {
            let t = self.term(v, config, graph);
            (count + t.count as usize, bad + usize::from(t.bad))
        });
        self.verdicts(count, bad)
    }

    /// Brings `monitor` up to date with `config` and returns the
    /// verdicts: every term on the monitor's first call, then only the
    /// closed neighbourhoods of the vertices marked since the last call.
    ///
    /// Implementations keep this default; a wrapper may override it only
    /// to delegate to the wrapped spec's `repair`. It is a trait method
    /// rather than a [`LocalMonitor`] one so that the per-term loop is
    /// compiled for each specification, even when callers hold a
    /// `&dyn LocalSpec`.
    fn repair(
        &self,
        monitor: &mut LocalMonitor,
        config: &Configuration<S>,
        graph: &Graph,
    ) -> (bool, bool) {
        if monitor.terms.len() != graph.n() {
            monitor.terms.clear();
            monitor.terms.extend(graph.vertices().map(|v| self.term(v, config, graph)));
            monitor.count = monitor.terms.iter().map(|t| t.count as usize).sum();
            monitor.bad = monitor.terms.iter().filter(|t| t.bad).count();
            monitor.stamp = vec![0; graph.n()];
            monitor.generation = 0;
            monitor.moved.clear();
        } else if !monitor.moved.is_empty() {
            monitor.generation = monitor.generation.wrapping_add(1);
            if monitor.generation == 0 {
                monitor.stamp.fill(0);
                monitor.generation = 1;
            }
            let moved = std::mem::take(&mut monitor.moved);
            for &v in &moved {
                let v = VertexId::new(v as usize);
                monitor.refresh(self, v, config, graph);
                for &u in graph.neighbors(v) {
                    monitor.refresh(self, u, config, graph);
                }
            }
            monitor.moved = moved;
            monitor.moved.clear();
        }
        self.verdicts(monitor.count, monitor.bad)
    }
}

/// The incremental state of one [`LocalSpec`] over one run: the term
/// array, the count total and the bad-vertex total, plus the vertices
/// moved since the last [`LocalSpec::repair`].
///
/// The kernel owns every monitor: [`MeasurementContext::local`] keeps one
/// per run and [`crate::batch::run_batch`] one per measured lane. A new
/// monitor holds no terms, so the first repair evaluates all of them; the
/// owner then marks every vertex a step writes and repairs once per
/// configuration. Each vertex is re-evaluated at most once per repair
/// (stamp dedup), however many moved neighbours it has.
#[derive(Clone, Debug)]
pub struct LocalMonitor {
    terms: Vec<LocalTerm>,
    count: usize,
    bad: usize,
    moved: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
}

impl LocalMonitor {
    /// A monitor whose first repair evaluates every term.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self {
            terms: Vec::new(),
            count: 0,
            bad: 0,
            moved: Vec::new(),
            stamp: Vec::new(),
            generation: 0,
        }
    }

    /// Records that `v`'s state was written since the last repair.
    #[inline]
    pub(crate) fn mark_moved(&mut self, v: VertexId) {
        self.moved.push(v.index() as u32);
    }

    /// Marks the vertices a step activated and repairs against its
    /// successor configuration.
    pub(crate) fn observe_step<S, L: LocalSpec<S> + ?Sized>(
        &mut self,
        spec: &L,
        event: &StepEvent<'_, S>,
    ) -> (bool, bool) {
        for &(v, _) in event.activated {
            self.mark_moved(v);
        }
        spec.repair(self, event.after, event.graph)
    }

    /// Re-evaluates `v`'s term unless this repair already did, adjusting
    /// both totals by the difference.
    #[inline]
    fn refresh<S, L: LocalSpec<S> + ?Sized>(
        &mut self,
        spec: &L,
        v: VertexId,
        config: &Configuration<S>,
        graph: &Graph,
    ) {
        let i = v.index();
        if self.stamp[i] == self.generation {
            return;
        }
        self.stamp[i] = self.generation;
        let new = spec.term(v, config, graph);
        let old = std::mem::replace(&mut self.terms[i], new);
        self.count = self.count + new.count as usize - old.count as usize;
        self.bad = self.bad + usize::from(new.bad) - usize::from(old.bad);
    }
}

/// The predicate-free bookkeeping behind every [`StabilizationReport`].
///
/// A tally is fed one `(safe, legitimate, stop)` verdict triple per
/// configuration index, in order from index 0, and keeps the violation
/// count, the first/last violation, legitimacy entry, whether the run
/// ended legitimate and the consecutive-stop counter behind early
/// stopping. The scalar [`MeasurementContext`] and every lane of
/// [`crate::batch::run_batch`] drive one tally per run, so both engines
/// assemble their reports from this one piece of code.
#[derive(Clone, Debug, Default)]
pub(crate) struct VerdictTally {
    violations: usize,
    first_violation: Option<usize>,
    last_violation: Option<usize>,
    first_legitimate: Option<usize>,
    last_illegitimate: Option<usize>,
    ended_legitimate: bool,
    consecutive_stop: usize,
}

impl VerdictTally {
    /// An empty tally (nothing recorded yet).
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Records the verdicts on configuration `index` (`γ_index`).
    pub(crate) fn record(&mut self, index: usize, safe: bool, legitimate: bool, stop: bool) {
        self.record_safety(index, safe);
        self.record_legitimacy(index, legitimate);
        self.consecutive_stop = if stop { self.consecutive_stop + 1 } else { 0 };
    }

    /// The safety half of [`VerdictTally::record`].
    pub(crate) fn record_safety(&mut self, index: usize, safe: bool) {
        if !safe {
            self.violations += 1;
            self.first_violation.get_or_insert(index);
            self.last_violation = Some(index);
        }
    }

    /// The legitimacy half of [`VerdictTally::record`].
    pub(crate) fn record_legitimacy(&mut self, index: usize, legitimate: bool) {
        if legitimate {
            self.first_legitimate.get_or_insert(index);
        } else {
            self.last_illegitimate = Some(index);
        }
        self.ended_legitimate = legitimate;
    }

    /// Whether the stop verdict has held for `margin + 1` consecutive
    /// configurations.
    #[must_use]
    pub(crate) fn should_stop(&self, margin: usize) -> bool {
        self.consecutive_stop > margin
    }

    /// Number of unsafe configurations recorded (counting multiplicity).
    #[must_use]
    pub(crate) fn violations(&self) -> usize {
        self.violations
    }

    /// Index of the first unsafe configuration.
    #[must_use]
    pub(crate) fn first_violation(&self) -> Option<usize> {
        self.first_violation
    }

    /// Index of the last unsafe configuration.
    #[must_use]
    pub(crate) fn last_violation(&self) -> Option<usize> {
        self.last_violation
    }

    /// `last_violation + 1`: the measured (per-execution) stabilization
    /// time with respect to safety, `0` when safety always held.
    #[must_use]
    pub(crate) fn measured_stabilization(&self) -> usize {
        self.last_violation.map_or(0, |i| i + 1)
    }

    /// First index at which legitimacy held.
    #[must_use]
    pub(crate) fn first_legitimate(&self) -> Option<usize> {
        self.first_legitimate
    }

    /// `last_illegitimate + 1`: the index from which legitimacy held for
    /// the rest of the recorded execution, `0` when it always held.
    #[must_use]
    pub(crate) fn legitimacy_entry(&self) -> usize {
        self.last_illegitimate.map_or(0, |i| i + 1)
    }

    /// Whether the last recorded configuration was legitimate.
    #[must_use]
    pub(crate) fn ended_legitimate(&self) -> bool {
        self.ended_legitimate
    }

    /// Assembles the report of a run that executed `steps_run` steps and
    /// `moves` moves before stopping for `stop`.
    #[must_use]
    pub(crate) fn report(
        &self,
        steps_run: usize,
        moves: u64,
        stop: StopReason,
        counters: RunCounters,
    ) -> StabilizationReport {
        StabilizationReport {
            steps_run,
            moves,
            stop,
            last_violation: self.last_violation,
            violation_count: self.violations,
            stabilization_steps: self.measured_stabilization(),
            first_legitimate: self.first_legitimate,
            legitimacy_entry: self.legitimacy_entry(),
            ended_legitimate: self.ended_legitimate,
            counters,
        }
    }
}

/// The reusable per-run measurement context: one [`Observer`] that takes
/// the safety, legitimacy and optional early-stop verdicts on every
/// configuration of a run and feeds them to the tally that the batched
/// engine's lanes also use. Every caller (the `measure_*` helpers here,
/// the campaign executor's workers, ad-hoc tools) thus assembles identical
/// [`StabilizationReport`]s.
///
/// The verdicts come either from whole-configuration predicates
/// ([`MeasurementContext::new`], re-evaluated on every configuration) or
/// from a [`LocalSpec`] ([`MeasurementContext::local`], repaired from each
/// step's moved vertices). Both observe borrowed configurations — nothing
/// is cloned, so a measured run keeps the engine's zero-allocation steady
/// state (see [`crate::engine`]).
///
/// A context is one-shot: build, [`MeasurementContext::run`], read the
/// report. It is `Send`, so whole measured runs can be dispatched to worker
/// threads.
pub struct MeasurementContext<S> {
    verdicts: Verdicts<S>,
    early_stop: Option<(EarlyStop<S>, usize)>,
    tally: VerdictTally,
}

/// Where a [`MeasurementContext`]'s safety and legitimacy verdicts come
/// from.
enum Verdicts<S> {
    Predicates { safety: ConfigPredicate<S>, legitimacy: ConfigPredicate<S> },
    Local { spec: Box<dyn LocalSpec<S> + Send>, monitor: LocalMonitor },
}

/// A [`MeasurementContext`]'s stop verdict.
enum EarlyStop<S> {
    Predicate(ConfigPredicate<S>),
    /// The legitimacy verdict, taken once for both uses.
    Legitimacy,
}

impl<S> MeasurementContext<S> {
    /// A context measuring the given safety and legitimacy predicates.
    #[must_use]
    pub fn new(safety: ConfigPredicate<S>, legitimacy: ConfigPredicate<S>) -> Self {
        Self::with_verdicts(Verdicts::Predicates { safety, legitimacy })
    }

    /// A context measuring a local specification through one
    /// [`LocalMonitor`].
    #[must_use]
    pub fn local(spec: impl LocalSpec<S> + Send + 'static) -> Self {
        Self::with_verdicts(Verdicts::Local { spec: Box::new(spec), monitor: LocalMonitor::new() })
    }

    fn with_verdicts(verdicts: Verdicts<S>) -> Self {
        Self { verdicts, early_stop: None, tally: VerdictTally::new() }
    }

    /// Additionally stops the run once `stop_pred` (expected closed) has
    /// held for `margin + 1` consecutive configurations.
    #[must_use]
    pub fn with_early_stop(mut self, stop_pred: ConfigPredicate<S>, margin: usize) -> Self {
        self.early_stop = Some((EarlyStop::Predicate(stop_pred), margin));
        self
    }

    /// Additionally stops the run once the legitimacy verdict (expected
    /// closed) has held for `margin + 1` consecutive configurations —
    /// [`MeasurementContext::with_early_stop`] on the legitimacy
    /// predicate, without evaluating it twice.
    #[must_use]
    pub fn with_legitimacy_stop(mut self, margin: usize) -> Self {
        self.early_stop = Some((EarlyStop::Legitimacy, margin));
        self
    }

    /// Executes one measured run on `sim` and assembles the report.
    pub fn run<P: Protocol<State = S>>(
        self,
        sim: &Simulator<'_, P>,
        daemon: &mut dyn Daemon<S>,
        init: Configuration<S>,
        max_steps: usize,
    ) -> StabilizationReport {
        let mut scratch = StepScratch::new();
        self.run_with_scratch(sim, daemon, init, max_steps, &mut scratch)
    }

    /// [`MeasurementContext::run`] with caller-supplied engine scratch
    /// buffers, so batch drivers (e.g. the campaign executor's workers)
    /// amortize the per-run buffer setup across many measured runs.
    pub fn run_with_scratch<P: Protocol<State = S>>(
        mut self,
        sim: &Simulator<'_, P>,
        daemon: &mut dyn Daemon<S>,
        init: Configuration<S>,
        max_steps: usize,
        scratch: &mut StepScratch<S>,
    ) -> StabilizationReport {
        let summary = sim.run_with_scratch(
            init,
            daemon,
            RunLimits::with_max_steps(max_steps),
            &mut [&mut self],
            scratch,
        );
        self.tally.report(summary.steps, summary.moves, summary.stop, summary.counters)
    }

    /// Records configuration `index`'s verdicts, given its (safe,
    /// legitimate) pair.
    fn record(
        &mut self,
        index: usize,
        (safe, legitimate): (bool, bool),
        config: &Configuration<S>,
        graph: &Graph,
    ) {
        let stop = match &self.early_stop {
            None => false,
            Some((EarlyStop::Legitimacy, _)) => legitimate,
            Some((EarlyStop::Predicate(pred), _)) => pred(config, graph),
        };
        self.tally.record(index, safe, legitimate, stop);
    }
}

impl<S> Observer<S> for MeasurementContext<S> {
    fn on_start(&mut self, config: &Configuration<S>, graph: &Graph) {
        let verdicts = match &mut self.verdicts {
            Verdicts::Predicates { safety, legitimacy } => {
                (safety(config, graph), legitimacy(config, graph))
            }
            Verdicts::Local { spec, monitor } => spec.repair(monitor, config, graph),
        };
        self.record(0, verdicts, config, graph);
    }

    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        let (config, graph) = (event.after, event.graph);
        let verdicts = match &mut self.verdicts {
            Verdicts::Predicates { safety, legitimacy } => {
                (safety(config, graph), legitimacy(config, graph))
            }
            Verdicts::Local { spec, monitor } => monitor.observe_step(spec.as_ref(), event),
        };
        self.record(event.step, verdicts, config, graph);
    }

    fn should_stop(&self) -> bool {
        self.early_stop.as_ref().is_some_and(|&(_, margin)| self.tally.should_stop(margin))
    }
}

/// Runs `protocol` from `init` under `daemon`, measuring safety violations
/// and legitimacy entry. The run uses the full step budget (or stops at a
/// terminal configuration); use [`measure_with_early_stop`] to cut runs
/// short once a closed legitimate region is reached.
pub fn measure_stabilization<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    daemon: &mut dyn Daemon<P::State>,
    init: Configuration<P::State>,
    safety: ConfigPredicate<P::State>,
    legitimacy: ConfigPredicate<P::State>,
    settings: &MeasureSettings,
) -> StabilizationReport {
    let sim = Simulator::new(graph, protocol);
    MeasurementContext::new(safety, legitimacy).run(&sim, daemon, init, settings.max_steps)
}

/// Runs [`measure_stabilization`] repeatedly (fresh daemon state per run via
/// `Daemon::reset`, distinct initial configurations supplied by `inits`) and
/// returns the per-run reports.
pub fn measure_many<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    daemon: &mut dyn Daemon<P::State>,
    inits: impl IntoIterator<Item = Configuration<P::State>>,
    safety: impl Fn() -> ConfigPredicate<P::State>,
    legitimacy: impl Fn() -> ConfigPredicate<P::State>,
    settings: &MeasureSettings,
) -> Vec<StabilizationReport> {
    inits
        .into_iter()
        .map(|init| {
            measure_stabilization(graph, protocol, daemon, init, safety(), legitimacy(), settings)
        })
        .collect()
}

/// Maximum measured stabilization time across reports — the sampling
/// estimate (lower bound) of `conv_time(π, d)`.
#[must_use]
pub fn max_over_runs(reports: &[StabilizationReport]) -> usize {
    reports.iter().map(|r| r.stabilization_steps).max().unwrap_or(0)
}

/// Convenience: run once with early stopping once a *closed* legitimacy
/// predicate has held for `margin + 1` consecutive configurations.
///
/// Because legitimacy is closed, stopping early cannot hide later safety
/// violations: the execution suffix stays legitimate (hence safe) forever.
#[allow(clippy::too_many_arguments)]
pub fn measure_with_early_stop<P: Protocol>(
    graph: &Graph,
    protocol: &P,
    daemon: &mut dyn Daemon<P::State>,
    init: Configuration<P::State>,
    safety: ConfigPredicate<P::State>,
    legitimacy: ConfigPredicate<P::State>,
    stop_pred: ConfigPredicate<P::State>,
    max_steps: usize,
    margin: usize,
) -> StabilizationReport {
    let sim = Simulator::new(graph, protocol);
    MeasurementContext::new(safety, legitimacy)
        .with_early_stop(stop_pred, margin)
        .run(&sim, daemon, init, max_steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::SynchronousDaemon;
    use crate::protocol::{RuleId, RuleInfo, View};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use specstab_topology::generators;

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
            rng.gen_range(0..16)
        }
    }

    fn uniform_pred() -> ConfigPredicate<u32> {
        Box::new(|c, _| c.states().windows(2).all(|w| w[0] == w[1]))
    }

    #[test]
    fn measure_reports_stabilization_on_path() {
        let g = generators::path(6).unwrap();
        let init = Configuration::from_fn(6, |v| if v.index() == 0 { 9 } else { 0 });
        let mut d = SynchronousDaemon::new();
        let report = measure_stabilization(
            &g,
            &MaxProto,
            &mut d,
            init,
            uniform_pred(),
            uniform_pred(),
            &MeasureSettings::new(100),
        );
        assert_eq!(report.stabilization_steps, 5);
        assert_eq!(report.legitimacy_entry, 5);
        assert!(report.ended_legitimate);
        assert_eq!(report.stop, StopReason::Terminal);
    }

    #[test]
    fn early_stop_does_not_change_measured_value() {
        let g = generators::path(8).unwrap();
        let init = Configuration::from_fn(8, |v| if v.index() == 0 { 9 } else { 0 });
        let mut d = SynchronousDaemon::new();
        let report = measure_with_early_stop(
            &g,
            &MaxProto,
            &mut d,
            init,
            uniform_pred(),
            uniform_pred(),
            uniform_pred(),
            1000,
            2,
        );
        assert_eq!(report.stabilization_steps, 7);
        assert!(report.ended_legitimate);
    }

    #[test]
    fn early_stop_cuts_run_short() {
        let g = generators::path(6).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let init = Configuration::from_fn(6, |v| if v.index() == 0 { 9 } else { 0 });
        // The stop predicate holds from γ_2 on (vertices 0..=2 at 9), so a
        // zero margin stops the run before its third step.
        let report = MeasurementContext::new(uniform_pred(), uniform_pred())
            .with_early_stop(Box::new(|c, _| c.states()[..3].iter().all(|&s| s == 9)), 0)
            .run(&sim, &mut SynchronousDaemon::new(), init, 100);
        assert_eq!(report.stop, StopReason::ObserverRequest);
        assert_eq!(report.steps_run, 2);
        assert!(!report.ended_legitimate);
    }

    /// Safety: at most one strict local maximum; legitimacy: every vertex
    /// agrees with its neighbours.
    #[derive(Clone)]
    struct PeakSpec;
    impl LocalSpec<u32> for PeakSpec {
        fn term(&self, v: VertexId, c: &Configuration<u32>, g: &Graph) -> LocalTerm {
            let s = *c.get(v);
            let peak = g.neighbors(v).iter().all(|&u| s > *c.get(u));
            LocalTerm::new(usize::from(peak), g.neighbors(v).iter().any(|&u| s != *c.get(u)))
        }
        fn verdicts(&self, count: usize, bad: usize) -> (bool, bool) {
            (count <= 1, bad == 0)
        }
    }

    #[test]
    fn monitor_repairs_marked_neighbourhoods_to_the_full_sum() {
        let g = generators::torus(4, 5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let mut c = Configuration::from_fn(g.n(), |_| rng.gen_range(0..4u32));
        let mut monitor = LocalMonitor::new();
        assert_eq!(PeakSpec.repair(&mut monitor, &c, &g), PeakSpec.evaluate(&c, &g));
        for step in 0..500 {
            // One to three writes per step, some of them to the same vertex.
            for _ in 0..rng.gen_range(1..4) {
                let v = VertexId::new(rng.gen_range(0..g.n()));
                c.set(v, rng.gen_range(0..4));
                monitor.mark_moved(v);
            }
            let full = PeakSpec.evaluate(&c, &g);
            assert_eq!(PeakSpec.repair(&mut monitor, &c, &g), full, "step {step}");
            // A repair with nothing marked keeps the verdicts.
            assert_eq!(PeakSpec.repair(&mut monitor, &c, &g), full, "step {step}");
        }
        // Stamps survive the generation counter wrapping around.
        monitor.generation = u32::MAX - 1;
        for v in [0, 7, 0] {
            c.set(VertexId::new(v), 9);
            monitor.mark_moved(VertexId::new(v));
            assert_eq!(PeakSpec.repair(&mut monitor, &c, &g), PeakSpec.evaluate(&c, &g));
        }
    }

    #[test]
    fn local_context_reports_like_the_summed_predicates() {
        let g = generators::ring(9).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let pred = |i: usize| -> ConfigPredicate<u32> {
            Box::new(move |c, g| {
                let (safe, legit) = PeakSpec.evaluate(c, g);
                [safe, legit][i]
            })
        };
        for seed in 0..8 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = Configuration::from_fn(g.n(), |_| rng.gen_range(0..16u32));
            let mut d =
                crate::daemon::CentralDaemon::new(crate::daemon::CentralStrategy::Random(seed));
            let local = MeasurementContext::local(PeakSpec).with_legitimacy_stop(1).run(
                &sim,
                &mut d,
                init.clone(),
                100,
            );
            let mut d =
                crate::daemon::CentralDaemon::new(crate::daemon::CentralStrategy::Random(seed));
            let full = MeasurementContext::new(pred(0), pred(1))
                .with_early_stop(pred(1), 1)
                .run(&sim, &mut d, init, 100);
            assert_eq!(
                (local.steps_run, local.stop, local.last_violation, local.violation_count),
                (full.steps_run, full.stop, full.last_violation, full.violation_count),
                "seed {seed}"
            );
            assert_eq!(
                (local.first_legitimate, local.legitimacy_entry, local.ended_legitimate),
                (full.first_legitimate, full.legitimacy_entry, full.ended_legitimate),
                "seed {seed}"
            );
        }
    }

    /// Feeds `legit[i]` as the legitimacy verdict of `γ_i` (always safe).
    fn tally_of(legit: &[bool]) -> VerdictTally {
        let mut tally = VerdictTally::new();
        for (i, &l) in legit.iter().enumerate() {
            tally.record(i, true, l, l);
        }
        tally
    }

    #[test]
    fn tally_legitimacy_entry_edge_cases() {
        // Nothing recorded.
        let empty = VerdictTally::new();
        assert_eq!((empty.first_legitimate(), empty.legitimacy_entry()), (None, 0));
        assert!(!empty.ended_legitimate());
        // Never legitimate.
        let never = tally_of(&[false, false, false]);
        assert_eq!((never.first_legitimate(), never.legitimacy_entry()), (None, 3));
        assert!(!never.ended_legitimate());
        // Legitimate, then lost.
        let lost = tally_of(&[true, true, false]);
        assert_eq!((lost.first_legitimate(), lost.legitimacy_entry()), (Some(0), 3));
        assert!(!lost.ended_legitimate());
        // Lost and re-entered: entry counts from the last re-entry.
        let reentered = tally_of(&[false, true, false, true, true]);
        assert_eq!((reentered.first_legitimate(), reentered.legitimacy_entry()), (Some(1), 3));
        assert!(reentered.ended_legitimate());
        // Legitimate from index 0 on.
        let always = tally_of(&[true, true]);
        assert_eq!((always.first_legitimate(), always.legitimacy_entry()), (Some(0), 0));
        assert!(always.ended_legitimate());
    }

    #[test]
    fn tally_tracks_violations_and_stop_runs() {
        let mut tally = VerdictTally::new();
        for (i, safe) in [false, true, false, true].into_iter().enumerate() {
            tally.record(i, safe, true, true);
        }
        assert_eq!(tally.violations(), 2);
        assert_eq!((tally.first_violation(), tally.last_violation()), (Some(0), Some(2)));
        assert_eq!(tally.measured_stabilization(), 3);
        assert!(tally.should_stop(3) && !tally.should_stop(4));
        // A false stop verdict resets the consecutive run.
        tally.record(4, true, true, false);
        assert!(!tally.should_stop(0));
        let report = tally.report(4, 7, StopReason::MaxSteps, RunCounters::new());
        assert_eq!((report.violation_count, report.stabilization_steps), (2, 3));
        assert_eq!((report.steps_run, report.moves), (4, 7));
    }

    #[test]
    fn measure_many_and_max() {
        let g = generators::path(5).unwrap();
        let inits = vec![
            Configuration::from_fn(5, |v| if v.index() == 0 { 9 } else { 0 }),
            Configuration::from_fn(5, |v| if v.index() == 2 { 9 } else { 0 }),
            Configuration::from_fn(5, |_| 9),
        ];
        let mut d = SynchronousDaemon::new();
        let reports = measure_many(
            &g,
            &MaxProto,
            &mut d,
            inits,
            uniform_pred,
            uniform_pred,
            &MeasureSettings::new(100),
        );
        assert_eq!(reports.len(), 3);
        // Worst case: the max value at an end of the path (4 steps to cover
        // distance 4 = eccentricity of v0).
        assert_eq!(max_over_runs(&reports), 4);
        // The already-uniform run never violates safety.
        assert_eq!(reports[2].stabilization_steps, 0);
    }
}
