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

use crate::config::Configuration;
use crate::daemon::Daemon;
use crate::engine::{RunLimits, Simulator, StepScratch, StopReason};
use crate::observer::{ConfigPredicate, Observer, StepEvent};
use crate::protocol::Protocol;
use specstab_telemetry::RunCounters;
use specstab_topology::Graph;

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

/// The reusable per-run measurement context: one [`Observer`] that
/// evaluates the safety, legitimacy and optional early-stop predicates on
/// every configuration of a run and feeds the verdicts to the tally that
/// the batched engine's lanes also use. Every caller (the `measure_*`
/// helpers here, the campaign executor's workers, ad-hoc tools) thus
/// assembles identical [`StabilizationReport`]s.
///
/// The predicates observe borrowed configurations — nothing is cloned, so
/// a measured run keeps the engine's zero-allocation steady state (see
/// [`crate::engine`]).
///
/// A context is one-shot: build, [`MeasurementContext::run`], read the
/// report. It is `Send`, so whole measured runs can be dispatched to worker
/// threads.
pub struct MeasurementContext<S> {
    safety: ConfigPredicate<S>,
    legitimacy: ConfigPredicate<S>,
    early_stop: Option<(ConfigPredicate<S>, usize)>,
    tally: VerdictTally,
}

impl<S> MeasurementContext<S> {
    /// A context measuring the given safety and legitimacy predicates.
    #[must_use]
    pub fn new(safety: ConfigPredicate<S>, legitimacy: ConfigPredicate<S>) -> Self {
        Self { safety, legitimacy, early_stop: None, tally: VerdictTally::new() }
    }

    /// Additionally stops the run once `stop_pred` (expected closed) has
    /// held for `margin + 1` consecutive configurations.
    #[must_use]
    pub fn with_early_stop(mut self, stop_pred: ConfigPredicate<S>, margin: usize) -> Self {
        self.early_stop = Some((stop_pred, margin));
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

    fn observe(&mut self, index: usize, config: &Configuration<S>, graph: &Graph) {
        let stop = self.early_stop.as_ref().is_some_and(|(pred, _)| pred(config, graph));
        self.tally.record(
            index,
            (self.safety)(config, graph),
            (self.legitimacy)(config, graph),
            stop,
        );
    }
}

impl<S> Observer<S> for MeasurementContext<S> {
    fn on_start(&mut self, config: &Configuration<S>, graph: &Graph) {
        self.observe(0, config, graph);
    }

    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        self.observe(event.step, event.after, event.graph);
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
    use rand::Rng;
    use specstab_topology::{generators, VertexId};

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
