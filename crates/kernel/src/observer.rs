//! Execution observers: monitors threaded through the engine's step loop.
//!
//! Observers receive the initial configuration and every transition. They
//! power stabilization measurement ([`SafetyMonitor`],
//! [`LegitimacyMonitor`], and the all-in-one
//! [`MeasurementContext`](crate::measure::MeasurementContext) with its
//! early stop), accounting ([`MoveCounter`], [`RoundCounter`]) and trace
//! capture ([`ConfigTrace`]). The measurement observers only evaluate
//! predicates. The bookkeeping that turns their verdicts into a
//! stabilization report is one tally in [`crate::measure`], which the
//! batched engine's lanes share.
//!
//! Every [`StepEvent`] carries the step's `(vertex, before, after)` state
//! **delta** alongside borrowed before/after configurations, so observers
//! that persist execution history (like [`ConfigTrace`]) store the deltas —
//! `O(moves)` memory — instead of cloning the full configuration twice per
//! step.

use crate::config::Configuration;
use crate::measure::VerdictTally;
use crate::protocol::RuleId;
use specstab_topology::{Graph, VertexId};

/// One engine transition, as seen by observers.
pub struct StepEvent<'a, S> {
    /// Index of `after` in the execution (the initial configuration has
    /// index 0, so `step` is also the number of actions executed so far).
    pub step: usize,
    /// Configuration before the action.
    pub before: &'a Configuration<S>,
    /// Configuration after the action.
    pub after: &'a Configuration<S>,
    /// `(vertex, rule)` pairs that fired during the action.
    pub activated: &'a [(VertexId, RuleId)],
    /// Per-activated-vertex state delta `(vertex, state before, state
    /// after)`, in the same order as `activated`. `before` and `after` may
    /// be equal when a rule rewrites a state to itself.
    pub delta: &'a [(VertexId, S, S)],
    /// Vertices enabled in `after` (sorted).
    pub enabled_after: &'a [VertexId],
    /// The communication graph.
    pub graph: &'a Graph,
}

/// Observer of an execution.
pub trait Observer<S> {
    /// Called once with the initial configuration.
    fn on_start(&mut self, config: &Configuration<S>, graph: &Graph) {
        let _ = (config, graph);
    }

    /// Called after every action.
    fn on_step(&mut self, event: &StepEvent<'_, S>);

    /// Polled before each action; returning `true` stops the run.
    fn should_stop(&self) -> bool {
        false
    }
}

/// Predicate over configurations, with graph context.
///
/// `Send` so monitors (and the runs built on them) can move across worker
/// threads — e.g. the campaign executor's sharded cells.
pub type ConfigPredicate<S> = Box<dyn Fn(&Configuration<S>, &Graph) -> bool + Send>;

/// Tracks violations of a safety predicate across the whole execution.
///
/// The measured stabilization time of an execution (w.r.t. safety) is
/// `last_violation + 1`, or `0` when no configuration ever violates safety.
/// The bookkeeping is the safety half of the tally behind
/// [`MeasurementContext`](crate::measure::MeasurementContext).
pub struct SafetyMonitor<S> {
    safe: ConfigPredicate<S>,
    tally: VerdictTally,
}

impl<S> SafetyMonitor<S> {
    /// Creates a monitor for the given safety predicate.
    #[must_use]
    pub fn new(safe: ConfigPredicate<S>) -> Self {
        Self { safe, tally: VerdictTally::new() }
    }

    /// Number of unsafe configurations seen (counting multiplicity).
    #[must_use]
    pub fn violations(&self) -> usize {
        self.tally.violations()
    }

    /// Index of the first unsafe configuration.
    #[must_use]
    pub fn first_violation(&self) -> Option<usize> {
        self.tally.first_violation()
    }

    /// Index of the last unsafe configuration.
    #[must_use]
    pub fn last_violation(&self) -> Option<usize> {
        self.tally.last_violation()
    }

    /// `last_violation + 1`: the measured (per-execution) stabilization
    /// time with respect to safety.
    #[must_use]
    pub fn measured_stabilization(&self) -> usize {
        self.tally.measured_stabilization()
    }
}

impl<S> Observer<S> for SafetyMonitor<S> {
    fn on_start(&mut self, config: &Configuration<S>, graph: &Graph) {
        self.tally.record_safety(0, (self.safe)(config, graph));
    }
    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        self.tally.record_safety(event.step, (self.safe)(event.after, event.graph));
    }
}

/// Tracks entry into a legitimacy predicate (expected to be closed): the
/// legitimacy half of the tally behind
/// [`MeasurementContext`](crate::measure::MeasurementContext).
pub struct LegitimacyMonitor<S> {
    legitimate: ConfigPredicate<S>,
    tally: VerdictTally,
}

impl<S> LegitimacyMonitor<S> {
    /// Creates a monitor for the given legitimacy predicate.
    #[must_use]
    pub fn new(legitimate: ConfigPredicate<S>) -> Self {
        Self { legitimate, tally: VerdictTally::new() }
    }

    /// First index at which the predicate held.
    #[must_use]
    pub fn first_legitimate(&self) -> Option<usize> {
        self.tally.first_legitimate()
    }

    /// `last_illegitimate + 1`: the index from which the predicate held for
    /// the rest of the (observed) execution. `0` when it always held.
    #[must_use]
    pub fn entry_index(&self) -> usize {
        self.tally.legitimacy_entry()
    }

    /// Whether the final observed configuration was legitimate.
    #[must_use]
    pub fn currently_legitimate(&self) -> bool {
        self.tally.ended_legitimate()
    }
}

impl<S> Observer<S> for LegitimacyMonitor<S> {
    fn on_start(&mut self, config: &Configuration<S>, graph: &Graph) {
        self.tally.record_legitimacy(0, (self.legitimate)(config, graph));
    }
    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        self.tally.record_legitimacy(event.step, (self.legitimate)(event.after, event.graph));
    }
}

/// Per-vertex and per-rule move accounting.
#[derive(Clone, Debug, Default)]
pub struct MoveCounter {
    per_vertex: Vec<u64>,
    per_rule: Vec<u64>,
    total: u64,
}

impl MoveCounter {
    /// Creates an empty counter (sized lazily at `on_start`).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves executed by vertex `v`.
    #[must_use]
    pub fn moves_of(&self, v: VertexId) -> u64 {
        self.per_vertex.get(v.index()).copied().unwrap_or(0)
    }

    /// Moves per rule index.
    #[must_use]
    pub fn per_rule(&self) -> &[u64] {
        &self.per_rule
    }

    /// Total moves.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }
}

impl<S> Observer<S> for MoveCounter {
    fn on_start(&mut self, config: &Configuration<S>, _graph: &Graph) {
        self.per_vertex = vec![0; config.len()];
    }
    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        for &(v, rule) in event.activated {
            self.per_vertex[v.index()] += 1;
            if self.per_rule.len() <= rule.index() {
                self.per_rule.resize(rule.index() + 1, 0);
            }
            self.per_rule[rule.index()] += 1;
            self.total += 1;
        }
    }
}

/// Asynchronous round accounting.
///
/// A round ends once every vertex that was enabled at the round's start has
/// either moved or become disabled at some intermediate configuration.
/// Under the synchronous daemon every step is exactly one round.
#[derive(Clone, Debug, Default)]
pub struct RoundCounter {
    pending: Vec<VertexId>,
    rounds: usize,
}

impl RoundCounter {
    /// Creates the counter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Completed rounds so far.
    #[must_use]
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

impl<S> Observer<S> for RoundCounter {
    fn on_start(&mut self, _config: &Configuration<S>, _graph: &Graph) {
        self.pending.clear();
        self.rounds = 0;
    }
    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        if self.pending.is_empty() {
            // Start of a new round: everyone enabled *before* this action.
            // `before`-enabled = activated ∪ (enabled_after ∩ not-activated)
            // is not reconstructible exactly, so seed from the previous
            // event's `enabled_after`; for the very first action the round
            // begins with the activated set (a sound under-approximation:
            // rounds counted this way never exceed the true count).
            self.pending = event.activated.iter().map(|&(v, _)| v).collect();
        }
        let moved: Vec<VertexId> = event.activated.iter().map(|&(v, _)| v).collect();
        self.pending.retain(|v| !moved.contains(v) && event.enabled_after.binary_search(v).is_ok());
        if self.pending.is_empty() {
            self.rounds += 1;
            // Terminal configuration: the pending set stays empty and
            // no new round starts.
            self.pending = event.enabled_after.to_vec();
        }
    }
}

/// Records the full execution as the start configuration plus per-step
/// state deltas, reconstructing configurations on demand.
///
/// The former `TraceRecorder` cloned the full configuration on `on_start`
/// *and* on every `on_step` — `O(steps · n)` memory and two clones per
/// step. `ConfigTrace` stores the start configuration once and `O(moves)`
/// deltas; [`ConfigTrace::configs`] replays them forward when a caller
/// actually needs materialized configurations. Intended for short
/// executions (debugging, the lower-bound constructions, spec liveness
/// checks).
#[derive(Clone, Debug)]
pub struct ConfigTrace<S> {
    start: Option<Configuration<S>>,
    deltas: Vec<Vec<(VertexId, S, S)>>,
    activations: Vec<Vec<(VertexId, RuleId)>>,
}

/// Backwards-compatible name for [`ConfigTrace`].
pub type TraceRecorder<S> = ConfigTrace<S>;

impl<S: Clone> ConfigTrace<S> {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self { start: None, deltas: Vec::new(), activations: Vec::new() }
    }

    /// Number of recorded configurations (`steps + 1`, or 0 before any
    /// run started).
    #[must_use]
    pub fn len(&self) -> usize {
        match self.start {
            Some(_) => self.deltas.len() + 1,
            None => 0,
        }
    }

    /// Whether nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.start.is_none()
    }

    /// The initial configuration `γ_0`, if a run has started.
    #[must_use]
    pub fn start(&self) -> Option<&Configuration<S>> {
        self.start.as_ref()
    }

    /// The per-step `(vertex, before, after)` deltas, `deltas()[i]` being
    /// the transition `γ_i → γ_{i+1}`.
    #[must_use]
    pub fn deltas(&self) -> &[Vec<(VertexId, S, S)>] {
        &self.deltas
    }

    /// Reconstructs configuration `γ_i` by replaying deltas from the start.
    ///
    /// # Panics
    ///
    /// Panics if nothing was recorded or `i >= len()`.
    #[must_use]
    pub fn config_at(&self, i: usize) -> Configuration<S> {
        assert!(i < self.len(), "trace index {i} out of range (len {})", self.len());
        let mut c = self.start.as_ref().expect("trace recorded").clone();
        for step in &self.deltas[..i] {
            for (v, _, after) in step {
                c.set(*v, after.clone());
            }
        }
        c
    }

    /// Reconstructs all configurations `γ_0 ..= γ_steps` in one forward
    /// replay (allocates; the trace itself only stores deltas).
    #[must_use]
    pub fn configs(&self) -> Vec<Configuration<S>> {
        let Some(start) = &self.start else { return Vec::new() };
        let mut out = Vec::with_capacity(self.deltas.len() + 1);
        out.push(start.clone());
        for step in &self.deltas {
            let mut c = out.last().expect("nonempty").clone();
            for (v, _, after) in step {
                c.set(*v, after.clone());
            }
            out.push(c);
        }
        out
    }

    /// Activations of action `i` (the transition `γ_i → γ_{i+1}`).
    #[must_use]
    pub fn activations(&self) -> &[Vec<(VertexId, RuleId)>] {
        &self.activations
    }

    /// Restriction of the recorded execution to vertex `v` (Definition 8 of
    /// the paper): the sequence of `v`'s states. Replays only `v`'s deltas,
    /// so this is `O(steps)` — no configuration materialization.
    #[must_use]
    pub fn restriction(&self, v: VertexId) -> Vec<S> {
        let Some(start) = &self.start else { return Vec::new() };
        let mut out = Vec::with_capacity(self.deltas.len() + 1);
        let mut cur = start.get(v).clone();
        out.push(cur.clone());
        for step in &self.deltas {
            if let Some((_, _, after)) = step.iter().find(|(u, _, _)| *u == v) {
                cur = after.clone();
            }
            out.push(cur.clone());
        }
        out
    }
}

impl<S: Clone> Default for ConfigTrace<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Clone> Observer<S> for ConfigTrace<S> {
    fn on_start(&mut self, config: &Configuration<S>, _graph: &Graph) {
        self.deltas.clear();
        self.activations.clear();
        self.start = Some(config.clone());
    }
    fn on_step(&mut self, event: &StepEvent<'_, S>) {
        self.deltas.push(event.delta.to_vec());
        self.activations.push(event.activated.to_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::SynchronousDaemon;
    use crate::engine::{RunLimits, Simulator};
    use crate::protocol::{Protocol, RuleInfo, View};
    use rand::rngs::StdRng;
    use rand::Rng;
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

    fn run_path6(observers: &mut [&mut dyn Observer<u32>]) -> usize {
        let g = generators::path(6).unwrap();
        let sim = Simulator::new(&g, &MaxProto);
        let init = Configuration::from_fn(6, |v| if v.index() == 0 { 9 } else { 0 });
        let mut d = SynchronousDaemon::new();
        sim.run(init, &mut d, RunLimits::with_max_steps(100), observers).steps
    }

    #[test]
    fn safety_monitor_tracks_last_violation() {
        // "Safe" = all states equal; holds only at the end.
        let mut mon = SafetyMonitor::new(Box::new(|c: &Configuration<u32>, _| {
            c.states().iter().all(|&s| s == c.states()[0])
        }));
        let steps = run_path6(&mut [&mut mon]);
        assert_eq!(steps, 5);
        assert_eq!(mon.first_violation(), Some(0));
        assert_eq!(mon.last_violation(), Some(4));
        assert_eq!(mon.measured_stabilization(), 5);
        assert_eq!(mon.violations(), 5);
    }

    #[test]
    fn safety_monitor_zero_for_always_safe() {
        let mut mon = SafetyMonitor::new(Box::new(|_: &Configuration<u32>, _| true));
        run_path6(&mut [&mut mon]);
        assert_eq!(mon.measured_stabilization(), 0);
        assert_eq!(mon.violations(), 0);
    }

    #[test]
    fn legitimacy_monitor_entry_index() {
        let mut mon = LegitimacyMonitor::new(Box::new(|c: &Configuration<u32>, _| {
            c.states().iter().all(|&s| s == 9)
        }));
        run_path6(&mut [&mut mon]);
        assert_eq!(mon.first_legitimate(), Some(5));
        assert_eq!(mon.entry_index(), 5);
        assert!(mon.currently_legitimate());
    }

    #[test]
    fn move_counter_totals() {
        let mut mc = MoveCounter::new();
        run_path6(&mut [&mut mc]);
        // Steps: γ0→γ1 activates v1; γ1→γ2 activates v2; ... one vertex per
        // sync step on this instance.
        assert_eq!(mc.total(), 5);
        assert_eq!(mc.moves_of(VertexId::new(1)), 1);
        assert_eq!(mc.moves_of(VertexId::new(0)), 0);
        assert_eq!(mc.per_rule(), &[5]);
    }

    #[test]
    fn round_counter_counts_sync_steps_as_rounds() {
        let mut rc = RoundCounter::new();
        let steps = run_path6(&mut [&mut rc]);
        assert_eq!(rc.rounds(), steps);
    }

    #[test]
    fn trace_recorder_captures_everything() {
        let mut tr = TraceRecorder::new();
        let steps = run_path6(&mut [&mut tr]);
        assert_eq!(tr.configs().len(), steps + 1);
        assert_eq!(tr.activations().len(), steps);
        // Restriction to v5: stays 0 until the last step, then becomes 9.
        let r5 = tr.restriction(VertexId::new(5));
        assert_eq!(r5, vec![0, 0, 0, 0, 0, 9]);
    }
}
