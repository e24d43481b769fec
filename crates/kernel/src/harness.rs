//! The protocol-construction API: [`ProtocolHarness`].
//!
//! The paper's speculation methodology (Definitions 3–4: stabilization
//! time as a function of the daemon) is protocol-agnostic — any
//! self-stabilizing protocol can be swept under the same adversarial
//! grid of daemons, fault bursts and topologies. A `ProtocolHarness`
//! packages everything such a sweep needs from one protocol:
//!
//! * **construction** for a given communication graph, with per-protocol
//!   topology-compatibility checks surfaced as typed
//!   [`HarnessError::IncompatibleTopology`] values (ring-only protocols
//!   reject non-rings here, not in ad-hoc `match`es downstream);
//! * a **legitimate-configuration constructor** — the resting point fault
//!   bursts are injected into (the speculative scenario);
//! * the **adversarial witness** initial configuration where one exists
//!   ([`HarnessError::UnsupportedScenario`] otherwise — witness injection
//!   is a *capability*, not an assumption);
//! * the **safety** and **legitimacy** [`ConfigPredicate`]s of the
//!   protocol's specification, plus a closure self-check validating that
//!   the constructed legitimate set really is closed under one step;
//! * **daemon resolution**, so protocols can extend the shared daemon zoo
//!   with protocol-specific adversaries;
//! * the applicable **theorem bound** under the synchronous daemon, when
//!   the literature provides one.
//!
//! Harness implementations live next to their protocols (see
//! `specstab-protocols`); the campaign engine consumes them through one
//! generic, monomorphized cell runner — no `dyn` dispatch in the step
//! loop, so the zero-allocation stepping invariants of [`crate::engine`]
//! are preserved.

use crate::batch::BatchDaemon;
use crate::config::Configuration;
use crate::daemon::{parse_daemon_spec, BoxedDaemon};
use crate::engine::Simulator;
use crate::measure::StabilizationReport;
use crate::observer::ConfigPredicate;
use crate::protocol::Protocol;
use rand::rngs::StdRng;
use specstab_topology::Graph;
use std::error::Error;
use std::fmt;

/// Per-vertex state type of a harness's protocol.
pub type HarnessState<H> = <<H as ProtocolHarness>::Protocol as Protocol>::State;

/// Typed errors a harness can produce while building a scenario.
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum HarnessError {
    /// The protocol cannot run on this communication graph at all (e.g. a
    /// token ring asked to run on a tree).
    IncompatibleTopology {
        /// Registry name of the protocol.
        protocol: String,
        /// Human-readable topology requirement (e.g. `"a ring of n >= 3"`).
        requirement: String,
        /// Name of the offending graph.
        topology: String,
    },
    /// The protocol is compatible with the graph but does not support the
    /// requested scenario (e.g. witness injection for a protocol without
    /// an adversarial witness construction).
    UnsupportedScenario {
        /// Registry name of the protocol.
        protocol: String,
        /// The unsupported scenario (e.g. `"witness"`).
        scenario: String,
    },
    /// Any other construction failure.
    Build {
        /// Registry name of the protocol.
        protocol: String,
        /// What went wrong.
        reason: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::IncompatibleTopology { protocol, requirement, topology } => {
                write!(f, "protocol '{protocol}' requires {requirement}; '{topology}' is not")
            }
            HarnessError::UnsupportedScenario { protocol, scenario } => {
                write!(f, "protocol '{protocol}' does not support scenario '{scenario}'")
            }
            HarnessError::Build { protocol, reason } => {
                write!(f, "building protocol '{protocol}': {reason}")
            }
        }
    }
}

impl Error for HarnessError {}

/// Which measured quantity a theorem bound constrains.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum BoundMetric {
    /// The measured stabilization time w.r.t. safety
    /// ([`StabilizationReport::stabilization_steps`]).
    Stabilization,
    /// The legitimacy entry index
    /// ([`StabilizationReport::legitimacy_entry`]).
    LegitimacyEntry,
}

/// A theorem bound a measured run can be checked against.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct TheoremBound {
    /// The bound value.
    pub value: u64,
    /// The measured quantity the bound constrains.
    pub metric: BoundMetric,
}

impl TheoremBound {
    /// The bounded quantity of `report`.
    #[must_use]
    pub fn measured(&self, report: &StabilizationReport) -> u64 {
        match self.metric {
            BoundMetric::Stabilization => report.stabilization_steps as u64,
            BoundMetric::LegitimacyEntry => report.legitimacy_entry as u64,
        }
    }

    /// Whether `report` exceeds the bound.
    #[must_use]
    pub fn violated_by(&self, report: &StabilizationReport) -> bool {
        self.measured(report) > self.value
    }
}

/// Everything an adversarial measurement grid needs from one protocol.
///
/// Implementations are cheap value types built per `(protocol, graph)`
/// pair; the associated [`ProtocolHarness::Protocol`] stays fully
/// monomorphic, so generic drivers (`fn run<H: ProtocolHarness>(..)`)
/// compile to protocol-specialized step loops with no dynamic dispatch.
pub trait ProtocolHarness: Sized {
    /// The protocol this harness constructs.
    type Protocol: Protocol;

    /// Registry name of the protocol (e.g. `"ssme"`).
    const NAME: &'static str;

    /// Builds the protocol (and its specification) for `graph`.
    ///
    /// `diam` is the graph's diameter, supplied by the caller because grid
    /// drivers compute it once per topology.
    ///
    /// # Errors
    ///
    /// [`HarnessError::IncompatibleTopology`] when the protocol cannot run
    /// on `graph`, [`HarnessError::Build`] for any other failure.
    fn build(graph: &Graph, diam: u32) -> Result<Self, HarnessError>;

    /// The protocol instance.
    fn protocol(&self) -> &Self::Protocol;

    /// Constructs a configuration inside the protocol's legitimate set —
    /// the resting point that fault bursts corrupt. May consult `rng`
    /// (e.g. to sample among several legitimate configurations), and must
    /// be a deterministic function of the rng stream.
    ///
    /// # Errors
    ///
    /// [`HarnessError::Build`] when the construction fails.
    fn legitimate_configuration(
        &self,
        graph: &Graph,
        rng: &mut StdRng,
    ) -> Result<Configuration<HarnessState<Self>>, HarnessError>;

    /// Whether the protocol defines an adversarial witness initial
    /// configuration ([`ProtocolHarness::witness_configuration`]).
    #[must_use]
    fn supports_witness() -> bool {
        false
    }

    /// The deterministic adversarial witness initial configuration, for
    /// protocols with a matching lower-bound construction (e.g. SSME's
    /// Theorem 4 witness attaining the `⌈diam/2⌉` synchronous bound).
    ///
    /// # Errors
    ///
    /// [`HarnessError::UnsupportedScenario`] by default.
    fn witness_configuration(
        &self,
        graph: &Graph,
    ) -> Result<Configuration<HarnessState<Self>>, HarnessError> {
        let _ = graph;
        Err(HarnessError::UnsupportedScenario {
            protocol: Self::NAME.to_string(),
            scenario: "witness".to_string(),
        })
    }

    /// The specification's safety predicate (e.g. "at most one privileged
    /// vertex").
    fn safety_predicate(&self) -> ConfigPredicate<HarnessState<Self>>;

    /// The specification's legitimacy predicate (a closed set — validated
    /// by [`ProtocolHarness::closure_self_check`]).
    fn legitimacy_predicate(&self) -> ConfigPredicate<HarnessState<Self>>;

    /// Resolves a textual daemon spec. The default is the shared kernel
    /// zoo ([`parse_daemon_spec`]); protocols with bespoke adversaries
    /// (e.g. greedy disorder-metric adversaries) extend it.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed spec.
    fn daemon(&self, spec: &str, seed: u64) -> Result<BoxedDaemon<HarnessState<Self>>, String> {
        parse_daemon_spec(spec, seed)
    }

    /// The theorem bound applicable under the **synchronous** daemon, when
    /// the literature provides one for this protocol.
    #[must_use]
    fn sync_bound(&self, graph: &Graph, diam: u32) -> Option<TheoremBound> {
        let _ = (graph, diam);
        None
    }

    /// Whether this harness provides a lane-packed protocol
    /// implementation, i.e. whether [`ProtocolHarness::batched_measure`]
    /// returns `Some`. Batch drivers check this before building replica
    /// inits so unsupported protocols fall straight to the scalar path.
    /// The check covers every batched daemon ([`BatchDaemon`]) — sync,
    /// central round-robin and both per-lane-RNG random modes: the lane
    /// engines are protocol-agnostic, so a packed protocol supports every
    /// batched daemon mode.
    ///
    /// Harnesses may return `false` for *instances* outside their packed
    /// domain (e.g. the K-state Dijkstra ring packs u8 lanes and only
    /// batches when `K <= 256`); such instances take the counted scalar
    /// fallback.
    #[must_use]
    fn supports_batch(&self) -> bool {
        false
    }

    /// Largest graph the lane-divergent *central* batch daemons
    /// ([`BatchDaemon::CentralRr`] / [`BatchDaemon::CentralRand`]) should
    /// be routed to the packed engine on. A central pass commits one move
    /// per lane, so its cost — selection word-scans plus the
    /// touched-neighborhood bitset refresh — must amortize below one
    /// scalar step across the lanes; where that break-even sits depends
    /// on the lane width and guard cost, so each packed harness
    /// calibrates its own bound (see `crossover_probe` in the bench
    /// crate). The conservative default covers narrow wins like the
    /// i32-lane protocols; byte-lane harnesses raise it. Synchronous and
    /// random-distributed daemons commit whole selections per pass and
    /// have no such crossover.
    #[must_use]
    fn central_batch_max_n(&self) -> usize {
        32
    }

    /// Runs `inits.len()` replicas of this protocol under `daemon` as one
    /// batched run (see [`crate::batch`]), producing per lane the exact
    /// [`StabilizationReport`] (and final configuration) a scalar
    /// measured run from the same initial configuration under the
    /// matching scalar daemon yields — same predicates, the same early
    /// stop on legitimacy with `early_stop_margin`, the same stop-reason
    /// ordering. For the
    /// random daemons, `lane_seeds[l]` must be the seed lane `l`'s scalar
    /// daemon was constructed with (one per replica; deterministic
    /// daemons pass `&[]`), so every lane replays its scalar RNG draw
    /// sequence bit for bit.
    ///
    /// `None` (the default) means "no packed implementation — use the
    /// scalar path". Harnesses whose protocols implement
    /// [`PackedProtocol`](crate::batch::PackedProtocol) override this to
    /// call [`run_batch`](crate::batch::run_batch) measured with their own
    /// safety and legitimacy predicates.
    #[must_use]
    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<HarnessState<Self>>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<Vec<(StabilizationReport, Configuration<HarnessState<Self>>)>> {
        let _ = (graph, daemon, lane_seeds, inits, max_steps, early_stop_margin);
        None
    }

    /// Self-check of the legitimate-set contract: every configuration
    /// produced by [`ProtocolHarness::legitimate_configuration`] must
    /// satisfy the legitimacy predicate, and legitimacy must be closed
    /// under one step for **every** daemon choice (all nonempty subsets of
    /// the enabled vertices when few, singletons plus the synchronous step
    /// otherwise).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated contract.
    fn closure_self_check(
        &self,
        graph: &Graph,
        rng: &mut StdRng,
        samples: usize,
    ) -> Result<(), String> {
        let legit = self.legitimacy_predicate();
        let sim = Simulator::new(graph, self.protocol());
        for sample in 0..samples {
            let config = self.legitimate_configuration(graph, rng).map_err(|e| e.to_string())?;
            if !legit(&config, graph) {
                return Err(format!(
                    "sample {sample}: constructed configuration violates legitimacy"
                ));
            }
            let enabled = sim.enabled_vertices(&config);
            if enabled.is_empty() {
                continue; // terminal: trivially closed
            }
            // Every daemon choice is a nonempty subset of the enabled set;
            // enumerate them all while that is tractable.
            if enabled.len() <= 10 {
                for mask in 1u32..(1 << enabled.len()) {
                    let subset: Vec<_> = enabled
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| mask & (1 << i) != 0)
                        .map(|(_, &v)| v)
                        .collect();
                    let (next, _) = sim.apply_action(&config, &subset);
                    if !legit(&next, graph) {
                        return Err(format!(
                            "sample {sample}: legitimacy not closed under activating {subset:?}"
                        ));
                    }
                }
            } else {
                for &v in &enabled {
                    let (next, _) = sim.apply_action(&config, &[v]);
                    if !legit(&next, graph) {
                        return Err(format!(
                            "sample {sample}: legitimacy not closed under activating {v}"
                        ));
                    }
                }
                let (next, _) = sim.apply_action(&config, &enabled);
                if !legit(&next, graph) {
                    return Err(format!(
                        "sample {sample}: legitimacy not closed under the synchronous step"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{RuleId, RuleInfo, View};
    use rand::{Rng, SeedableRng};
    use specstab_topology::{generators, VertexId};

    /// Toy harness: "all zero" is the legitimate set of a protocol that
    /// decrements positive states.
    struct Decrement;
    impl Protocol for Decrement {
        type State = u8;
        fn name(&self) -> String {
            "dec".into()
        }
        fn rules(&self) -> Vec<RuleInfo> {
            vec![RuleInfo::new("DEC")]
        }
        fn enabled_rule(&self, view: &View<'_, u8>) -> Option<RuleId> {
            (*view.state() > 0).then_some(RuleId::new(0))
        }
        fn apply(&self, view: &View<'_, u8>, _rule: RuleId) -> u8 {
            view.state() - 1
        }
        fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u8 {
            rng.gen_range(0..4)
        }
    }

    struct DecHarness(Decrement);
    impl ProtocolHarness for DecHarness {
        type Protocol = Decrement;
        const NAME: &'static str = "dec";
        fn build(_graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
            Ok(Self(Decrement))
        }
        fn protocol(&self) -> &Decrement {
            &self.0
        }
        fn legitimate_configuration(
            &self,
            graph: &Graph,
            _rng: &mut StdRng,
        ) -> Result<Configuration<u8>, HarnessError> {
            Ok(Configuration::from_fn(graph.n(), |_| 0))
        }
        fn safety_predicate(&self) -> ConfigPredicate<u8> {
            Box::new(|c, _| c.states().iter().all(|&s| s <= 1))
        }
        fn legitimacy_predicate(&self) -> ConfigPredicate<u8> {
            Box::new(|c, _| c.states().iter().all(|&s| s == 0))
        }
    }

    /// Broken harness: claims a non-closed "legitimate" set.
    struct Broken(Decrement);
    impl ProtocolHarness for Broken {
        type Protocol = Decrement;
        const NAME: &'static str = "broken";
        fn build(_graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
            Ok(Self(Decrement))
        }
        fn protocol(&self) -> &Decrement {
            &self.0
        }
        fn legitimate_configuration(
            &self,
            graph: &Graph,
            _rng: &mut StdRng,
        ) -> Result<Configuration<u8>, HarnessError> {
            Ok(Configuration::from_fn(graph.n(), |_| 2))
        }
        fn safety_predicate(&self) -> ConfigPredicate<u8> {
            Box::new(|_, _| true)
        }
        fn legitimacy_predicate(&self) -> ConfigPredicate<u8> {
            // "Exactly 2 everywhere": not closed under DEC.
            Box::new(|c, _| c.states().iter().all(|&s| s == 2))
        }
    }

    #[test]
    fn default_witness_is_a_typed_unsupported_scenario() {
        let g = generators::ring(4).unwrap();
        let h = DecHarness::build(&g, 2).unwrap();
        assert!(!DecHarness::supports_witness());
        let err = h.witness_configuration(&g).unwrap_err();
        assert_eq!(
            err,
            HarnessError::UnsupportedScenario {
                protocol: "dec".into(),
                scenario: "witness".into()
            }
        );
        assert!(err.to_string().contains("does not support scenario 'witness'"));
    }

    #[test]
    fn closure_self_check_accepts_a_closed_legitimate_set() {
        let g = generators::path(5).unwrap();
        let h = DecHarness::build(&g, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        h.closure_self_check(&g, &mut rng, 3).unwrap();
    }

    #[test]
    fn closure_self_check_rejects_a_non_closed_set() {
        let g = generators::path(4).unwrap();
        let h = Broken::build(&g, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let err = h.closure_self_check(&g, &mut rng, 1).unwrap_err();
        assert!(err.contains("not closed"), "{err}");
    }

    #[test]
    fn theorem_bound_checks_the_right_metric() {
        let report = StabilizationReport {
            steps_run: 10,
            moves: 10,
            stop: crate::engine::StopReason::Terminal,
            last_violation: Some(6),
            violation_count: 3,
            stabilization_steps: 7,
            first_legitimate: Some(2),
            legitimacy_entry: 9,
            ended_legitimate: true,
            counters: specstab_telemetry::RunCounters::default(),
        };
        let stab = TheoremBound { value: 7, metric: BoundMetric::Stabilization };
        assert_eq!(stab.measured(&report), 7);
        assert!(!stab.violated_by(&report));
        let entry = TheoremBound { value: 8, metric: BoundMetric::LegitimacyEntry };
        assert_eq!(entry.measured(&report), 9);
        assert!(entry.violated_by(&report));
    }

    #[test]
    fn harness_error_displays() {
        let e = HarnessError::IncompatibleTopology {
            protocol: "dijkstra".into(),
            requirement: "a ring of n >= 3 machines".into(),
            topology: "path-5".into(),
        };
        assert!(e.to_string().contains("requires a ring"));
        let b = HarnessError::Build { protocol: "ssme".into(), reason: "bad diameter".into() };
        assert!(b.to_string().contains("building protocol 'ssme'"));
    }
}
