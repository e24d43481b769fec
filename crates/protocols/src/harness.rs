//! [`ProtocolHarness`] implementations for every protocol in the
//! workspace — the glue that lets the campaign grid sweep any of them
//! under the shared adversarial harness (see [`crate::registry`] for the
//! name-keyed index).
//!
//! Each harness packages the protocol constructor (with its typed
//! topology-compatibility check), a legitimate-configuration constructor
//! (the resting point fault bursts corrupt), the specification's safety
//! and legitimacy predicates, witness injection where a lower-bound
//! construction exists (SSME's Theorem 4), protocol-specific daemon
//! extensions (SSME's greedy Γ1-disorder adversaries) and the applicable
//! synchronous theorem bound.

use crate::bfs::{BfsSpec, MinPlusOneBfs};
use crate::dijkstra::{DijkstraError, DijkstraRing, DijkstraSpec};
use crate::dijkstra_four_state::{DijkstraFourState, FourState, FourStateError, FourStateSpec};
use crate::dijkstra_three_state::{DijkstraThreeState, ThreeStateError, ThreeStateSpec};
use crate::matching::{MatchState, MatchingSpec, MaximalMatching};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use specstab_core::bounds;
use specstab_core::spec_me::SpecMe;
use specstab_core::speculation::ssme_disorder_metric;
use specstab_core::ssme::{IdAssignment, Ssme};
use specstab_kernel::batch::{run_batch, BatchDaemon, LaneMeasure, PackedProtocol};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::{parse_daemon_spec, AdversaryMoves, BoxedDaemon, GreedyAdversary};
use specstab_kernel::harness::{
    BoundMetric, HarnessError, HarnessState, ProtocolHarness, TheoremBound,
};
use specstab_kernel::measure::StabilizationReport;
use specstab_kernel::observer::ConfigPredicate;
use specstab_kernel::spec::Specification;
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{Graph, VertexId};
use specstab_unison::clock::ClockValue;

/// Boxes a [`Specification`]'s safety predicate.
fn safety_of<S, Sp>(spec: &Sp) -> ConfigPredicate<S>
where
    Sp: Specification<S> + Clone + Send + 'static,
{
    let spec = spec.clone();
    Box::new(move |c, g| spec.is_safe(c, g))
}

/// Boxes a [`Specification`]'s legitimacy predicate.
fn legitimacy_of<S, Sp>(spec: &Sp) -> ConfigPredicate<S>
where
    Sp: Specification<S> + Clone + Send + 'static,
{
    let spec = spec.clone();
    Box::new(move |c, g| spec.is_legitimate(c, g))
}

/// The shared [`ProtocolHarness::batched_measure`] body of the packed
/// harnesses: one batched run of the harness's protocol, measured with
/// its own safety and legitimacy predicates.
fn batched<H>(
    harness: &H,
    graph: &Graph,
    daemon: BatchDaemon,
    lane_seeds: &[u64],
    inits: Vec<Configuration<HarnessState<H>>>,
    max_steps: usize,
    early_stop_margin: usize,
) -> Vec<(StabilizationReport, Configuration<HarnessState<H>>)>
where
    H: ProtocolHarness,
    H::Protocol: PackedProtocol,
{
    let measure = LaneMeasure {
        safety: harness.safety_predicate(),
        legitimacy: harness.legitimacy_predicate(),
        early_stop: Some(early_stop_margin),
    };
    run_batch(graph, harness.protocol(), daemon, lane_seeds, inits, max_steps, Some(measure))
}

/// SSME (Algorithm 1) under `specME` — the paper's speculatively
/// stabilizing mutual exclusion protocol. Works on any connected graph;
/// ships the Theorem 4 adversarial witness and the greedy Γ1-disorder
/// adversaries (`adversary-central` / `adversary-dist`).
#[derive(Debug)]
pub struct SsmeHarness {
    ssme: Ssme,
    spec: SpecMe,
}

impl SsmeHarness {
    /// The SSME instance.
    #[must_use]
    pub fn ssme(&self) -> &Ssme {
        &self.ssme
    }
}

impl ProtocolHarness for SsmeHarness {
    type Protocol = Ssme;
    const NAME: &'static str = "ssme";

    fn build(graph: &Graph, diam: u32) -> Result<Self, HarnessError> {
        let ssme = Ssme::new(graph, diam, IdAssignment::identity(graph.n())).map_err(|e| {
            HarnessError::Build { protocol: Self::NAME.to_string(), reason: e.to_string() }
        })?;
        let spec = SpecMe::new(ssme.clone());
        Ok(Self { ssme, spec })
    }

    fn protocol(&self) -> &Ssme {
        &self.ssme
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<ClockValue>, HarnessError> {
        // A legitimate resting point: every clock at the same stabilized
        // value.
        let healthy = self.ssme.clock().value(0).map_err(|e| HarnessError::Build {
            protocol: Self::NAME.to_string(),
            reason: e.to_string(),
        })?;
        Ok(Configuration::from_fn(graph.n(), |_| healthy))
    }

    fn supports_witness() -> bool {
        true
    }

    fn witness_configuration(
        &self,
        graph: &Graph,
    ) -> Result<Configuration<ClockValue>, HarnessError> {
        let dm = DistanceMatrix::new(graph);
        specstab_core::lower_bound::theorem4_witness(&self.ssme, graph, &dm)
            .map(|w| w.init)
            .map_err(|e| HarnessError::Build {
                protocol: Self::NAME.to_string(),
                reason: e.to_string(),
            })
    }

    fn safety_predicate(&self) -> ConfigPredicate<ClockValue> {
        safety_of(&self.spec)
    }

    fn legitimacy_predicate(&self) -> ConfigPredicate<ClockValue> {
        legitimacy_of(&self.spec)
    }

    /// The shared kernel zoo plus the protocol-specific greedy adversaries
    /// (`adversary-central`, `adversary-dist`) driven by the Γ1 disorder
    /// metric.
    fn daemon(&self, spec: &str, seed: u64) -> Result<BoxedDaemon<ClockValue>, String> {
        match spec {
            "adversary-central" => Ok(Box::new(GreedyAdversary::new(
                ssme_disorder_metric(&self.ssme),
                AdversaryMoves::Singletons,
                seed,
            ))),
            "adversary-dist" => Ok(Box::new(GreedyAdversary::new(
                ssme_disorder_metric(&self.ssme),
                AdversaryMoves::SingletonsAndAll,
                seed,
            ))),
            other => parse_daemon_spec(other, seed),
        }
    }

    /// Theorem 2: `⌈diam/2⌉` synchronous stabilization steps.
    fn sync_bound(&self, _graph: &Graph, diam: u32) -> Option<TheoremBound> {
        Some(TheoremBound {
            value: bounds::sync_stabilization_bound(diam),
            metric: BoundMetric::Stabilization,
        })
    }

    fn supports_batch(&self) -> bool {
        true
    }

    // `central_batch_max_n` keeps the conservative default (32): the i32
    // unison lanes pay ~10 ns per lane-element in a refresh row, so the
    // central modes stop beating 64 scalar steps per pass past the small
    // campaign tori (measured with the bench crate's `crossover_probe`
    // methodology on torus-4x5 vs torus-8x8).

    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<ClockValue>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<Vec<(StabilizationReport, Configuration<ClockValue>)>> {
        Some(batched(self, graph, daemon, lane_seeds, inits, max_steps, early_stop_margin))
    }
}

/// Dijkstra's K-state token ring (1974), `K = n`. Ring-only.
#[derive(Debug)]
pub struct DijkstraHarness {
    proto: DijkstraRing,
    spec: DijkstraSpec,
}

impl ProtocolHarness for DijkstraHarness {
    type Protocol = DijkstraRing;
    const NAME: &'static str = "dijkstra";

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        let proto = DijkstraRing::new(graph, graph.n() as u64).map_err(|e| match e {
            DijkstraError::NotARing => HarnessError::IncompatibleTopology {
                protocol: Self::NAME.to_string(),
                requirement: "a unidirectional ring of n >= 3 machines".to_string(),
                topology: graph.name().to_string(),
            },
            other => {
                HarnessError::Build { protocol: Self::NAME.to_string(), reason: other.to_string() }
            }
        })?;
        let spec = DijkstraSpec::new(proto.clone());
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &DijkstraRing {
        &self.proto
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<u64>, HarnessError> {
        // All counters equal: exactly the root privileged — legitimate.
        Ok(Configuration::from_fn(graph.n(), |_| 0u64))
    }

    fn safety_predicate(&self) -> ConfigPredicate<u64> {
        safety_of(&self.spec)
    }

    fn legitimacy_predicate(&self) -> ConfigPredicate<u64> {
        legitimacy_of(&self.spec)
    }

    /// The exact synchronous law: legitimacy entry within `2n − 3` steps.
    fn sync_bound(&self, graph: &Graph, _diam: u32) -> Option<TheoremBound> {
        Some(TheoremBound {
            value: bounds::dijkstra_sync_entry_law(graph.n()),
            metric: BoundMetric::LegitimacyEntry,
        })
    }

    /// Instance-level gate: the `u8` lane packing holds `K ≤ 256` counter
    /// states. The standard grid instance uses `K = n`, so every ring up
    /// to 256 machines batches; oversized rings fall back to scalar.
    fn supports_batch(&self) -> bool {
        self.proto.k() <= 256
    }

    /// Byte lanes make the central-mode pass cheap enough to route well
    /// past the i32 default: `crossover_probe` has central-rand winning
    /// outright through n ≈ 64–96 and both central modes within ~25% of
    /// scalar at n = 128 (`bench_results/crossover_central.txt`), which
    /// buys one engine path across the Monte-Carlo ring grid.
    fn central_batch_max_n(&self) -> usize {
        128
    }

    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<u64>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<Vec<(StabilizationReport, Configuration<u64>)>> {
        if !self.supports_batch() {
            return None;
        }
        Some(batched(self, graph, daemon, lane_seeds, inits, max_steps, early_stop_margin))
    }
}

/// Dijkstra's three-state solution (1974). Ring-only.
#[derive(Debug)]
pub struct Dijkstra3Harness {
    proto: DijkstraThreeState,
    spec: ThreeStateSpec,
}

impl ProtocolHarness for Dijkstra3Harness {
    type Protocol = DijkstraThreeState;
    const NAME: &'static str = "dijkstra3";

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        let proto = DijkstraThreeState::new(graph).map_err(|ThreeStateError::NotARing| {
            HarnessError::IncompatibleTopology {
                protocol: Self::NAME.to_string(),
                requirement: "a ring of n >= 3 machines".to_string(),
                topology: graph.name().to_string(),
            }
        })?;
        let spec = ThreeStateSpec::new(proto.clone());
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &DijkstraThreeState {
        &self.proto
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<u8>, HarnessError> {
        // All machines at 0: only the top machine holds a privilege.
        Ok(Configuration::from_fn(graph.n(), |_| 0u8))
    }

    fn safety_predicate(&self) -> ConfigPredicate<u8> {
        safety_of(&self.spec)
    }

    fn legitimacy_predicate(&self) -> ConfigPredicate<u8> {
        legitimacy_of(&self.spec)
    }

    fn supports_batch(&self) -> bool {
        true
    }

    /// Byte lanes: see [`DijkstraHarness::central_batch_max_n`] — the
    /// three-state ring is the `crossover_probe` calibration workload.
    fn central_batch_max_n(&self) -> usize {
        128
    }

    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<u8>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<Vec<(StabilizationReport, Configuration<u8>)>> {
        Some(batched(self, graph, daemon, lane_seeds, inits, max_steps, early_stop_margin))
    }
}

/// Dijkstra's four-state solution (1974). Line-only.
#[derive(Debug)]
pub struct Dijkstra4Harness {
    proto: DijkstraFourState,
    spec: FourStateSpec,
}

impl ProtocolHarness for Dijkstra4Harness {
    type Protocol = DijkstraFourState;
    const NAME: &'static str = "dijkstra4";

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        let proto = DijkstraFourState::new(graph).map_err(|FourStateError::NotALine| {
            HarnessError::IncompatibleTopology {
                protocol: Self::NAME.to_string(),
                requirement: "a line of n >= 2 machines".to_string(),
                topology: graph.name().to_string(),
            }
        })?;
        let spec = FourStateSpec::new(proto.clone());
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &DijkstraFourState {
        &self.proto
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<FourState>, HarnessError> {
        // Uniform `x`, all `up` bits lowered (the special machines' bits
        // frozen by `canonical`): only the bottom machine is privileged.
        Ok(Configuration::from_fn(graph.n(), |v| {
            self.proto.canonical(v.index(), FourState { x: false, up: false })
        }))
    }

    fn safety_predicate(&self) -> ConfigPredicate<FourState> {
        safety_of(&self.spec)
    }

    fn legitimacy_predicate(&self) -> ConfigPredicate<FourState> {
        legitimacy_of(&self.spec)
    }

    fn supports_batch(&self) -> bool {
        true
    }

    /// Byte lanes: see [`DijkstraHarness::central_batch_max_n`].
    fn central_batch_max_n(&self) -> usize {
        128
    }

    fn batched_measure(
        &self,
        graph: &Graph,
        daemon: BatchDaemon,
        lane_seeds: &[u64],
        inits: Vec<Configuration<FourState>>,
        max_steps: usize,
        early_stop_margin: usize,
    ) -> Option<Vec<(StabilizationReport, Configuration<FourState>)>> {
        Some(batched(self, graph, daemon, lane_seeds, inits, max_steps, early_stop_margin))
    }
}

/// The `min+1` BFS spanning-tree protocol (Huang & Chen 1992), rooted at
/// vertex 0. Works on any connected graph.
#[derive(Debug)]
pub struct BfsHarness {
    proto: MinPlusOneBfs,
    spec: BfsSpec,
}

impl ProtocolHarness for BfsHarness {
    type Protocol = MinPlusOneBfs;
    const NAME: &'static str = "bfs";

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        let root = VertexId::new(0);
        let proto = MinPlusOneBfs::new(graph, root);
        let spec = BfsSpec::new(graph, root);
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &MinPlusOneBfs {
        &self.proto
    }

    fn legitimate_configuration(
        &self,
        graph: &Graph,
        _rng: &mut StdRng,
    ) -> Result<Configuration<u32>, HarnessError> {
        // Levels equal to the true BFS distances: the unique terminal
        // (and legitimate) configuration. The distances are the ones the
        // specification already computed.
        Ok(Configuration::from_fn(graph.n(), |v| self.spec.distances()[v.index()]))
    }

    fn safety_predicate(&self) -> ConfigPredicate<u32> {
        safety_of(&self.spec)
    }

    fn legitimacy_predicate(&self) -> ConfigPredicate<u32> {
        legitimacy_of(&self.spec)
    }
}

/// The maximal matching protocol of Manne et al. (2009). Works on any
/// connected graph.
#[derive(Debug)]
pub struct MatchingHarness {
    proto: MaximalMatching,
    spec: MatchingSpec,
}

impl ProtocolHarness for MatchingHarness {
    type Protocol = MaximalMatching;
    const NAME: &'static str = "matching";

    fn build(graph: &Graph, _diam: u32) -> Result<Self, HarnessError> {
        let proto = MaximalMatching::new(graph);
        let spec = MatchingSpec::new(proto.clone());
        Ok(Self { proto, spec })
    }

    fn protocol(&self) -> &MaximalMatching {
        &self.proto
    }

    /// A greedy maximal matching over an rng-shuffled vertex order —
    /// different seeds sample different legitimate resting points, all of
    /// them terminal configurations of the protocol.
    fn legitimate_configuration(
        &self,
        graph: &Graph,
        rng: &mut StdRng,
    ) -> Result<Configuration<MatchState>, HarnessError> {
        let mut order: Vec<VertexId> = graph.vertices().collect();
        order.shuffle(rng);
        let mut partner: Vec<Option<VertexId>> = vec![None; graph.n()];
        for &v in &order {
            if partner[v.index()].is_some() {
                continue;
            }
            if let Some(u) =
                graph.neighbors(v).iter().copied().find(|u| partner[u.index()].is_none())
            {
                partner[v.index()] = Some(u);
                partner[u.index()] = Some(v);
            }
        }
        Ok(Configuration::from_fn(graph.n(), |v| MatchState {
            pointer: partner[v.index()],
            married: partner[v.index()].is_some(),
        }))
    }

    fn safety_predicate(&self) -> ConfigPredicate<MatchState> {
        safety_of(&self.spec)
    }

    fn legitimacy_predicate(&self) -> ConfigPredicate<MatchState> {
        legitimacy_of(&self.spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use specstab_topology::generators;

    fn diam(g: &Graph) -> u32 {
        DistanceMatrix::new(g).diameter()
    }

    #[test]
    fn ring_only_protocols_reject_non_rings_with_typed_errors() {
        let path = generators::path(5).unwrap();
        let d = diam(&path);
        for err in [
            DijkstraHarness::build(&path, d).unwrap_err(),
            Dijkstra3Harness::build(&path, d).unwrap_err(),
        ] {
            assert!(
                matches!(err, HarnessError::IncompatibleTopology { .. }),
                "expected IncompatibleTopology, got {err:?}"
            );
            assert!(err.to_string().contains("ring of n >= 3"), "{err}");
        }
        let ring = generators::ring(6).unwrap();
        let err = Dijkstra4Harness::build(&ring, diam(&ring)).unwrap_err();
        assert!(err.to_string().contains("requires a line"), "{err}");
    }

    #[test]
    fn every_harness_builds_on_a_compatible_topology() {
        let ring = generators::ring(7).unwrap();
        let path = generators::path(6).unwrap();
        let grid = generators::grid(3, 3).unwrap();
        assert!(SsmeHarness::build(&grid, diam(&grid)).is_ok());
        assert!(DijkstraHarness::build(&ring, diam(&ring)).is_ok());
        assert!(Dijkstra3Harness::build(&ring, diam(&ring)).is_ok());
        assert!(Dijkstra4Harness::build(&path, diam(&path)).is_ok());
        assert!(BfsHarness::build(&grid, diam(&grid)).is_ok());
        assert!(MatchingHarness::build(&grid, diam(&grid)).is_ok());
    }

    #[test]
    fn only_ssme_supports_the_witness_scenario() {
        assert!(SsmeHarness::supports_witness());
        assert!(!DijkstraHarness::supports_witness());
        assert!(!Dijkstra3Harness::supports_witness());
        assert!(!Dijkstra4Harness::supports_witness());
        assert!(!BfsHarness::supports_witness());
        assert!(!MatchingHarness::supports_witness());
        let ring = generators::ring(6).unwrap();
        let h = DijkstraHarness::build(&ring, diam(&ring)).unwrap();
        let err = h.witness_configuration(&ring).unwrap_err();
        assert!(matches!(err, HarnessError::UnsupportedScenario { .. }));
    }

    #[test]
    fn ssme_witness_matches_theorem4_construction() {
        let g = generators::ring(8).unwrap();
        let d = diam(&g);
        let h = SsmeHarness::build(&g, d).unwrap();
        let init = h.witness_configuration(&g).unwrap();
        let dm = DistanceMatrix::new(&g);
        let w = specstab_core::lower_bound::theorem4_witness(h.ssme(), &g, &dm).unwrap();
        assert_eq!(init, w.init);
    }

    #[test]
    fn matching_legitimate_configuration_varies_with_the_rng_stream() {
        let g = generators::grid(3, 4).unwrap();
        let h = MatchingHarness::build(&g, diam(&g)).unwrap();
        let legit = h.legitimacy_predicate();
        let mut seen = std::collections::HashSet::new();
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let c = h.legitimate_configuration(&g, &mut rng).unwrap();
            assert!(legit(&c, &g), "seed {seed} produced an illegitimate matching");
            seen.insert(format!("{:?}", c.states()));
        }
        assert!(seen.len() > 1, "shuffled greedy should sample several matchings");
    }

    #[test]
    fn sync_bounds_only_where_the_literature_provides_them() {
        let ring = generators::ring(8).unwrap();
        let d = diam(&ring);
        let ssme = SsmeHarness::build(&ring, d).unwrap();
        let b = ssme.sync_bound(&ring, d).unwrap();
        assert_eq!(b.value, bounds::sync_stabilization_bound(d));
        assert_eq!(b.metric, BoundMetric::Stabilization);
        let dij = DijkstraHarness::build(&ring, d).unwrap();
        let b = dij.sync_bound(&ring, d).unwrap();
        assert_eq!(b.value, bounds::dijkstra_sync_entry_law(8));
        assert_eq!(b.metric, BoundMetric::LegitimacyEntry);
        let bfs = BfsHarness::build(&ring, d).unwrap();
        assert!(bfs.sync_bound(&ring, d).is_none());
        let m3 = Dijkstra3Harness::build(&ring, d).unwrap();
        assert!(m3.sync_bound(&ring, d).is_none());
    }
}
