//! Incremental local monitors against the whole-configuration reference.
//!
//! Every harness measures through its `local_spec()`: one `LocalMonitor`
//! per scalar run or per batched lane, repaired from the moved vertices
//! only. Here each spec is wrapped so that every repair also evaluates the
//! harness's `Specification::is_safe`/`is_legitimate` on the full
//! configuration and panics on the first disagreement. Runs sweep the six
//! harnesses × `sync`, `central-rr`, `central-rand`, `dist:0.5` (plus
//! `adversary-central` for ssme) × seeds on the scalar engine, and the
//! four packed harnesses × the four batch daemons through `run_batch`,
//! lane by lane. The vendored proptest does not shrink, so every failure
//! message names the harness, daemon and seed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::batch::{run_batch, BatchDaemon, LaneMeasure, PackedProtocol};
use specstab_kernel::config::Configuration;
use specstab_kernel::engine::Simulator;
use specstab_kernel::harness::{HarnessState, ProtocolHarness};
use specstab_kernel::measure::{LocalMonitor, LocalSpec, LocalTerm, MeasurementContext};
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::spec::Specification;
use specstab_protocols::harness::{
    BfsHarness, Dijkstra3Harness, Dijkstra4Harness, DijkstraHarness, MatchingHarness, SsmeHarness,
};
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{generators, Graph, VertexId};
use std::fmt::Debug;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// A harness spec whose every repair is checked against the full
/// `Specification` predicates. `checks` counts the repairs, so a test can
/// tell that the check ran on every configuration.
#[derive(Clone)]
struct Checked<Sp> {
    spec: Sp,
    label: String,
    checks: Arc<AtomicUsize>,
}

impl<Sp> Checked<Sp> {
    fn new(spec: Sp, label: String) -> Self {
        Self { spec, label, checks: Arc::new(AtomicUsize::new(0)) }
    }

    fn checks(&self) -> usize {
        self.checks.load(Ordering::Relaxed)
    }
}

impl<S: Debug, Sp: LocalSpec<S> + Specification<S>> LocalSpec<S> for Checked<Sp> {
    fn term(&self, v: VertexId, config: &Configuration<S>, graph: &Graph) -> LocalTerm {
        self.spec.term(v, config, graph)
    }

    fn verdicts(&self, count: usize, bad: usize) -> (bool, bool) {
        self.spec.verdicts(count, bad)
    }

    fn repair(
        &self,
        monitor: &mut LocalMonitor,
        config: &Configuration<S>,
        graph: &Graph,
    ) -> (bool, bool) {
        let verdicts = self.spec.repair(monitor, config, graph);
        let full = (self.spec.is_safe(config, graph), self.spec.is_legitimate(config, graph));
        assert_eq!(
            verdicts,
            full,
            "{}: incremental (safe, legitimate) differs from the full predicates on {:?}",
            self.label,
            config.states()
        );
        self.checks.fetch_add(1, Ordering::Relaxed);
        verdicts
    }
}

/// A small connected graph for the protocols that run anywhere.
fn any_graph(pick: u8, seed: u64) -> Graph {
    match pick % 4 {
        0 => generators::ring(7).unwrap(),
        1 => generators::torus(3, 3).unwrap(),
        2 => generators::random_tree(8, seed).unwrap(),
        _ => generators::grid(2, 4).unwrap(),
    }
}

const DAEMONS: [&str; 4] = ["sync", "central-rr", "central-rand", "dist:0.5"];

/// One scalar run of `harness` under `daemon`, measured through a checked
/// local monitor; its report must also equal a run measured with the full
/// `Specification` predicates.
fn check_scalar<H>(graph: &Graph, daemon: &str, seed: u64, early_stop: bool)
where
    H: ProtocolHarness,
    H::Spec: Specification<HarnessState<H>>,
    HarnessState<H>: Debug,
{
    let diam = DistanceMatrix::new(graph).diameter();
    let h = H::build(graph, diam).expect("compatible topology");
    let label = format!("{} on {} under {daemon}, seed {seed}", H::NAME, graph.name());
    let mut rng = StdRng::seed_from_u64(seed);
    let init = random_configuration(graph, h.protocol(), &mut rng);
    let sim = Simulator::new(graph, h.protocol());
    let checked = Checked::new(h.local_spec().clone(), label.clone());
    let mut local = MeasurementContext::local(checked.clone());
    let (safety, legitimacy) = (h.local_spec().clone(), h.local_spec().clone());
    let mut full = MeasurementContext::new(
        Box::new(move |c, g| safety.is_safe(c, g)),
        Box::new(move |c, g| legitimacy.is_legitimate(c, g)),
    );
    if early_stop {
        local = local.with_legitimacy_stop(2);
        full = full.with_legitimacy_stop(2);
    }
    let mut d = h.daemon(daemon, seed).expect("daemon resolves");
    let report = local.run(&sim, d.as_mut(), init.clone(), 400);
    assert_eq!(checked.checks(), report.steps_run + 1, "{label}: one check per configuration");
    let mut d = h.daemon(daemon, seed).expect("daemon resolves");
    let expected = full.run(&sim, d.as_mut(), init, 400);
    assert_eq!(report.steps_run, expected.steps_run, "{label}");
    assert_eq!(report.stop, expected.stop, "{label}");
    assert_eq!(report.last_violation, expected.last_violation, "{label}");
    assert_eq!(report.violation_count, expected.violation_count, "{label}");
    assert_eq!(report.first_legitimate, expected.first_legitimate, "{label}");
    assert_eq!(report.legitimacy_entry, expected.legitimacy_entry, "{label}");
    assert_eq!(report.ended_legitimate, expected.ended_legitimate, "{label}");
}

/// `lanes` replicas of a packed harness under `daemon` through
/// `run_batch`, every lane's monitor checked at every lane-step.
fn check_lanes<H>(graph: &Graph, daemon: BatchDaemon, lanes: usize, seed: u64)
where
    H: ProtocolHarness,
    H::Protocol: PackedProtocol,
    H::Spec: Specification<HarnessState<H>>,
    HarnessState<H>: Debug,
{
    let diam = DistanceMatrix::new(graph).diameter();
    let h = H::build(graph, diam).expect("compatible topology");
    let label = format!("{} on {} under {daemon:?} ×{lanes}, seed {seed}", H::NAME, graph.name());
    let inits: Vec<_> = (0..lanes)
        .map(|l| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x9E37 * l as u64 + 1));
            random_configuration(graph, h.protocol(), &mut rng)
        })
        .collect();
    let lane_seeds: Vec<u64> = (0..lanes as u64).map(|l| seed ^ (0x5EED * l + 3)).collect();
    let seeds: &[u64] = if daemon.needs_lane_seeds() { &lane_seeds } else { &[] };
    let checked = Checked::new(h.local_spec().clone(), label.clone());
    let measure = LaneMeasure { spec: &checked, early_stop: None };
    let results = run_batch(graph, h.protocol(), daemon, seeds, inits, 300, Some(measure));
    let configurations: usize = results.iter().map(|(r, _)| r.steps_run + 1).sum();
    assert_eq!(checked.checks(), configurations, "{label}: one check per lane configuration");
}

const BATCH_DAEMONS: [BatchDaemon; 4] = [
    BatchDaemon::Sync,
    BatchDaemon::CentralRr,
    BatchDaemon::CentralRand,
    BatchDaemon::RandomDistributed { p: 0.5 },
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ssme_monitor_equals_recompute(
        pick in 0u8..4,
        d in 0usize..5,
        seed in 0u64..10_000,
        early in any::<bool>(),
    ) {
        let daemon = if d == 4 { "adversary-central" } else { DAEMONS[d] };
        check_scalar::<SsmeHarness>(&any_graph(pick, seed), daemon, seed, early);
    }

    #[test]
    fn dijkstra_monitor_equals_recompute(
        n in 3usize..10,
        d in 0usize..4,
        seed in 0u64..10_000,
        early in any::<bool>(),
    ) {
        check_scalar::<DijkstraHarness>(&generators::ring(n).unwrap(), DAEMONS[d], seed, early);
    }

    #[test]
    fn dijkstra3_monitor_equals_recompute(
        n in 3usize..10,
        d in 0usize..4,
        seed in 0u64..10_000,
        early in any::<bool>(),
    ) {
        check_scalar::<Dijkstra3Harness>(&generators::ring(n).unwrap(), DAEMONS[d], seed, early);
    }

    #[test]
    fn dijkstra4_monitor_equals_recompute(
        n in 2usize..10,
        d in 0usize..4,
        seed in 0u64..10_000,
        early in any::<bool>(),
    ) {
        check_scalar::<Dijkstra4Harness>(&generators::path(n).unwrap(), DAEMONS[d], seed, early);
    }

    #[test]
    fn bfs_monitor_equals_recompute(
        pick in 0u8..4,
        d in 0usize..4,
        seed in 0u64..10_000,
        early in any::<bool>(),
    ) {
        check_scalar::<BfsHarness>(&any_graph(pick, seed), DAEMONS[d], seed, early);
    }

    #[test]
    fn matching_monitor_equals_recompute(
        pick in 0u8..4,
        d in 0usize..4,
        seed in 0u64..10_000,
        early in any::<bool>(),
    ) {
        check_scalar::<MatchingHarness>(&any_graph(pick, seed), DAEMONS[d], seed, early);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn ssme_lane_monitors_equal_recompute(
        pick in 0u8..4,
        d in 0usize..4,
        k in 1usize..70,
        seed in 0u64..10_000,
    ) {
        check_lanes::<SsmeHarness>(&any_graph(pick, seed), BATCH_DAEMONS[d], k, seed);
    }

    #[test]
    fn dijkstra_lane_monitors_equal_recompute(
        n in 3usize..10,
        d in 0usize..4,
        k in 1usize..70,
        seed in 0u64..10_000,
    ) {
        check_lanes::<DijkstraHarness>(&generators::ring(n).unwrap(), BATCH_DAEMONS[d], k, seed);
    }

    #[test]
    fn dijkstra3_lane_monitors_equal_recompute(
        n in 3usize..10,
        d in 0usize..4,
        k in 1usize..70,
        seed in 0u64..10_000,
    ) {
        check_lanes::<Dijkstra3Harness>(&generators::ring(n).unwrap(), BATCH_DAEMONS[d], k, seed);
    }

    #[test]
    fn dijkstra4_lane_monitors_equal_recompute(
        n in 2usize..10,
        d in 0usize..4,
        k in 1usize..70,
        seed in 0u64..10_000,
    ) {
        check_lanes::<Dijkstra4Harness>(&generators::path(n).unwrap(), BATCH_DAEMONS[d], k, seed);
    }
}
