//! Differential suite for the lane-packed unison: batched K-replica runs
//! must equal K independent scalar engine runs — steps, moves, stop
//! reason, final configuration, and (measured) the full per-lane
//! `StabilizationReport` against a scalar `MeasurementContext` with the
//! `specAU` predicates — across topologies × clocks × seeds ×
//! K ∈ {1, 3, 64, 100}.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::batch::{run_batch, BatchDaemon, LaneMeasure};
use specstab_kernel::config::Configuration;
use specstab_kernel::daemon::SynchronousDaemon;
use specstab_kernel::engine::{RunLimits, Simulator};
use specstab_kernel::measure::MeasurementContext;
use specstab_kernel::observer::ConfigPredicate;
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::spec::Specification;
use specstab_topology::{generators, Graph};
use specstab_unison::clock::{CherryClock, ClockValue};
use specstab_unison::protocol::AsyncUnison;
use specstab_unison::spec::SpecAu;

fn graph_for(case: u8) -> Graph {
    match case % 4 {
        0 => generators::ring(8).unwrap(),
        1 => generators::torus(3, 4).unwrap(),
        2 => generators::path(6).unwrap(),
        _ => generators::star(7).unwrap(),
    }
}

fn random_inits(
    graph: &Graph,
    unison: &AsyncUnison,
    k: usize,
    seed: u64,
) -> Vec<Configuration<ClockValue>> {
    (0..k)
        .map(|l| {
            let mut rng = StdRng::seed_from_u64(seed ^ (0x51DE * l as u64 + 1));
            random_configuration(graph, unison, &mut rng)
        })
        .collect()
}

fn safety_of(spec: SpecAu) -> ConfigPredicate<ClockValue> {
    Box::new(move |c, g| spec.is_safe(c, g))
}

fn legitimacy_of(spec: SpecAu) -> ConfigPredicate<ClockValue> {
    Box::new(move |c, g| spec.is_legitimate(c, g))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Plain batched unison equals K independent scalar runs.
    #[test]
    fn packed_unison_equals_scalar_runs(
        case in 0u8..4,
        alpha in 2i64..9,
        k_extra in 2i64..20,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
    ) {
        let k_lanes = [1, 3, 64, 100][k_pick];
        let graph = graph_for(case);
        let clock = CherryClock::new(alpha, alpha + k_extra).unwrap();
        let unison = AsyncUnison::new(clock);
        let inits = random_inits(&graph, &unison, k_lanes, seed);
        let lanes = run_batch(&graph, &unison, BatchDaemon::Sync, &[], inits.clone(), 400, None);
        for ((lane, final_config), init) in lanes.iter().zip(&inits) {
            let mut daemon = SynchronousDaemon::new();
            let sim = Simulator::new(&graph, &unison);
            let scalar =
                sim.run(init.clone(), &mut daemon, RunLimits::with_max_steps(400), &mut []);
            prop_assert_eq!(lane.steps_run, scalar.steps);
            prop_assert_eq!(lane.moves, scalar.moves);
            prop_assert_eq!(lane.stop, scalar.stop);
            prop_assert_eq!(final_config, &scalar.final_config);
        }
    }

    /// Measured batched unison replicates the scalar measurement stack
    /// under the `specAU` predicates with early stop — the exact stack the
    /// campaign executor runs per cell.
    #[test]
    fn packed_unison_measured_equals_scalar_measurement(
        case in 0u8..4,
        alpha in 2i64..9,
        k_extra in 2i64..20,
        seed in 0u64..1_000,
        k_pick in 0usize..4,
    ) {
        let k_lanes = [1, 3, 64, 100][k_pick];
        let graph = graph_for(case);
        let clock = CherryClock::new(alpha, alpha + k_extra).unwrap();
        let unison = AsyncUnison::new(clock);
        let spec = SpecAu::new(clock);
        let inits = random_inits(&graph, &unison, k_lanes, seed);
        let measure = LaneMeasure {
            safety: safety_of(spec),
            legitimacy: legitimacy_of(spec),
            early_stop: Some(3),
        };
        let measured = run_batch(
            &graph,
            &unison,
            BatchDaemon::Sync,
            &[],
            inits.clone(),
            400,
            Some(measure),
        );
        for ((report, _), init) in measured.iter().zip(&inits) {
            let sim = Simulator::new(&graph, &unison);
            let scalar = MeasurementContext::new(safety_of(spec), legitimacy_of(spec))
                .with_early_stop(legitimacy_of(spec), 3)
                .run(&sim, &mut SynchronousDaemon::new(), init.clone(), 400);
            prop_assert_eq!(report.steps_run, scalar.steps_run);
            prop_assert_eq!(report.moves, scalar.moves);
            prop_assert_eq!(report.stop, scalar.stop);
            prop_assert_eq!(report.last_violation, scalar.last_violation);
            prop_assert_eq!(report.violation_count, scalar.violation_count);
            prop_assert_eq!(report.stabilization_steps, scalar.stabilization_steps);
            prop_assert_eq!(report.first_legitimate, scalar.first_legitimate);
            prop_assert_eq!(report.legitimacy_entry, scalar.legitimacy_entry);
            prop_assert_eq!(report.ended_legitimate, scalar.ended_legitimate);
        }
    }
}
