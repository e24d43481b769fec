//! Property tests for the harness legitimate-configuration constructors:
//! for every registered protocol, on every compatible sampled topology,
//! the constructed configuration satisfies the legitimacy predicate and
//! the legitimate set is closed under one step for **every** daemon
//! choice (all nonempty activation subsets — exhaustively enumerated by
//! `ProtocolHarness::closure_self_check` when the enabled set is small,
//! singletons + the synchronous step otherwise). The safety and legitimacy
//! predicates the harness derives from its local terms must also agree
//! with its `Specification` on sampled configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use specstab_kernel::fault::inject_faults_in_place;
use specstab_kernel::harness::{HarnessState, ProtocolHarness};
use specstab_kernel::protocol::random_configuration;
use specstab_kernel::spec::Specification;
use specstab_protocols::harness::{
    BfsHarness, Dijkstra3Harness, Dijkstra4Harness, DijkstraHarness, MatchingHarness, SsmeHarness,
};
use specstab_topology::metrics::DistanceMatrix;
use specstab_topology::{generators, Graph};

/// Samples a connected general-topology graph (for protocols that run
/// anywhere).
fn any_graph(pick: u8, n: usize, seed: u64) -> Graph {
    match pick {
        0 => generators::ring(n.max(3)).unwrap(),
        1 => generators::path(n.max(2)).unwrap(),
        2 => generators::random_tree(n.max(2), seed).unwrap(),
        3 => generators::grid(2, n.max(2).div_ceil(2)).unwrap(),
        _ => generators::complete(n.clamp(2, 7)).unwrap(),
    }
}

/// Builds the harness and runs the full legitimacy + closure contract,
/// after checking that the predicates derived from the harness's local
/// terms agree with its `Specification` on random configurations and on
/// one- and two-fault bursts into the legitimate one.
fn check<H>(g: &Graph, seed: u64)
where
    H: ProtocolHarness,
    H::Spec: Specification<HarnessState<H>>,
{
    let diam = DistanceMatrix::new(g).diameter();
    let h = H::build(g, diam).expect("topology must be compatible in this test");
    let mut rng = StdRng::seed_from_u64(seed);
    let legit = h.legitimacy_predicate();
    let safe = h.safety_predicate();
    let c = h.legitimate_configuration(g, &mut rng).expect("constructor succeeds");
    assert!(legit(&c, g), "{}: constructed configuration must be legitimate", H::NAME);
    assert!(safe(&c, g), "{}: legitimacy must imply safety", H::NAME);
    let spec = h.local_spec();
    for sample in 0..16 {
        let mut sampled = c.clone();
        match sample % 3 {
            0 => sampled = random_configuration(g, h.protocol(), &mut rng),
            faults => {
                inject_faults_in_place(&mut sampled, g, h.protocol(), faults, &mut rng);
            }
        }
        assert_eq!(
            (safe(&sampled, g), legit(&sampled, g)),
            (spec.is_safe(&sampled, g), spec.is_legitimate(&sampled, g)),
            "{}: derived predicates differ from the specification (seed {seed}, sample {sample})",
            H::NAME
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    h.closure_self_check(g, &mut rng, 3)
        .unwrap_or_else(|e| panic!("{}: closure self-check failed: {e}", H::NAME));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ssme_legitimate_set_is_closed(pick in 0u8..5, n in 3usize..12, seed in any::<u64>()) {
        check::<SsmeHarness>(&any_graph(pick, n, seed), seed);
    }

    #[test]
    fn dijkstra_legitimate_set_is_closed(n in 3usize..12, seed in any::<u64>()) {
        check::<DijkstraHarness>(&generators::ring(n).unwrap(), seed);
    }

    #[test]
    fn dijkstra3_legitimate_set_is_closed(n in 3usize..12, seed in any::<u64>()) {
        check::<Dijkstra3Harness>(&generators::ring(n).unwrap(), seed);
    }

    #[test]
    fn dijkstra4_legitimate_set_is_closed(n in 2usize..12, seed in any::<u64>()) {
        check::<Dijkstra4Harness>(&generators::path(n).unwrap(), seed);
    }

    #[test]
    fn bfs_legitimate_set_is_closed(pick in 0u8..5, n in 2usize..12, seed in any::<u64>()) {
        check::<BfsHarness>(&any_graph(pick, n, seed), seed);
    }

    #[test]
    fn matching_legitimate_set_is_closed(pick in 0u8..5, n in 2usize..12, seed in any::<u64>()) {
        check::<MatchingHarness>(&any_graph(pick, n, seed), seed);
    }
}
