//! Dijkstra's three-state self-stabilizing mutual exclusion (the third
//! solution of the 1974 note).
//!
//! Machines `0 .. n-1` form a ring; machine `0` is the *bottom* and machine
//! `n-1` the *top* (bottom and top are adjacent through the ring closure).
//! Each machine holds `S ∈ {0, 1, 2}`; writing `L`/`R` for the
//! lower/higher-index neighbor (with the top's `R` being the bottom):
//!
//! ```text
//! bottom :: (S+1) mod 3 = R            → S := (S+2) mod 3
//! top    :: L = R ∧ (L+1) mod 3 ≠ S    → S := (L+1) mod 3
//! normal :: (S+1) mod 3 = L            → S := L
//! normal :: (S+1) mod 3 = R            → S := R
//! ```
//!
//! A machine is *privileged* when at least one guard holds; legitimate
//! configurations carry exactly one privilege. A normal machine can hold
//! both of its guards at once (two privileges in Dijkstra's counting); this
//! implementation arbitrates deterministically in favor of the left-hand
//! rule — a restriction of the daemon's nondeterminism, which preserves
//! self-stabilization (validated *exhaustively* in the tests: every
//! configuration, every central/distributed daemon choice).

use rand::rngs::StdRng;
use rand::Rng;
use specstab_kernel::batch::PackedProtocol;
use specstab_kernel::config::Configuration;
use specstab_kernel::protocol::{Protocol, RuleId, RuleInfo, View};
use specstab_kernel::spec::Specification;
use specstab_topology::{Graph, VertexId};
use std::error::Error;
use std::fmt;

/// Rule indices.
pub mod rules {
    use specstab_kernel::protocol::RuleId;

    /// Bottom machine's decrement.
    pub const BOTTOM: RuleId = RuleId::new(0);
    /// Top machine's catch-up.
    pub const TOP: RuleId = RuleId::new(1);
    /// Normal machine adopting from the left.
    pub const FROM_LEFT: RuleId = RuleId::new(2);
    /// Normal machine adopting from the right.
    pub const FROM_RIGHT: RuleId = RuleId::new(3);
}

/// Errors building a [`DijkstraThreeState`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum ThreeStateError {
    /// The communication graph is not a standard ring with `n >= 3`.
    NotARing,
}

impl fmt::Display for ThreeStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dijkstra's three-state protocol requires a ring of n >= 3 machines")
    }
}

impl Error for ThreeStateError {}

/// Dijkstra's three-state protocol instance.
#[derive(Clone, Debug)]
pub struct DijkstraThreeState {
    n: usize,
}

impl DijkstraThreeState {
    /// Creates the protocol for a ring graph (`ring(n)`, `n >= 3`).
    ///
    /// # Errors
    ///
    /// [`ThreeStateError::NotARing`] otherwise.
    pub fn new(graph: &Graph) -> Result<Self, ThreeStateError> {
        let n = graph.n();
        if n < 3 || graph.m() != n {
            return Err(ThreeStateError::NotARing);
        }
        for i in 0..n {
            if !graph.contains_edge(VertexId::new(i), VertexId::new((i + 1) % n)) {
                return Err(ThreeStateError::NotARing);
            }
        }
        Ok(Self { n })
    }

    /// Number of machines.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    fn left(&self, i: usize) -> VertexId {
        VertexId::new((i + self.n - 1) % self.n)
    }

    fn right(&self, i: usize) -> VertexId {
        VertexId::new((i + 1) % self.n)
    }

    /// The guards enabled at `v` (0, 1 or 2 of them — Dijkstra's
    /// "privileges").
    #[must_use]
    pub fn privileges(&self, v: VertexId, config: &Configuration<u8>) -> Vec<RuleId> {
        let i = v.index();
        let s = *config.get(v);
        let mut out = Vec::new();
        if i == 0 {
            let r = *config.get(self.right(i));
            if (s + 1) % 3 == r {
                out.push(rules::BOTTOM);
            }
        } else if i == self.n - 1 {
            let l = *config.get(self.left(i));
            let r = *config.get(self.right(i)); // the bottom machine
            if l == r && (l + 1) % 3 != s {
                out.push(rules::TOP);
            }
        } else {
            let l = *config.get(self.left(i));
            let r = *config.get(self.right(i));
            if (s + 1) % 3 == l {
                out.push(rules::FROM_LEFT);
            }
            if (s + 1) % 3 == r {
                out.push(rules::FROM_RIGHT);
            }
        }
        out
    }

    /// Total privilege count of the configuration.
    #[must_use]
    pub fn privilege_count(&self, config: &Configuration<u8>) -> usize {
        (0..self.n).map(|i| self.privileges(VertexId::new(i), config).len()).sum()
    }
}

impl Protocol for DijkstraThreeState {
    type State = u8;

    fn name(&self) -> String {
        format!("dijkstra-3state[n={}]", self.n)
    }

    fn rules(&self) -> Vec<RuleInfo> {
        vec![
            RuleInfo::new("BOTTOM"),
            RuleInfo::new("TOP"),
            RuleInfo::new("FROM_LEFT"),
            RuleInfo::new("FROM_RIGHT"),
        ]
    }

    fn enabled_rule(&self, view: &View<'_, u8>) -> Option<RuleId> {
        let v = view.vertex();
        let i = v.index();
        let s = *view.state();
        if i == 0 {
            let r = *view.state_of(self.right(i));
            ((s + 1) % 3 == r).then_some(rules::BOTTOM)
        } else if i == self.n - 1 {
            let l = *view.state_of(self.left(i));
            let r = *view.state_of(self.right(i));
            (l == r && (l + 1) % 3 != s).then_some(rules::TOP)
        } else {
            let l = *view.state_of(self.left(i));
            let r = *view.state_of(self.right(i));
            if (s + 1) % 3 == l {
                Some(rules::FROM_LEFT)
            } else if (s + 1) % 3 == r {
                Some(rules::FROM_RIGHT)
            } else {
                None
            }
        }
    }

    fn apply(&self, view: &View<'_, u8>, rule: RuleId) -> u8 {
        let i = view.vertex().index();
        let s = *view.state();
        match rule {
            rules::BOTTOM => (s + 2) % 3,
            rules::TOP => (*view.state_of(self.left(i)) + 1) % 3,
            rules::FROM_LEFT => *view.state_of(self.left(i)),
            rules::FROM_RIGHT => *view.state_of(self.right(i)),
            other => panic!("three-state protocol has no rule {other}"),
        }
    }

    fn random_state(&self, _v: VertexId, rng: &mut StdRng) -> u8 {
        rng.gen_range(0..3)
    }

    fn state_domain(&self, _v: VertexId) -> Option<Vec<u8>> {
        Some(vec![0, 1, 2])
    }
}

/// Lane-packed three-state stepping: `S ∈ {0, 1, 2}` packs into `u8`
/// lanes untouched (64 replicas per cache line). The `mod 3` arithmetic
/// is branch-free selects on the two-bit domain (`(s+1) mod 3` is
/// `s == 2 ? 0 : s+1`), and the left-rule preference of the scalar
/// arbitration is one select per lane, so the bottom/top/normal row
/// loops all autovectorize over the lane axis.
impl PackedProtocol for DijkstraThreeState {
    type Lane = u8;
    type LaneScratch = ();

    fn pack(&self, state: &u8) -> u8 {
        *state
    }

    fn unpack(&self, lane: u8) -> u8 {
        lane
    }

    fn step_lanes(
        &self,
        graph: &Graph,
        lanes: usize,
        soa: &[u8],
        next: &mut [u8],
        fired: &mut [bool],
        scratch: &mut (),
    ) {
        for v in 0..self.n {
            self.eval_vertex_lanes(graph, v, lanes, soa, next, fired, scratch);
        }
    }

    fn eval_vertex_lanes(
        &self,
        _graph: &Graph,
        v: usize,
        lanes: usize,
        soa: &[u8],
        next: &mut [u8],
        fired: &mut [bool],
        _scratch: &mut (),
    ) {
        let n = self.n;
        let inc3 = |s: u8| if s == 2 { 0 } else { s + 1 };
        let dec3 = |s: u8| if s == 0 { 2 } else { s - 1 };
        let li = (v + n - 1) % n;
        let ri = (v + 1) % n;
        let base = v * lanes;
        let rv = &soa[base..base + lanes];
        let row_l = &soa[li * lanes..li * lanes + lanes];
        let row_r = &soa[ri * lanes..ri * lanes + lanes];
        let fired_row = &mut fired[base..base + lanes];
        let next_row = &mut next[base..base + lanes];
        // Zip iteration keeps the lane loops free of per-element
        // bounds checks (a runtime `lanes` blocks their elision under
        // indexing), which is what lets the byte ops autovectorize.
        if v == 0 {
            // bottom :: (S+1) mod 3 = R → S := (S+2) mod 3
            for (((f, nx), &s), &r) in
                fired_row.iter_mut().zip(next_row.iter_mut()).zip(rv).zip(row_r)
            {
                *f = inc3(s) == r;
                *nx = dec3(s);
            }
        } else if v == n - 1 {
            // top :: L = R ∧ (L+1) mod 3 ≠ S → S := (L+1) mod 3
            for ((((f, nx), &s), &lv), &r) in
                fired_row.iter_mut().zip(next_row.iter_mut()).zip(rv).zip(row_l).zip(row_r)
            {
                let want = inc3(lv);
                *f = lv == r && want != s;
                *nx = want;
            }
        } else {
            // normal: FROM_LEFT wins over FROM_RIGHT, like the scalar
            // arbitration.
            for ((((f, nx), &s), &lv), &r) in
                fired_row.iter_mut().zip(next_row.iter_mut()).zip(rv).zip(row_l).zip(row_r)
            {
                let s1 = inc3(s);
                let from_left = s1 == lv;
                let from_right = s1 == r;
                *f = from_left | from_right;
                *nx = if from_left { lv } else { r };
            }
        }
    }
}

/// `specME` for the three-state ring: safety = at most one privilege,
/// legitimacy = exactly one.
#[derive(Clone, Debug)]
pub struct ThreeStateSpec {
    protocol: DijkstraThreeState,
}

impl ThreeStateSpec {
    /// Creates the specification.
    #[must_use]
    pub fn new(protocol: DijkstraThreeState) -> Self {
        Self { protocol }
    }
}

impl Specification<u8> for ThreeStateSpec {
    fn name(&self) -> String {
        "specME(dijkstra-3state)".into()
    }
    fn is_safe(&self, config: &Configuration<u8>, _graph: &Graph) -> bool {
        self.protocol.privilege_count(config) <= 1
    }
    fn is_legitimate(&self, config: &Configuration<u8>, _graph: &Graph) -> bool {
        self.protocol.privilege_count(config) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use specstab_kernel::daemon::{CentralDaemon, CentralStrategy};
    use specstab_kernel::engine::Simulator;
    use specstab_kernel::measure::measure_with_early_stop;
    use specstab_kernel::protocol::random_configuration;
    use specstab_kernel::search::{
        build_config_graph, enumerate_all_configurations, worst_steps_to, SearchDaemon,
    };
    use specstab_topology::generators;

    fn ring(n: usize) -> (Graph, DijkstraThreeState) {
        let g = generators::ring(n).unwrap();
        let p = DijkstraThreeState::new(&g).unwrap();
        (g, p)
    }

    #[test]
    fn rejects_non_rings() {
        let path = generators::path(5).unwrap();
        assert!(DijkstraThreeState::new(&path).is_err());
        let star = generators::star(4).unwrap();
        assert!(DijkstraThreeState::new(&star).is_err());
    }

    #[test]
    fn exact_self_stabilization_under_central_daemon() {
        // Exhaustive: every configuration (3^n), every central-daemon
        // choice — convergence to exactly one privilege, no divergence.
        // This is the correctness oracle for the transcribed rules.
        for n in [3usize, 4, 5, 6, 7] {
            let (g, p) = ring(n);
            let spec = ThreeStateSpec::new(p.clone());
            let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
            let cg = build_config_graph(&g, &p, &all, SearchDaemon::Central, 2_000_000).unwrap();
            let worst = worst_steps_to(&cg, |c| spec.is_legitimate(c, &g));
            assert!(worst.is_ok(), "n={n}: {:?}", worst.err());
        }
    }

    #[test]
    fn exact_self_stabilization_under_distributed_daemon() {
        let (g, p) = ring(5);
        let spec = ThreeStateSpec::new(p.clone());
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        let cg = build_config_graph(
            &g,
            &p,
            &all,
            SearchDaemon::Distributed { max_enabled: 5 },
            5_000_000,
        )
        .unwrap();
        assert!(worst_steps_to(&cg, |c| spec.is_legitimate(c, &g)).is_ok());
    }

    #[test]
    fn legitimacy_is_closed_exhaustively() {
        let (g, p) = ring(6);
        let spec = ThreeStateSpec::new(p.clone());
        let sim = Simulator::new(&g, &p);
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        for c in &all {
            if !spec.is_legitimate(c, &g) {
                continue;
            }
            for &v in &sim.enabled_vertices(c) {
                let (next, _) = sim.apply_action(c, &[v]);
                assert!(
                    spec.is_legitimate(&next, &g),
                    "closure broken from {:?} via {v}",
                    c.states()
                );
            }
        }
    }

    #[test]
    fn no_terminal_configurations_exist() {
        // The token never disappears: some machine is always privileged.
        let (g, p) = ring(6);
        let sim = Simulator::new(&g, &p);
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        for c in &all {
            assert!(!sim.enabled_vertices(c).is_empty(), "deadlock at {:?}", c.states());
        }
    }

    #[test]
    fn converges_from_random_configurations() {
        let (g, p) = ring(9);
        let spec = ThreeStateSpec::new(p.clone());
        for seed in 0..10 {
            let mut rng = StdRng::seed_from_u64(seed);
            let init = random_configuration(&g, &p, &mut rng);
            let mut d = CentralDaemon::new(CentralStrategy::Random(seed));
            let (s, l, st) = (spec.clone(), spec.clone(), spec.clone());
            let r = measure_with_early_stop(
                &g,
                &p,
                &mut d,
                init,
                Box::new(move |c, g| s.is_safe(c, g)),
                Box::new(move |c, g| l.is_legitimate(c, g)),
                Box::new(move |c, g| st.is_legitimate(c, g)),
                1_000_000,
                5,
            );
            assert!(r.ended_legitimate, "seed {seed}");
        }
    }

    #[test]
    fn token_visits_both_special_machines() {
        let (g, p) = ring(5);
        let sim = Simulator::new(&g, &p);
        let mut config = Configuration::new(vec![0u8; 5]);
        let (mut bottom_count, mut top_count) = (0, 0);
        for _ in 0..60 {
            let enabled = sim.enabled_vertices(&config);
            assert!(!enabled.is_empty());
            if enabled.contains(&VertexId::new(0)) {
                bottom_count += 1;
            }
            if enabled.contains(&VertexId::new(4)) {
                top_count += 1;
            }
            config = sim.apply_action(&config, &enabled[..1]).0;
        }
        assert!(bottom_count > 0 && top_count > 0, "token must visit both ends");
    }

    #[test]
    fn packed_runs_match_scalar_lane_for_lane_under_both_daemons() {
        use specstab_kernel::batch::{run_batch, BatchDaemon};
        use specstab_kernel::daemon::SynchronousDaemon;
        use specstab_kernel::engine::RunLimits;
        let (g, p) = ring(8);
        let inits: Vec<_> = (0..9)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(5_000 + s);
                random_configuration(&g, &p, &mut rng)
            })
            .collect();
        for daemon in [BatchDaemon::Sync, BatchDaemon::CentralRr] {
            let lanes = run_batch(&g, &p, daemon, &[], inits.clone(), 400, None);
            for ((lane, final_config), init) in lanes.iter().zip(&inits) {
                let sim = Simulator::new(&g, &p);
                let limits = RunLimits::with_max_steps(400);
                let scalar = if daemon == BatchDaemon::Sync {
                    let mut d = SynchronousDaemon::new();
                    sim.run(init.clone(), &mut d, limits, &mut [])
                } else {
                    let mut d = CentralDaemon::new(CentralStrategy::RoundRobin);
                    sim.run(init.clone(), &mut d, limits, &mut [])
                };
                assert_eq!(lane.steps_run, scalar.steps);
                assert_eq!(lane.moves, scalar.moves);
                assert_eq!(lane.stop, scalar.stop);
                assert_eq!(final_config, &scalar.final_config);
            }
        }
    }

    #[test]
    fn normal_machine_can_hold_two_privileges() {
        let (_, p) = ring(4);
        // S = [2, 1, 2, ...]: machine 1 sees L = 2 and R = 2 with
        // (S+1) mod 3 = 2: both guards hold.
        let c = Configuration::new(vec![2u8, 1, 2, 0]);
        assert_eq!(p.privileges(VertexId::new(1), &c).len(), 2);
    }
}
