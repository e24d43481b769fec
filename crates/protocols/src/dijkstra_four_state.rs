//! Dijkstra's four-state self-stabilizing mutual exclusion on a line (the
//! second solution of the 1974 note).
//!
//! Machines `0 .. n-1` form a bidirectional line. Each machine holds a
//! boolean pair `(x, up)`; the bottom machine's `up` is frozen to `true`
//! and the top machine's to `false` (so they effectively use two states —
//! hence "four-state" for the normal machines):
//!
//! ```text
//! bottom :: x = x_R ∧ ¬up_R          → x := ¬x
//! top    :: x ≠ x_L                  → x := ¬x
//! normal :: x ≠ x_L                  → x := ¬x ; up := true
//! normal :: x = x_R ∧ up ∧ ¬up_R    → up := false
//! ```
//!
//! Like the three-state solution, a normal machine may hold both guards at
//! once; this implementation prefers the first rule and exhaustively
//! verifies that self-stabilization survives the arbitration.

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

    /// Bottom machine's toggle.
    pub const BOTTOM: RuleId = RuleId::new(0);
    /// Top machine's toggle.
    pub const TOP: RuleId = RuleId::new(1);
    /// Normal machine's downward-token rule (`x ≠ x_L`).
    pub const FLIP: RuleId = RuleId::new(2);
    /// Normal machine's upward-token rule (`up := false`).
    pub const LOWER: RuleId = RuleId::new(3);
}

/// Per-machine state: the `(x, up)` boolean pair.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct FourState {
    /// The `x` bit.
    pub x: bool,
    /// The `up` bit (frozen for bottom/top).
    pub up: bool,
}

impl fmt::Display for FourState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", u8::from(self.x), if self.up { "↑" } else { "↓" })
    }
}

/// Errors building a [`DijkstraFourState`].
#[derive(Clone, PartialEq, Eq, Debug)]
#[non_exhaustive]
pub enum FourStateError {
    /// The communication graph is not a line (path) with `n >= 2`.
    NotALine,
}

impl fmt::Display for FourStateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Dijkstra's four-state protocol requires a line of n >= 2 machines")
    }
}

impl Error for FourStateError {}

/// Dijkstra's four-state protocol instance.
#[derive(Clone, Debug)]
pub struct DijkstraFourState {
    n: usize,
}

impl DijkstraFourState {
    /// Creates the protocol for a line graph (`path(n)`, `n >= 2`).
    ///
    /// # Errors
    ///
    /// [`FourStateError::NotALine`] otherwise.
    pub fn new(graph: &Graph) -> Result<Self, FourStateError> {
        let n = graph.n();
        if n < 2 || graph.m() != n - 1 {
            return Err(FourStateError::NotALine);
        }
        for i in 0..n - 1 {
            if !graph.contains_edge(VertexId::new(i), VertexId::new(i + 1)) {
                return Err(FourStateError::NotALine);
            }
        }
        Ok(Self { n })
    }

    /// Number of machines.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Normalizes a state for machine `i` (freezes the special machines'
    /// `up` bit).
    #[must_use]
    pub fn canonical(&self, i: usize, mut s: FourState) -> FourState {
        if i == 0 {
            s.up = true;
        } else if i == self.n - 1 {
            s.up = false;
        }
        s
    }

    /// The guards enabled at `v` (Dijkstra's "privileges").
    #[must_use]
    pub fn privileges(&self, v: VertexId, config: &Configuration<FourState>) -> Vec<RuleId> {
        let i = v.index();
        let s = self.canonical(i, *config.get(v));
        let mut out = Vec::new();
        if i == 0 {
            let r = self.canonical(1, *config.get(VertexId::new(1)));
            if s.x == r.x && !r.up {
                out.push(rules::BOTTOM);
            }
        } else if i == self.n - 1 {
            let l = self.canonical(i - 1, *config.get(VertexId::new(i - 1)));
            if s.x != l.x {
                out.push(rules::TOP);
            }
        } else {
            let l = self.canonical(i - 1, *config.get(VertexId::new(i - 1)));
            let r = self.canonical(i + 1, *config.get(VertexId::new(i + 1)));
            if s.x != l.x {
                out.push(rules::FLIP);
            }
            if s.x == r.x && s.up && !r.up {
                out.push(rules::LOWER);
            }
        }
        out
    }

    /// Total privilege count of the configuration.
    #[must_use]
    pub fn privilege_count(&self, config: &Configuration<FourState>) -> usize {
        (0..self.n).map(|i| self.privileges(VertexId::new(i), config).len()).sum()
    }
}

impl Protocol for DijkstraFourState {
    type State = FourState;

    fn name(&self) -> String {
        format!("dijkstra-4state[n={}]", self.n)
    }

    fn rules(&self) -> Vec<RuleInfo> {
        vec![
            RuleInfo::new("BOTTOM"),
            RuleInfo::new("TOP"),
            RuleInfo::new("FLIP"),
            RuleInfo::new("LOWER"),
        ]
    }

    fn enabled_rule(&self, view: &View<'_, FourState>) -> Option<RuleId> {
        let i = view.vertex().index();
        let s = self.canonical(i, *view.state());
        if i == 0 {
            let r = self.canonical(1, *view.state_of(VertexId::new(1)));
            (s.x == r.x && !r.up).then_some(rules::BOTTOM)
        } else if i == self.n - 1 {
            let l = self.canonical(i - 1, *view.state_of(VertexId::new(i - 1)));
            (s.x != l.x).then_some(rules::TOP)
        } else {
            let l = self.canonical(i - 1, *view.state_of(VertexId::new(i - 1)));
            let r = self.canonical(i + 1, *view.state_of(VertexId::new(i + 1)));
            if s.x != l.x {
                Some(rules::FLIP)
            } else if s.x == r.x && s.up && !r.up {
                Some(rules::LOWER)
            } else {
                None
            }
        }
    }

    fn apply(&self, view: &View<'_, FourState>, rule: RuleId) -> FourState {
        let i = view.vertex().index();
        let mut s = self.canonical(i, *view.state());
        match rule {
            rules::BOTTOM | rules::TOP => s.x = !s.x,
            rules::FLIP => {
                s.x = !s.x;
                s.up = true;
            }
            rules::LOWER => s.up = false,
            other => panic!("four-state protocol has no rule {other}"),
        }
        self.canonical(i, s)
    }

    fn random_state(&self, v: VertexId, rng: &mut StdRng) -> FourState {
        self.canonical(v.index(), FourState { x: rng.gen_bool(0.5), up: rng.gen_bool(0.5) })
    }

    fn state_domain(&self, v: VertexId) -> Option<Vec<FourState>> {
        let i = v.index();
        let mut out = Vec::new();
        for x in [false, true] {
            for up in [false, true] {
                let s = self.canonical(i, FourState { x, up });
                if !out.contains(&s) {
                    out.push(s);
                }
            }
        }
        Some(out)
    }
}

/// Lane-packed four-state stepping: the `(x, up)` pair bit-packs into a
/// `u8` lane (bit 0 = `x`, bit 1 = `up`), 64 replicas per cache line.
/// Pack/unpack preserve the raw bits; the freezing of the special
/// machines' `up` bit happens on *read* inside the step (exactly like
/// the scalar [`DijkstraFourState::canonical`]-on-read semantics), so a
/// never-moving machine keeps its original possibly-non-canonical state
/// in the final configuration — bit-for-bit what the scalar engine does.
/// All three row loops are branchless bit ops over the lane axis.
impl PackedProtocol for DijkstraFourState {
    type Lane = u8;
    type LaneScratch = ();

    fn pack(&self, state: &FourState) -> u8 {
        u8::from(state.x) | (u8::from(state.up) << 1)
    }

    fn unpack(&self, lane: u8) -> FourState {
        FourState { x: lane & 1 != 0, up: lane & 2 != 0 }
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
        // canonical(i, s) as an (or, and) bit-mask pair: bottom forces
        // `up` set, top forces it clear, interior is the identity.
        let canon = |i: usize| -> (u8, u8) {
            if i == 0 {
                (0b10, 0b11)
            } else if i == n - 1 {
                (0b00, 0b01)
            } else {
                (0b00, 0b11)
            }
        };
        let base = v * lanes;
        let rv = &soa[base..base + lanes];
        let fired_row = &mut fired[base..base + lanes];
        let next_row = &mut next[base..base + lanes];
        // Zip iteration instead of indexing: a runtime `lanes` keeps
        // per-element bounds checks alive under indexed access, which
        // blocks autovectorization of the bit ops.
        if v == 0 {
            // bottom :: x = x_R ∧ ¬up_R → x := ¬x (up stays frozen true)
            let (ro, ra) = canon(1);
            let row_r = &soa[lanes..2 * lanes];
            for (((f, nx), &s), &rr) in
                fired_row.iter_mut().zip(next_row.iter_mut()).zip(rv).zip(row_r)
            {
                let r = (rr | ro) & ra;
                *f = (s ^ r) & 1 == 0 && r & 2 == 0;
                *nx = ((s & 1) ^ 1) | 0b10;
            }
        } else if v == n - 1 {
            // top :: x ≠ x_L → x := ¬x (up stays frozen false)
            let row_l = &soa[(v - 1) * lanes..v * lanes];
            for (((f, nx), &s), &lv) in
                fired_row.iter_mut().zip(next_row.iter_mut()).zip(rv).zip(row_l)
            {
                *f = (s ^ lv) & 1 != 0;
                *nx = (s & 1) ^ 1;
            }
        } else {
            // normal: FLIP (x ≠ x_L → x := ¬x, up := true) wins over
            // LOWER (x = x_R ∧ up ∧ ¬up_R → up := false), like the
            // scalar arbitration.
            let (lo, la) = canon(v - 1);
            let (ro, ra) = canon(v + 1);
            let row_l = &soa[(v - 1) * lanes..v * lanes];
            let row_r = &soa[(v + 1) * lanes..(v + 2) * lanes];
            for ((((f, nx), &s), &ll), &rr) in
                fired_row.iter_mut().zip(next_row.iter_mut()).zip(rv).zip(row_l).zip(row_r)
            {
                let lv = (ll | lo) & la;
                let r = (rr | ro) & ra;
                let flip = (s ^ lv) & 1 != 0;
                let lower = (s ^ r) & 1 == 0 && s & 2 != 0 && r & 2 == 0;
                *f = flip | lower;
                *nx = if flip { ((s & 1) ^ 1) | 0b10 } else { s & 1 };
            }
        }
    }
}

/// `specME` for the four-state line: safety = at most one privilege,
/// legitimacy = exactly one.
#[derive(Clone, Debug)]
pub struct FourStateSpec {
    protocol: DijkstraFourState,
}

impl FourStateSpec {
    /// Creates the specification.
    #[must_use]
    pub fn new(protocol: DijkstraFourState) -> Self {
        Self { protocol }
    }
}

impl Specification<FourState> for FourStateSpec {
    fn name(&self) -> String {
        "specME(dijkstra-4state)".into()
    }
    fn is_safe(&self, config: &Configuration<FourState>, _graph: &Graph) -> bool {
        self.protocol.privilege_count(config) <= 1
    }
    fn is_legitimate(&self, config: &Configuration<FourState>, _graph: &Graph) -> bool {
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

    fn line(n: usize) -> (Graph, DijkstraFourState) {
        let g = generators::path(n).unwrap();
        let p = DijkstraFourState::new(&g).unwrap();
        (g, p)
    }

    #[test]
    fn rejects_non_lines() {
        let ring = generators::ring(4).unwrap();
        assert!(DijkstraFourState::new(&ring).is_err());
    }

    #[test]
    fn special_machines_have_two_states() {
        let (_, p) = line(4);
        assert_eq!(p.state_domain(VertexId::new(0)).unwrap().len(), 2);
        assert_eq!(p.state_domain(VertexId::new(3)).unwrap().len(), 2);
        assert_eq!(p.state_domain(VertexId::new(1)).unwrap().len(), 4);
    }

    #[test]
    fn exact_self_stabilization_under_central_daemon() {
        // Exhaustive over the whole state space for n = 3..6 — correctness
        // oracle for the transcribed rules.
        for n in [3usize, 4, 5, 6] {
            let (g, p) = line(n);
            let spec = FourStateSpec::new(p.clone());
            let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
            let cg = build_config_graph(&g, &p, &all, SearchDaemon::Central, 2_000_000).unwrap();
            let worst = worst_steps_to(&cg, |c| spec.is_legitimate(c, &g));
            assert!(worst.is_ok(), "n={n}: {:?}", worst.err());
        }
    }

    #[test]
    fn exact_self_stabilization_under_distributed_daemon() {
        let (g, p) = line(4);
        let spec = FourStateSpec::new(p.clone());
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        let cg = build_config_graph(
            &g,
            &p,
            &all,
            SearchDaemon::Distributed { max_enabled: 4 },
            5_000_000,
        )
        .unwrap();
        assert!(worst_steps_to(&cg, |c| spec.is_legitimate(c, &g)).is_ok());
    }

    #[test]
    fn legitimacy_is_closed_exhaustively() {
        let (g, p) = line(5);
        let spec = FourStateSpec::new(p.clone());
        let sim = Simulator::new(&g, &p);
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        for c in &all {
            if !spec.is_legitimate(c, &g) {
                continue;
            }
            for &v in &sim.enabled_vertices(c) {
                let (next, _) = sim.apply_action(c, &[v]);
                assert!(spec.is_legitimate(&next, &g), "closure broken at {:?}", c.states());
            }
        }
    }

    #[test]
    fn no_terminal_configurations_exist() {
        let (g, p) = line(5);
        let sim = Simulator::new(&g, &p);
        let all = enumerate_all_configurations(&g, &p, 1_000_000).unwrap();
        for c in &all {
            assert!(!sim.enabled_vertices(c).is_empty(), "deadlock at {:?}", c.states());
        }
    }

    #[test]
    fn converges_from_random_configurations() {
        let (g, p) = line(10);
        let spec = FourStateSpec::new(p.clone());
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
    fn token_shuttles_between_ends() {
        let (g, p) = line(5);
        let sim = Simulator::new(&g, &p);
        let mut config =
            Configuration::from_fn(5, |v| p.canonical(v.index(), FourState::default()));
        let (mut bottom, mut top) = (0, 0);
        for _ in 0..60 {
            let enabled = sim.enabled_vertices(&config);
            assert!(!enabled.is_empty());
            if enabled.contains(&VertexId::new(0)) {
                bottom += 1;
            }
            if enabled.contains(&VertexId::new(4)) {
                top += 1;
            }
            config = sim.apply_action(&config, &enabled[..1]).0;
        }
        assert!(bottom > 0 && top > 0);
    }

    #[test]
    fn packed_runs_match_scalar_lane_for_lane_under_both_daemons() {
        use specstab_kernel::batch::{run_batch, BatchDaemon};
        use specstab_kernel::daemon::SynchronousDaemon;
        use specstab_kernel::engine::RunLimits;
        let (g, p) = line(8);
        // Raw (non-canonical) initial states on the special machines are
        // part of the contract: canonicalization happens on read.
        let mut inits: Vec<_> = (0..8)
            .map(|s| {
                let mut rng = StdRng::seed_from_u64(6_000 + s);
                random_configuration(&g, &p, &mut rng)
            })
            .collect();
        inits.push(Configuration::from_fn(8, |v| FourState { x: v.index() % 2 == 0, up: true }));
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
    fn display_renders_state() {
        assert_eq!(FourState { x: true, up: false }.to_string(), "1↓");
        assert_eq!(FourState { x: false, up: true }.to_string(), "0↑");
    }
}
