//! Engine counters: deterministic per-run tallies plus the process-global
//! lock-free aggregate.
//!
//! The discipline that keeps counting off the hot path: the step loop
//! accumulates into plain `u64` locals ([`RunCounters`]) and flushes **one
//! batched relaxed-atomic add per run** into the [`global`]
//! [`EngineCounters`]. No per-step or per-move atomics, so the steady
//! state above 1e7 moves/s is untouched; no global reads inside a run, so
//! concurrent workers never contaminate each other's per-run numbers.
//!
//! Two instruments are inherently process-wide rather than per-run and
//! increment the global directly: scratch-buffer reuses (recorded at run
//! entry) and full [`Configuration`] clones (recorded by the instrumented
//! `Clone` impl in the kernel — the promotion of the old test-only clone
//! counter). Tests compare [`CounterSnapshot`] deltas, never absolute
//! values.
//!
//! [`Configuration`]: https://docs.rs/specstab-kernel

use crate::json::{obj, Json};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tallies of one engine run, accumulated in plain locals by the step
/// loop. Deterministic: a run's counters depend only on its inputs, never
/// on scheduling or thread count.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Steps (actions) executed.
    pub steps: u64,
    /// Moves (vertex activations) executed.
    pub moves: u64,
    /// Guard evaluations: every `enabled_rule` call the engine issued —
    /// the initial full scan, per-fire re-evaluation, touched-set
    /// maintenance, and daemon previews.
    pub guard_evals: u64,
    /// Bytes of state moved through step deltas (before + after state per
    /// recorded move).
    pub delta_bytes: u64,
}

impl RunCounters {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `other` into `self` (aggregating runs of a cell, shard, or
    /// campaign).
    pub fn add(&mut self, other: &Self) {
        self.steps += other.steps;
        self.moves += other.moves;
        self.guard_evals += other.guard_evals;
        self.delta_bytes += other.delta_bytes;
    }
}

/// Daemon class of a batch-eligible campaign group, used to attribute
/// batched-vs-scalar routing decisions per class.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchDaemonClass {
    /// Synchronous daemon groups (`sync`).
    Sync,
    /// Central round-robin daemon groups (`central-rr`).
    CentralRr,
    /// Central uniform-random daemon groups (`central-rand`).
    CentralRand,
    /// Random-distributed daemon groups (`dist:<p>`).
    RandomDistributed,
}

/// The process-global aggregate: relaxed atomics, written by batched
/// per-run flushes and the two process-wide instruments.
#[derive(Debug, Default)]
pub struct EngineCounters {
    steps: AtomicU64,
    moves: AtomicU64,
    guard_evals: AtomicU64,
    delta_bytes: AtomicU64,
    scratch_reuses: AtomicU64,
    config_clones: AtomicU64,
    batch_lanes: AtomicU64,
    batch_lane_steps: AtomicU64,
    batch_idle_lane_steps: AtomicU64,
    batch_scalar_fallbacks: AtomicU64,
    batch_routed_sync_groups: AtomicU64,
    batch_routed_rr_groups: AtomicU64,
    batch_routed_rand_groups: AtomicU64,
    batch_routed_dist_groups: AtomicU64,
    batch_fallback_sync_groups: AtomicU64,
    batch_fallback_rr_groups: AtomicU64,
    batch_fallback_rand_groups: AtomicU64,
    batch_fallback_dist_groups: AtomicU64,
}

/// A point-in-time copy of the global counters. Monotonically increasing
/// per field; meaningful only as deltas between two snapshots.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Total steps flushed by finished runs.
    pub steps: u64,
    /// Total moves flushed by finished runs.
    pub moves: u64,
    /// Total guard evaluations flushed by finished runs.
    pub guard_evals: u64,
    /// Total delta bytes flushed by finished runs.
    pub delta_bytes: u64,
    /// Runs that entered with already-sized scratch buffers (cross-run
    /// buffer reuse — the amortization the `ScratchPool` exists for).
    pub scratch_reuses: u64,
    /// Full `Configuration::clone` calls (buffer-reusing `clone_from` is
    /// deliberately not counted — that is the allocation-free path).
    pub config_clones: u64,
    /// Replica lanes launched by batched runs (one per seed-replica that
    /// entered a batch, regardless of how long it stayed active).
    pub batch_lanes: u64,
    /// Total lane-step slots batched runs scheduled: `lanes x iterations`
    /// summed over batches. Lane widths differ across packed protocols
    /// (u8 packs 64 replicas per cache line, i32 packs 16), so occupancy
    /// is reported against this explicit total rather than a width
    /// assumption: occupancy = 1 - idle / lane-steps.
    pub batch_lane_steps: u64,
    /// Lane-steps spent masked idle: batch iterations where an
    /// already-stopped lane rode along while siblings kept stepping.
    pub batch_idle_lane_steps: u64,
    /// Batch-eligible cell groups (synchronous or central round-robin
    /// daemon) that fell back to the scalar path because the protocol has
    /// no packed implementation, the instance falls outside the packed
    /// domain, or batching was disabled.
    pub batch_scalar_fallbacks: u64,
    /// Synchronous-daemon groups routed through the batched engine.
    pub batch_routed_sync_groups: u64,
    /// Central round-robin groups routed through the batched engine.
    pub batch_routed_rr_groups: u64,
    /// Central uniform-random groups routed through the batched engine.
    pub batch_routed_rand_groups: u64,
    /// Random-distributed (`dist:<p>`) groups routed through the batched
    /// engine.
    pub batch_routed_dist_groups: u64,
    /// Synchronous-daemon groups that took the scalar fallback.
    pub batch_fallback_sync_groups: u64,
    /// Central round-robin groups that took the scalar fallback.
    pub batch_fallback_rr_groups: u64,
    /// Central uniform-random groups that took the scalar fallback.
    pub batch_fallback_rand_groups: u64,
    /// Random-distributed groups that took the scalar fallback.
    pub batch_fallback_dist_groups: u64,
}

impl CounterSnapshot {
    /// Field-wise `self - earlier` (saturating, so a stale `earlier` from
    /// another epoch degrades to zeros instead of wrapping).
    #[must_use]
    pub fn delta(&self, earlier: &Self) -> Self {
        let mut out = *self;
        for (field, before) in out.fields_mut().into_iter().zip(earlier.fields()) {
            *field = field.saturating_sub(before);
        }
        out
    }

    /// Field-wise `self += other` (summing per-shard or per-upload deltas
    /// into a campaign total).
    pub fn add(&mut self, other: &Self) {
        for (field, more) in self.fields_mut().into_iter().zip(other.fields()) {
            *field += more;
        }
    }

    /// Renders the snapshot as a JSON object — the one codec shared by
    /// event streams, metrics sidecars and the serve upload header.
    #[must_use]
    pub fn to_json(&self) -> Json {
        obj(FIELD_NAMES.iter().copied().zip(self.fields().map(Json::UInt)).collect())
    }

    /// Parses [`CounterSnapshot::to_json`] output. The six engine fields
    /// are required; the batch fields are optional and read as zero,
    /// because traces written before the batch counters existed carry the
    /// same `specstab-events/v1` schema.
    ///
    /// # Errors
    ///
    /// Fails on a non-object, a missing engine field, or any field that is
    /// not an unsigned integer.
    pub fn from_json(j: &Json) -> Result<Self, String> {
        let mut out = Self::default();
        for (i, (name, field)) in FIELD_NAMES.iter().zip(out.fields_mut()).enumerate() {
            *field = match j.get(name) {
                Some(v) => v.as_u64()?,
                None if i >= REQUIRED_FIELDS => 0,
                None => return Err(format!("missing field '{name}'")),
            };
        }
        Ok(out)
    }

    fn fields(&self) -> [u64; FIELD_NAMES.len()] {
        [
            self.steps,
            self.moves,
            self.guard_evals,
            self.delta_bytes,
            self.scratch_reuses,
            self.config_clones,
            self.batch_lanes,
            self.batch_lane_steps,
            self.batch_idle_lane_steps,
            self.batch_scalar_fallbacks,
            self.batch_routed_sync_groups,
            self.batch_routed_rr_groups,
            self.batch_routed_rand_groups,
            self.batch_routed_dist_groups,
            self.batch_fallback_sync_groups,
            self.batch_fallback_rr_groups,
            self.batch_fallback_rand_groups,
            self.batch_fallback_dist_groups,
        ]
    }

    fn fields_mut(&mut self) -> [&mut u64; FIELD_NAMES.len()] {
        [
            &mut self.steps,
            &mut self.moves,
            &mut self.guard_evals,
            &mut self.delta_bytes,
            &mut self.scratch_reuses,
            &mut self.config_clones,
            &mut self.batch_lanes,
            &mut self.batch_lane_steps,
            &mut self.batch_idle_lane_steps,
            &mut self.batch_scalar_fallbacks,
            &mut self.batch_routed_sync_groups,
            &mut self.batch_routed_rr_groups,
            &mut self.batch_routed_rand_groups,
            &mut self.batch_routed_dist_groups,
            &mut self.batch_fallback_sync_groups,
            &mut self.batch_fallback_rr_groups,
            &mut self.batch_fallback_rand_groups,
            &mut self.batch_fallback_dist_groups,
        ]
    }
}

/// JSON keys of the [`CounterSnapshot`] fields, in declaration order.
const FIELD_NAMES: [&str; 18] = [
    "steps",
    "moves",
    "guard_evals",
    "delta_bytes",
    "scratch_reuses",
    "config_clones",
    "batch_lanes",
    "batch_lane_steps",
    "batch_idle_lane_steps",
    "batch_scalar_fallbacks",
    "batch_routed_sync_groups",
    "batch_routed_rr_groups",
    "batch_routed_rand_groups",
    "batch_routed_dist_groups",
    "batch_fallback_sync_groups",
    "batch_fallback_rr_groups",
    "batch_fallback_rand_groups",
    "batch_fallback_dist_groups",
];

/// The leading [`FIELD_NAMES`] every counter object must carry.
const REQUIRED_FIELDS: usize = 6;

impl EngineCounters {
    /// Flushes one finished run's tallies — four relaxed adds, the only
    /// global traffic a run generates.
    pub fn record_run(&self, run: &RunCounters) {
        self.steps.fetch_add(run.steps, Ordering::Relaxed);
        self.moves.fetch_add(run.moves, Ordering::Relaxed);
        self.guard_evals.fetch_add(run.guard_evals, Ordering::Relaxed);
        self.delta_bytes.fetch_add(run.delta_bytes, Ordering::Relaxed);
    }

    /// Records a run entering with scratch buffers already sized for its
    /// graph (cross-run reuse).
    pub fn record_scratch_reuse(&self) {
        self.scratch_reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one full configuration clone (called by the kernel's
    /// instrumented `Clone` impl).
    pub fn record_config_clone(&self) {
        self.config_clones.fetch_add(1, Ordering::Relaxed);
    }

    /// Flushes one finished batched run: the lanes it launched, the total
    /// lane-step slots it scheduled (`lanes x iterations` — the lane-count
    /// parameterization that keeps u8x64 and i32x16 batches comparable),
    /// and the lane-steps spent masked idle after individual lanes
    /// stopped.
    pub fn record_batch(&self, lanes: u64, lane_steps: u64, idle_lane_steps: u64) {
        self.batch_lanes.fetch_add(lanes, Ordering::Relaxed);
        self.batch_lane_steps.fetch_add(lane_steps, Ordering::Relaxed);
        self.batch_idle_lane_steps.fetch_add(idle_lane_steps, Ordering::Relaxed);
    }

    /// Records a batch-eligible group routed through the batched engine,
    /// attributed to its daemon class.
    pub fn record_batch_routed(&self, class: BatchDaemonClass) {
        match class {
            BatchDaemonClass::Sync => &self.batch_routed_sync_groups,
            BatchDaemonClass::CentralRr => &self.batch_routed_rr_groups,
            BatchDaemonClass::CentralRand => &self.batch_routed_rand_groups,
            BatchDaemonClass::RandomDistributed => &self.batch_routed_dist_groups,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a batch-eligible group taking the scalar fallback path,
    /// attributed to its daemon class.
    pub fn record_batch_fallback(&self, class: BatchDaemonClass) {
        self.batch_scalar_fallbacks.fetch_add(1, Ordering::Relaxed);
        match class {
            BatchDaemonClass::Sync => &self.batch_fallback_sync_groups,
            BatchDaemonClass::CentralRr => &self.batch_fallback_rr_groups,
            BatchDaemonClass::CentralRand => &self.batch_fallback_rand_groups,
            BatchDaemonClass::RandomDistributed => &self.batch_fallback_dist_groups,
        }
        .fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the current totals.
    #[must_use]
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            steps: self.steps.load(Ordering::Relaxed),
            moves: self.moves.load(Ordering::Relaxed),
            guard_evals: self.guard_evals.load(Ordering::Relaxed),
            delta_bytes: self.delta_bytes.load(Ordering::Relaxed),
            scratch_reuses: self.scratch_reuses.load(Ordering::Relaxed),
            config_clones: self.config_clones.load(Ordering::Relaxed),
            batch_lanes: self.batch_lanes.load(Ordering::Relaxed),
            batch_lane_steps: self.batch_lane_steps.load(Ordering::Relaxed),
            batch_idle_lane_steps: self.batch_idle_lane_steps.load(Ordering::Relaxed),
            batch_scalar_fallbacks: self.batch_scalar_fallbacks.load(Ordering::Relaxed),
            batch_routed_sync_groups: self.batch_routed_sync_groups.load(Ordering::Relaxed),
            batch_routed_rr_groups: self.batch_routed_rr_groups.load(Ordering::Relaxed),
            batch_routed_rand_groups: self.batch_routed_rand_groups.load(Ordering::Relaxed),
            batch_routed_dist_groups: self.batch_routed_dist_groups.load(Ordering::Relaxed),
            batch_fallback_sync_groups: self.batch_fallback_sync_groups.load(Ordering::Relaxed),
            batch_fallback_rr_groups: self.batch_fallback_rr_groups.load(Ordering::Relaxed),
            batch_fallback_rand_groups: self.batch_fallback_rand_groups.load(Ordering::Relaxed),
            batch_fallback_dist_groups: self.batch_fallback_dist_groups.load(Ordering::Relaxed),
        }
    }
}

static GLOBAL: EngineCounters = EngineCounters {
    steps: AtomicU64::new(0),
    moves: AtomicU64::new(0),
    guard_evals: AtomicU64::new(0),
    delta_bytes: AtomicU64::new(0),
    scratch_reuses: AtomicU64::new(0),
    config_clones: AtomicU64::new(0),
    batch_lanes: AtomicU64::new(0),
    batch_lane_steps: AtomicU64::new(0),
    batch_idle_lane_steps: AtomicU64::new(0),
    batch_scalar_fallbacks: AtomicU64::new(0),
    batch_routed_sync_groups: AtomicU64::new(0),
    batch_routed_rr_groups: AtomicU64::new(0),
    batch_routed_rand_groups: AtomicU64::new(0),
    batch_routed_dist_groups: AtomicU64::new(0),
    batch_fallback_sync_groups: AtomicU64::new(0),
    batch_fallback_rr_groups: AtomicU64::new(0),
    batch_fallback_rand_groups: AtomicU64::new(0),
    batch_fallback_dist_groups: AtomicU64::new(0),
};

/// The process-global engine counters.
#[must_use]
pub fn global() -> &'static EngineCounters {
    &GLOBAL
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_counters_accumulate() {
        let mut a = RunCounters { steps: 1, moves: 2, guard_evals: 3, delta_bytes: 4 };
        a.add(&RunCounters { steps: 10, moves: 20, guard_evals: 30, delta_bytes: 40 });
        assert_eq!(a, RunCounters { steps: 11, moves: 22, guard_evals: 33, delta_bytes: 44 });
    }

    #[test]
    fn global_flush_and_snapshot_deltas() {
        let before = global().snapshot();
        global().record_run(&RunCounters { steps: 5, moves: 7, guard_evals: 11, delta_bytes: 13 });
        global().record_scratch_reuse();
        global().record_config_clone();
        global().record_batch(64, 640, 17);
        global().record_batch_routed(BatchDaemonClass::Sync);
        global().record_batch_routed(BatchDaemonClass::CentralRr);
        global().record_batch_routed(BatchDaemonClass::CentralRand);
        global().record_batch_routed(BatchDaemonClass::RandomDistributed);
        global().record_batch_fallback(BatchDaemonClass::Sync);
        global().record_batch_fallback(BatchDaemonClass::CentralRr);
        global().record_batch_fallback(BatchDaemonClass::CentralRand);
        global().record_batch_fallback(BatchDaemonClass::RandomDistributed);
        let d = global().snapshot().delta(&before);
        // Other tests in this binary may run concurrently and also flush,
        // so deltas are lower-bounded, not exact.
        assert!(d.steps >= 5 && d.moves >= 7 && d.guard_evals >= 11 && d.delta_bytes >= 13);
        assert!(d.scratch_reuses >= 1 && d.config_clones >= 1);
        assert!(d.batch_lanes >= 64 && d.batch_lane_steps >= 640 && d.batch_idle_lane_steps >= 17);
        assert!(d.batch_scalar_fallbacks >= 4);
        assert!(d.batch_routed_sync_groups >= 1 && d.batch_routed_rr_groups >= 1);
        assert!(d.batch_routed_rand_groups >= 1 && d.batch_routed_dist_groups >= 1);
        assert!(d.batch_fallback_sync_groups >= 1 && d.batch_fallback_rr_groups >= 1);
        assert!(d.batch_fallback_rand_groups >= 1 && d.batch_fallback_dist_groups >= 1);
    }

    /// A snapshot whose every field is a distinct multiple of `k`.
    fn snap(k: u64) -> CounterSnapshot {
        let mut s = CounterSnapshot::default();
        for (i, field) in s.fields_mut().into_iter().enumerate() {
            *field = (i as u64 + 1) * k;
        }
        s
    }

    #[test]
    fn add_sums_field_wise() {
        let mut total = snap(1);
        total.add(&snap(10));
        assert_eq!(total, snap(11));
        assert_eq!(total.delta(&snap(10)), snap(1), "delta undoes add");
    }

    #[test]
    fn json_codec_round_trips_and_is_strict() {
        let s = snap(7);
        assert_eq!(CounterSnapshot::from_json(&s.to_json()), Ok(s));
        let text = s.to_json().render_compact();
        let bad = Json::parse(&text.replace("\"moves\":14", "\"moves\":\"14\"")).unwrap();
        assert!(CounterSnapshot::from_json(&bad).is_err(), "mistyped field");
        let short = Json::parse("{\"steps\":1}").unwrap();
        assert!(CounterSnapshot::from_json(&short).unwrap_err().contains("missing field"));
    }

    #[test]
    fn delta_saturates_instead_of_wrapping() {
        let lo = CounterSnapshot::default();
        let hi = CounterSnapshot { steps: 3, ..Default::default() };
        assert_eq!(lo.delta(&hi).steps, 0);
        assert_eq!(hi.delta(&lo).steps, 3);
    }
}
