//! The serve coordinator: a single-threaded HTTP loop that owns the lease
//! table, the incremental merge, and the spool.
//!
//! Concurrency model: one nonblocking accept loop, blocking per-connection
//! I/O under socket timeouts. Lease and status exchanges are tiny and
//! uploads are bounded by the socket timeout, so a single thread both
//! keeps every state transition trivially race-free and guarantees the
//! trace's `seq` order is the order things actually happened.
//!
//! Counter model: each upload carries the worker's engine-counter delta
//! for that shard in the [`COUNTERS_HEADER`]. The coordinator executes no
//! cells itself; it sums the deltas of freshly accepted uploads into one
//! [`CounterSnapshot`], which `/status` reports as `batch_groups` and the
//! trace's `campaign_end` carries. Spool replays contribute zeros, and a
//! malformed header rejects the upload like a malformed body.
//!
//! Durability model: **a partial on disk is a checkpoint.** Every accepted
//! upload is written atomically to the spool directory before it is
//! acknowledged, and [`Coordinator::bind`] replays the spool before
//! listening — a coordinator killed at any point resumes without
//! re-running completed shards, because their partials re-enter the merge
//! exactly as if a worker had just uploaded them.

use super::http::{read_request, set_socket_timeouts, write_response, Request};
use super::wire::{
    parse_counters_header, parse_worker_body, renew_reply, Lease, LeaseReply, UploadReply,
    COUNTERS_HEADER,
};
use crate::artifact::{write_atomic, PartialArtifact};
use crate::executor::CampaignResult;
use crate::merge::{Accepted, MergeAccumulator};
use crate::plan::CampaignPlan;
use specstab_telemetry::{
    obj, CounterSnapshot, EventKind, Json, ServeCounts, ServeHeartbeat, TraceWriter,
};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Coordinator knobs beyond the plan and listen address.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Lease duration; a shard not uploaded or renewed within this window
    /// returns to the pending pool for the next puller.
    pub lease_ms: u64,
    /// Spool directory for accepted partials (created if missing; replayed
    /// on startup).
    pub spool: PathBuf,
    /// `--trace` destination for the coordinator's
    /// `specstab-events/v1` stream (lease lifecycle included).
    pub trace_path: Option<PathBuf>,
    /// Fault-injection knob for tests and drills: stop the accept loop
    /// (simulating a coordinator crash) after accepting this many fresh
    /// uploads over the network. Spool replays don't count.
    pub stop_after_uploads: Option<u64>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            lease_ms: 30_000,
            spool: PathBuf::from("serve_spool"),
            trace_path: None,
            stop_after_uploads: None,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum ShardState {
    Pending,
    Leased { worker: String, lease_id: u64, deadline: Instant },
    Done,
}

#[derive(Debug, Default)]
struct WorkerTally {
    worker: String,
    shards_accepted: u64,
    cells_accepted: u64,
    moves: u64,
}

/// The serve coordinator (see the module docs for the model).
pub struct Coordinator {
    plan: CampaignPlan,
    plan_json: String,
    listener: TcpListener,
    options: ServeOptions,
    states: Vec<ShardState>,
    acc: MergeAccumulator,
    trace: Option<TraceWriter>,
    heartbeat: ServeHeartbeat,
    next_lease_id: u64,
    expired_total: u64,
    uploads_accepted: u64,
    uploads_rejected: u64,
    workers: Vec<WorkerTally>,
    counters: CounterSnapshot,
    started: Instant,
}

/// How often the accept loop wakes to scan for expired leases when no
/// connection is pending.
const IDLE_POLL: Duration = Duration::from_millis(5);

impl Coordinator {
    /// Binds the listener, opens the trace, creates the spool directory,
    /// and replays any partials already spooled (the resume path).
    ///
    /// # Errors
    ///
    /// Fails on bind/spool I/O errors, trace-creation errors, or a spooled
    /// partial belonging to a different plan (a corrupt spool is surfaced,
    /// not silently dropped — pass a fresh `--spool` to start over).
    pub fn bind(plan: CampaignPlan, listen: &str, options: ServeOptions) -> Result<Self, String> {
        let listener = TcpListener::bind(listen).map_err(|e| format!("binding {listen}: {e}"))?;
        listener.set_nonblocking(true).map_err(|e| format!("configuring listener: {e}"))?;
        std::fs::create_dir_all(&options.spool)
            .map_err(|e| format!("creating spool {}: {e}", options.spool.display()))?;
        let trace = options
            .trace_path
            .as_deref()
            .map(|p| TraceWriter::create(p, None, "serve"))
            .transpose()?;
        let plan_json = plan.to_json();
        let states = vec![ShardState::Pending; plan.shards.len()];
        let shard_count = plan.shards.len() as u64;
        let mut coordinator = Self {
            plan,
            plan_json,
            listener,
            options,
            states,
            acc: MergeAccumulator::new(),
            trace,
            heartbeat: ServeHeartbeat::new(shard_count),
            next_lease_id: 0,
            expired_total: 0,
            uploads_accepted: 0,
            uploads_rejected: 0,
            workers: Vec::new(),
            counters: CounterSnapshot::default(),
            started: Instant::now(),
        };
        coordinator.emit(EventKind::CampaignStart {
            cells: coordinator.plan.cells.len() as u64,
            groups: crate::plan::group_boundaries(&coordinator.plan.cells).len().saturating_sub(1)
                as u64,
            seed: coordinator.plan.config.seed,
            max_steps: coordinator.plan.config.max_steps as u64,
        })?;
        coordinator.emit(EventKind::Plan {
            cells: coordinator.plan.cells.len() as u64,
            shards: coordinator.plan.shards.len() as u64,
        })?;
        coordinator.replay_spool()?;
        Ok(coordinator)
    }

    /// The bound listen address (useful after binding port 0 in tests).
    ///
    /// # Errors
    ///
    /// Propagates the (practically unfailable) `getsockname` error.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Replays spooled partials through the merge accumulator, marking
    /// their shards done — completed work survives a coordinator kill.
    fn replay_spool(&mut self) -> Result<(), String> {
        let dir = std::fs::read_dir(&self.options.spool)
            .map_err(|e| format!("reading spool {}: {e}", self.options.spool.display()))?;
        let mut paths: Vec<PathBuf> = dir
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|p| p.to_string_lossy().ends_with(".partial.json"))
            .collect();
        paths.sort();
        for path in paths {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading spooled {}: {e}", path.display()))?;
            let partial = PartialArtifact::from_json(&text)
                .map_err(|e| format!("parsing spooled {}: {e}", path.display()))?;
            match self.fold_partial(partial, "spool", CounterSnapshot::default(), false)? {
                UploadReply::Accepted { .. } => {}
                UploadReply::Rejected { reason } => {
                    return Err(format!("spooled {} rejected: {reason}", path.display()));
                }
            }
        }
        if self.acc.accepted_count() > 0 {
            eprintln!(
                "serve: resumed {} completed shards ({} cells) from spool {}",
                self.acc.accepted_count(),
                self.acc.covered_cells(),
                self.options.spool.display()
            );
        }
        Ok(())
    }

    fn emit(&mut self, kind: EventKind) -> Result<(), String> {
        if let Some(w) = self.trace.as_mut() {
            w.emit(kind)?;
        }
        Ok(())
    }

    fn counts(&self) -> ServeCounts {
        let leased =
            self.states.iter().filter(|s| matches!(s, ShardState::Leased { .. })).count() as u64;
        let completed = self.states.iter().filter(|s| **s == ShardState::Done).count() as u64;
        ServeCounts {
            leased,
            completed,
            expired: self.expired_total,
            merged_cells: self.acc.covered_cells() as u64,
        }
    }

    /// Returns expired leases to the pending pool.
    fn expire_leases(&mut self) -> Result<(), String> {
        let now = Instant::now();
        let mut expirations = Vec::new();
        for (shard_id, state) in self.states.iter_mut().enumerate() {
            if let ShardState::Leased { worker, lease_id, deadline } = state {
                if *deadline <= now {
                    expirations.push((shard_id as u64, worker.clone(), *lease_id));
                    *state = ShardState::Pending;
                }
            }
        }
        for (shard_id, worker, lease_id) in expirations {
            self.expired_total += 1;
            eprintln!("serve: lease {lease_id} on shard {shard_id} (worker {worker}) expired");
            self.emit(EventKind::LeaseExpired { shard_id, worker, lease_id })?;
            self.heartbeat.tick(self.counts());
        }
        Ok(())
    }

    /// Grants the lowest-id pending shard, or says wait/done.
    fn grant_lease(&mut self, worker: &str) -> Result<LeaseReply, String> {
        let Some(shard_id) = self.states.iter().position(|s| *s == ShardState::Pending) else {
            return Ok(if self.acc.is_complete() {
                LeaseReply::Done
            } else {
                // Everything is out on live leases; poll again at a pace
                // proportional to the lease window.
                LeaseReply::Wait { retry_ms: (self.options.lease_ms / 10).clamp(50, 2000) }
            });
        };
        let lease_id = self.next_lease_id;
        self.next_lease_id += 1;
        let lease_ms = self.options.lease_ms;
        let deadline = Instant::now() + Duration::from_millis(lease_ms);
        self.states[shard_id] =
            ShardState::Leased { worker: worker.to_string(), lease_id, deadline };
        self.emit(EventKind::LeaseGranted {
            shard_id: shard_id as u64,
            worker: worker.to_string(),
            lease_id,
            lease_ms,
        })?;
        self.heartbeat.tick(self.counts());
        let spec = self.plan.shards[shard_id];
        Ok(LeaseReply::Granted(Lease {
            shard: shard_id as u64,
            start: spec.start as u64,
            end: spec.end as u64,
            lease_id,
            lease_ms,
            plan_fingerprint: self.plan.fingerprint(),
        }))
    }

    /// Extends a still-valid lease; a `false` reply tells the worker its
    /// shard was re-dispatched (or already completed by someone else).
    fn renew_lease(&mut self, worker: &str, lease_id: u64) -> bool {
        let lease_ms = self.options.lease_ms;
        for state in &mut self.states {
            if let ShardState::Leased { worker: w, lease_id: id, deadline } = state {
                if *id == lease_id && w == worker {
                    *deadline = Instant::now() + Duration::from_millis(lease_ms);
                    return true;
                }
            }
        }
        false
    }

    /// Validates and folds one partial (uploaded or spooled), spooling it,
    /// marking its shard done and adding the uploader's engine-counter
    /// delta to the campaign total on first acceptance.
    fn fold_partial(
        &mut self,
        partial: PartialArtifact,
        worker: &str,
        counters: CounterSnapshot,
        spool_it: bool,
    ) -> Result<UploadReply, String> {
        // Range check against the plan's own shard table first: the merge
        // accumulator would let a mis-ranged partial in and only notice the
        // gap at the very end.
        let reject = |reason: String| UploadReply::Rejected { reason };
        let Some(spec) = self.plan.shards.get(partial.shard_id).copied() else {
            return Ok(reject(format!(
                "shard {} does not exist in this plan ({} shards)",
                partial.shard_id,
                self.plan.shards.len()
            )));
        };
        if partial.start != spec.start || partial.end != spec.end {
            return Ok(reject(format!(
                "shard {} covers cells {}..{}, expected {}..{}",
                partial.shard_id, partial.start, partial.end, spec.start, spec.end
            )));
        }
        if partial.plan_fingerprint != self.plan.fingerprint() {
            return Ok(reject(format!(
                "partial belongs to a different plan (matrix fingerprint {:#018x}, \
                 expected {:#018x})",
                partial.plan_fingerprint,
                self.plan.fingerprint()
            )));
        }
        let shard_id = partial.shard_id;
        let cells = partial.cells.len() as u64;
        let moves: u64 =
            partial.cells.iter().filter_map(|c| c.outcome.as_ref().ok()).map(|o| o.moves).sum();
        let body = if spool_it { Some(partial.to_json()) } else { None };
        match self.acc.accept(partial) {
            Ok(Accepted::Fresh) => {
                if let Some(body) = body {
                    let path = self.options.spool.join(format!("shard-{shard_id}.partial.json"));
                    write_atomic(&path, &body)
                        .map_err(|e| format!("spooling {}: {e}", path.display()))?;
                }
                self.states[shard_id] = ShardState::Done;
                self.counters.add(&counters);
                match self.workers.iter_mut().find(|t| t.worker == worker) {
                    Some(t) => {
                        t.shards_accepted += 1;
                        t.cells_accepted += cells;
                        t.moves += moves;
                    }
                    None => self.workers.push(WorkerTally {
                        worker: worker.to_string(),
                        shards_accepted: 1,
                        cells_accepted: cells,
                        moves,
                    }),
                }
                self.emit(EventKind::PartialAccepted {
                    shard_id: shard_id as u64,
                    worker: worker.to_string(),
                    cells,
                })?;
                self.heartbeat.tick(self.counts());
                Ok(UploadReply::Accepted { duplicate: false })
            }
            // A re-dispatched straggler finished after all: acknowledge so
            // it stops retrying, drop so nothing is double-counted.
            Ok(Accepted::Duplicate) => Ok(UploadReply::Accepted { duplicate: true }),
            Err(reason) => Ok(reject(reason)),
        }
    }

    /// Builds the live `/status` payload: a `specstab-metrics/v1` snapshot
    /// of the lease table and per-worker throughput.
    fn status_json(&self) -> String {
        let counts = self.counts();
        let c = &self.counters;
        let wall_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let wall_secs = self.started.elapsed().as_secs_f64().max(1e-9);
        let workers = self
            .workers
            .iter()
            .map(|t| {
                #[allow(clippy::cast_precision_loss)]
                let rate = t.moves as f64 / wall_secs;
                obj(vec![
                    ("worker", Json::Str(t.worker.clone())),
                    ("shards_accepted", Json::UInt(t.shards_accepted)),
                    ("cells_accepted", Json::UInt(t.cells_accepted)),
                    ("moves", Json::UInt(t.moves)),
                    ("moves_per_sec", Json::Num(rate)),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Json::Str(specstab_telemetry::METRICS_SCHEMA.into())),
            (
                "serve",
                obj(vec![
                    ("shards_total", Json::UInt(self.plan.shards.len() as u64)),
                    ("leased", Json::UInt(counts.leased)),
                    ("completed", Json::UInt(counts.completed)),
                    ("expired", Json::UInt(counts.expired)),
                    ("merged_cells", Json::UInt(counts.merged_cells)),
                    ("uploads_accepted", Json::UInt(self.uploads_accepted)),
                    ("uploads_rejected", Json::UInt(self.uploads_rejected)),
                    ("wall_us", Json::UInt(wall_us)),
                    (
                        "batch_groups",
                        obj(vec![
                            ("routed_sync", Json::UInt(c.batch_routed_sync_groups)),
                            ("routed_rr", Json::UInt(c.batch_routed_rr_groups)),
                            ("routed_rand", Json::UInt(c.batch_routed_rand_groups)),
                            ("routed_dist", Json::UInt(c.batch_routed_dist_groups)),
                            ("fallback_sync", Json::UInt(c.batch_fallback_sync_groups)),
                            ("fallback_rr", Json::UInt(c.batch_fallback_rr_groups)),
                            ("fallback_rand", Json::UInt(c.batch_fallback_rand_groups)),
                            ("fallback_dist", Json::UInt(c.batch_fallback_dist_groups)),
                        ]),
                    ),
                    ("workers", Json::Arr(workers)),
                ]),
            ),
        ])
        .render()
    }

    /// Dispatches one parsed request to `(status, reason, body)`.
    fn handle(&mut self, req: &Request) -> Result<(u16, &'static str, String), String> {
        match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/plan") => Ok((200, "OK", self.plan_json.clone())),
            ("GET", "/status") => Ok((200, "OK", self.status_json())),
            ("POST", "/lease") => match parse_worker_body(&req.body) {
                Ok((worker, _)) => Ok((200, "OK", self.grant_lease(&worker)?.to_json())),
                Err(e) => {
                    Ok((400, "Bad Request", obj(vec![("error", Json::Str(e))]).render_compact()))
                }
            },
            ("POST", "/renew") => match parse_worker_body(&req.body) {
                Ok((worker, Some(lease_id))) => {
                    Ok((200, "OK", renew_reply(self.renew_lease(&worker, lease_id))))
                }
                _ => Ok((400, "Bad Request", "{\"error\":\"renew needs a lease_id\"}".into())),
            },
            ("POST", "/upload") => {
                let worker = req.header("x-specstab-worker").unwrap_or("anonymous").to_string();
                let parsed = parse_counters_header(req.header(COUNTERS_HEADER)).and_then(|c| {
                    std::str::from_utf8(&req.body)
                        .map_err(|_| "non-UTF-8 upload body".to_string())
                        .and_then(PartialArtifact::from_json)
                        .map(|partial| (partial, c))
                });
                let reply = match parsed {
                    Ok((partial, counters)) => {
                        self.fold_partial(partial, &worker, counters, true)?
                    }
                    Err(reason) => UploadReply::Rejected { reason },
                };
                match &reply {
                    UploadReply::Accepted { duplicate: false } => self.uploads_accepted += 1,
                    UploadReply::Accepted { duplicate: true } => {}
                    UploadReply::Rejected { reason } => {
                        self.uploads_rejected += 1;
                        eprintln!("serve: rejected upload from {worker}: {reason}");
                        self.emit(EventKind::PartialRejected {
                            worker: worker.clone(),
                            reason: reason.clone(),
                        })?;
                    }
                }
                let status = if matches!(reply, UploadReply::Rejected { .. }) {
                    (400, "Bad Request")
                } else {
                    (200, "OK")
                };
                Ok((status.0, status.1, reply.to_json()))
            }
            _ => Ok((404, "Not Found", "{\"error\":\"no such endpoint\"}".into())),
        }
    }

    /// Runs the accept loop until the tiling is complete (returns the
    /// merged result) or the `stop_after_uploads` fault-injection point is
    /// reached (returns `None`, simulating a crash — the spool is the only
    /// thing that survives, which is the point).
    ///
    /// # Errors
    ///
    /// Fails on spool/trace I/O errors and on a final merge that does not
    /// tile (impossible unless the plan's shard table itself is
    /// inconsistent).
    pub fn run(self) -> Result<Option<CampaignResult>, String> {
        self.run_watched(|| Ok(()))
    }

    /// [`Coordinator::run`], polling `watch` on every accept-loop pass
    /// while shards are still missing (at least every few milliseconds).
    /// An `Err` from `watch` aborts the run with that error: this is how
    /// `campaign run --workers` stops waiting once its worker processes
    /// have died, instead of waiting for uploads that will never come.
    ///
    /// # Errors
    ///
    /// As [`Coordinator::run`], plus the first error `watch` returns.
    pub fn run_watched(
        mut self,
        mut watch: impl FnMut() -> Result<(), String>,
    ) -> Result<Option<CampaignResult>, String> {
        eprintln!(
            "serve: coordinating {} shards ({} cells) on {}",
            self.plan.shards.len(),
            self.plan.cells.len(),
            self.local_addr().map_or_else(|_| "<unknown>".into(), |a| a.to_string()),
        );
        while !self.acc.is_complete() {
            watch()?;
            self.expire_leases()?;
            match self.listener.accept() {
                Ok((mut stream, _peer)) => {
                    // Blocking I/O with timeouts from here on: a dead or
                    // stalled client costs a bounded wait.
                    let served = stream
                        .set_nonblocking(false)
                        .and_then(|()| set_socket_timeouts(&stream))
                        .map_err(|e| format!("configuring connection: {e}"))
                        .and_then(|()| read_request(&mut stream));
                    match served {
                        Ok(req) => {
                            let (status, reason, body) = self.handle(&req)?;
                            if let Err(e) = write_response(
                                &mut stream,
                                status,
                                reason,
                                "application/json",
                                body.as_bytes(),
                            ) {
                                eprintln!("serve: dropping connection mid-response: {e}");
                            }
                        }
                        // A malformed or timed-out request harms only its
                        // own connection.
                        Err(e) => eprintln!("serve: dropping connection: {e}"),
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(IDLE_POLL);
                }
                Err(e) => return Err(format!("accepting connections: {e}")),
            }
            if let Some(limit) = self.options.stop_after_uploads {
                if self.uploads_accepted >= limit {
                    eprintln!(
                        "serve: stopping after {limit} uploads (fault injection); \
                         spool {} holds the checkpoints",
                        self.options.spool.display()
                    );
                    return Ok(None);
                }
            }
        }
        self.heartbeat.finish(self.counts());
        self.emit(EventKind::MergeStart { partials: self.acc.accepted_count() as u64 })?;
        let wall_us = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let result = std::mem::take(&mut self.acc).finish()?;
        if let Some(w) = self.trace.as_mut() {
            w.emit(EventKind::MergeEnd {
                cells: result.cells.len() as u64,
                groups: result.groups.len() as u64,
            })?;
            w.emit(EventKind::CampaignEnd {
                cells: result.cells.len() as u64,
                errors: result.total_errors(),
                violations: result.total_violations(),
                wall_us,
                counters: self.counters,
            })?;
        }
        if let Some(w) = self.trace.take() {
            w.finish()?;
        }
        eprintln!(
            "serve: campaign complete ({} cells from {} shards) in {:?}",
            result.cells.len(),
            self.plan.shards.len(),
            self.started.elapsed()
        );
        Ok(Some(result))
    }
}
