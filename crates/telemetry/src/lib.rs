//! `specstab-telemetry` — the observability substrate shared by the
//! kernel, the campaign pipeline, and the bench harness.
//!
//! Reproducing the paper's quantitative claims means running multi-minute,
//! thousand-cell campaigns; this crate makes those runs observable without
//! perturbing their outputs:
//!
//! * [`counters`] — cheap per-run engine counters (steps, moves, guard
//!   evaluations, delta bytes) accumulated in plain locals by the step loop
//!   and flushed to a process-global lock-free aggregate once per run,
//!   plus process-wide instruments (scratch reuses, configuration clones);
//!   [`CounterSnapshot`] deltas add field-wise and have one JSON codec,
//!   shared by event streams, metrics sidecars and serve uploads;
//! * [`json`] — the workspace's hand-rolled JSON value type: deterministic
//!   insertion-ordered writer (pretty and compact) and a strict,
//!   depth-bounded recursive-descent reader;
//! * [`event`] — the versioned `specstab-events/v1` NDJSON event stream:
//!   campaign/plan/shard/cell/merge lifecycle events with per-stream
//!   monotonic sequence numbers and timestamps, a buffered
//!   [`event::TraceWriter`], and the strict reader and validator;
//! * [`metrics`] — the `specstab-metrics/v1` sidecar artifact (wall clock
//!   per cell/group/shard, throughput, counter totals) built from an event
//!   stream, kept strictly separate from the deterministic campaign
//!   artifacts;
//! * [`progress`] — rate-limited stderr heartbeats: cells done/total with
//!   throughput and ETA for in-process sweeps, and a lease-table variant
//!   (leased/completed/expired/merged) for the `campaign serve`
//!   coordinator.
//!
//! The deliberate invariant threaded through all of it: **telemetry never
//! enters deterministic artifacts**. Wall clock, counters and host facts
//! live only in event streams and metrics sidecars, so the byte-identity
//! guarantees of `campaign.json` survive with tracing enabled.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod event;
pub mod json;
pub mod metrics;
pub mod progress;

pub use counters::{global, BatchDaemonClass, CounterSnapshot, RunCounters};
pub use event::{parse_ndjson, validate_events, Event, EventKind, TraceWriter, EVENTS_SCHEMA};
pub use json::{obj, Json, MAX_PARSE_DEPTH};
pub use metrics::{metrics_from_events, METRICS_SCHEMA};
pub use progress::{Heartbeat, ServeCounts, ServeHeartbeat};
