//! `specstab-serve` — the networked campaign transport: an HTTP/1.1 shard
//! coordinator with deadline-tracked leases, elastic pull-workers, and
//! incremental spool-backed merging.
//!
//! The plan layer makes a campaign a text-describable [`CampaignPlan`]
//! plus order-independent mergeable partials; this module is the
//! transport between them, and the one path by which a campaign runs in
//! more than one process: `campaign serve` + `campaign work` across
//! machines, and `campaign run --workers N` as a loopback coordinator
//! plus N local `campaign work` processes. The model is deliberately
//! minimal:
//!
//! * [`coordinator::Coordinator`] owns the plan, leases shards to whoever
//!   asks, re-dispatches leases that expire (straggler tolerance),
//!   validates and folds uploaded partials incrementally via
//!   [`MergeAccumulator`](crate::merge::MergeAccumulator), sums the
//!   workers' uploaded engine counters, and persists every accepted
//!   partial to a spool directory — *a partial on disk is a checkpoint*,
//!   so a killed coordinator resumes where it stopped;
//! * [`worker::run_worker`] (`campaign work`) is the pull loop: fetch the
//!   plan, lease, execute via [`execute_shard`](crate::shard::execute_shard),
//!   upload the partial with the shard's counter delta under
//!   bounded-jittered retries, renew long leases from a sidecar thread,
//!   exit when the coordinator says done (or vanishes);
//! * [`http`] is a hand-rolled, dependency-free HTTP/1.1 framing layer in
//!   the same spirit as the workspace's hand-rolled JSON reader;
//! * [`wire`] defines the JSON payloads (lease grant/wait/done, upload
//!   accepted/duplicate/rejected, renew, the counters header) both ends
//!   build and parse through the strict JSON layer.
//!
//! Every reordering, retry, duplication, or re-execution the network can
//! produce lands in the same [`MergeAccumulator`] the offline pipeline
//! uses, so the served campaign's final artifact stays **byte-identical**
//! to a single-process run of the same plan.
//!
//! [`CampaignPlan`]: crate::plan::CampaignPlan
//! [`MergeAccumulator`]: crate::merge::MergeAccumulator

pub mod coordinator;
pub mod http;
pub mod wire;
pub mod worker;

pub use coordinator::{Coordinator, ServeOptions};
pub use worker::{run_worker, WorkOptions, WorkerSummary};
