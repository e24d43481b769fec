//! `specstab-campaign` — a parallel Monte-Carlo campaign engine for
//! speculation profiles.
//!
//! The paper's central object — a protocol's *speculation profile*
//! (Definitions 3–4: stabilization time as a function of the daemon) — is a
//! sweep over a grid of scenarios. This crate runs such grids fast and
//! reproducibly:
//!
//! * [`matrix::ScenarioMatrix`] — builder-enumerated cartesian grids of
//!   (topology spec × protocol spec × daemon spec × fault burst × seed),
//!   every axis a plain string so a cell is fully describable as text;
//! * [`executor::run_campaign`] — a sharded executor (scoped threads +
//!   atomic work cursor) running every cell through
//!   `specstab_kernel::engine::Simulator`, with per-cell seeds derived
//!   purely from cell coordinates so results are independent of thread
//!   count. Protocols are resolved through the name-keyed
//!   `specstab_protocols::registry` into **monomorphized** cell runners
//!   (one `fn` pointer per protocol, no `dyn` in the step loop), so any
//!   registered protocol — SSME, Dijkstra's three token-passing
//!   solutions, `min+1` BFS, maximal matching — joins the grid;
//! * [`stats`] — streaming per-group statistics (count/mean/max via
//!   Welford, p50/p90/p99 via the P² sketch) plus bound-violation counters
//!   checked against `specstab_core::bounds`;
//! * [`artifact`] — deterministic JSON and CSV writers, a strict JSON
//!   reader, and the versioned [`artifact::PartialArtifact`];
//! * [`report`] — speculation-profile tables (stabilization vs daemon
//!   power).
//!
//! Campaigns also run as an explicit **plan → shard → merge** pipeline for
//! multi-process (and, by shipping plan files, multi-machine) execution:
//!
//! * [`plan`] — enumerates a matrix into a JSON-round-trippable
//!   [`plan::CampaignPlan`]: the canonical cell list plus a deterministic,
//!   group-aligned shard partition with stable ids;
//! * [`shard`] — executes one shard into a partial artifact that carries
//!   the full bit-exact state of every statistics accumulator;
//! * [`merge`] — folds any tiling set of partials, in any order, into a
//!   [`CampaignResult`] whose artifacts are byte-identical to a
//!   single-process sweep, incrementally via [`merge::MergeAccumulator`]
//!   (duplicate uploads acknowledged and dropped) or in one shot;
//! * [`serve`] — the one multi-process execution path: `campaign serve`
//!   is an HTTP coordinator leasing shards to elastic `campaign work`
//!   pull-workers, re-dispatching expired leases, folding uploads and the
//!   workers' counter deltas incrementally, and spooling every accepted
//!   partial so a killed coordinator resumes from disk;
//!   `campaign run --workers N` is the same coordinator on loopback with
//!   N local workers;
//! * [`trace`] — the bridge into `specstab-telemetry`: `--trace` streams
//!   versioned `specstab-events/v1` NDJSON from every subcommand, and
//!   `--metrics` derives the runtime sidecar — without perturbing a byte
//!   of the deterministic artifacts.
//!
//! The `campaign` binary exposes all of this on the command line
//! (`campaign plan` / `shard` / `merge` / `serve` / `work` /
//! `run --workers N`).
//!
//! # Example
//!
//! ```
//! use specstab_campaign::executor::{run_campaign, CampaignConfig};
//! use specstab_campaign::matrix::ScenarioMatrix;
//!
//! let matrix = ScenarioMatrix::builder()
//!     .topologies(["ring:8"])
//!     .protocols(["ssme"])
//!     .daemons(["sync"])
//!     .fault_bursts([0])
//!     .seeds(0..4)
//!     .build();
//! let result = run_campaign(&matrix, &CampaignConfig::default());
//! // Theorem 2: zero violations of the ⌈diam/2⌉ synchronous bound.
//! assert_eq!(result.total_violations(), 0);
//! assert_eq!(result.cells.len(), 4);
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod executor;
pub mod matrix;
pub mod merge;
pub mod plan;
pub mod report;
pub mod serve;
pub mod shard;
pub mod stats;
pub mod trace;

pub use artifact::PartialArtifact;
pub use executor::{
    batching_enabled, run_campaign, run_campaign_sequential, set_batching_enabled, CampaignConfig,
    CampaignResult,
};
pub use matrix::{Cell, ScenarioMatrix};
pub use merge::{merge_partials, Accepted, MergeAccumulator};
pub use plan::CampaignPlan;
pub use serve::{run_worker, Coordinator, ServeOptions, WorkOptions};
pub use shard::execute_shard;
pub use stats::OnlineStats;
