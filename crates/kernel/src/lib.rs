//! Simulation kernel for self-stabilizing distributed protocols in
//! Dijkstra's atomic-state model.
//!
//! The model (Section 2 of Dubois & Guerraoui, PODC 2013): processes are
//! vertices of a communication graph; each process owns a set of variables
//! and can atomically read the states of all its neighbors. A *distributed
//! protocol* is a set of guarded rules per vertex; an *action* moves the
//! system from one configuration to the next by activating a subset of the
//! enabled vertices, all of which compute their new state from the **old**
//! configuration. The *daemon* (adversary) chooses the activated subset at
//! every step.
//!
//! Main pieces:
//!
//! * [`config::Configuration`] — an assignment of states to all vertices;
//! * [`protocol::Protocol`] — protocols as guarded rules over a local
//!   [`protocol::View`] that enforces the locality discipline;
//! * [`daemon`] — the daemon trait, the taxonomy partial order of Def. 2,
//!   and a zoo of schedulers (synchronous, central, random distributed,
//!   greedy adversarial, ...);
//! * [`engine::Simulator`] — the step loop with pluggable [`observer`]s;
//! * [`batch`] — replica-parallel batched stepping: K seed-replicas in
//!   structure-of-arrays lanes under the synchronous daemon;
//! * [`measure`] — stabilization-time measurement (Def. 3);
//! * [`search`] — exhaustive worst-case analysis on small instances by
//!   materializing the configuration game graph;
//! * [`fault`] — transient-fault injection.
//!
//! # Example: a trivial "max propagation" protocol
//!
//! ```
//! use specstab_kernel::config::Configuration;
//! use specstab_kernel::daemon::SynchronousDaemon;
//! use specstab_kernel::engine::{RunLimits, Simulator};
//! use specstab_kernel::protocol::{Protocol, RuleId, RuleInfo, View};
//! use specstab_topology::{generators, VertexId};
//!
//! struct MaxProto;
//! impl Protocol for MaxProto {
//!     type State = u32;
//!     fn name(&self) -> String { "max".into() }
//!     fn rules(&self) -> Vec<RuleInfo> { vec![RuleInfo::new("ADOPT")] }
//!     fn enabled_rule(&self, view: &View<'_, u32>) -> Option<RuleId> {
//!         let best = view.neighbor_states().map(|(_, &s)| s).max().unwrap_or(0);
//!         (best > *view.state()).then_some(RuleId::new(0))
//!     }
//!     fn apply(&self, view: &View<'_, u32>, _rule: RuleId) -> u32 {
//!         view.neighbor_states().map(|(_, &s)| s).max().unwrap()
//!     }
//!     fn random_state(&self, _v: VertexId, rng: &mut rand::rngs::StdRng) -> u32 {
//!         use rand::Rng;
//!         rng.gen_range(0..100)
//!     }
//! }
//!
//! let g = generators::path(5).expect("n >= 1");
//! let sim = Simulator::new(&g, &MaxProto);
//! let init = Configuration::from_fn(g.n(), |v| v.index() as u32);
//! let mut daemon = SynchronousDaemon::new();
//! let summary = sim.run(init, &mut daemon, RunLimits::with_max_steps(100), &mut []);
//! assert!(summary.final_config.states().iter().all(|&s| s == 4));
//! ```
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod config;
pub mod daemon;
pub mod engine;
pub mod fault;
pub mod harness;
pub mod measure;
pub mod observer;
pub mod protocol;
pub mod search;
pub mod spec;

pub use batch::{run_batch, LaneMeasure, PackedProtocol};
pub use config::Configuration;
pub use daemon::{Daemon, DaemonClass};
pub use engine::{RunLimits, RunSummary, Simulator, StepScratch};
pub use protocol::{Protocol, RuleId, RuleInfo, View};
