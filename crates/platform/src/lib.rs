//! The vehicle-based spatial-crowdsourcing platform of the paper's
//! framework section (§2, Fig. 2).
//!
//! The paper's system has two sides:
//!
//! * **Server** — publishes tasks, computes the obfuscation function
//!   (via `vlp-core`), distributes it to workers, collects obfuscated
//!   reports before each *snapshot* of task assignment, assigns tasks
//!   by estimated travel cost, and *updates the obfuscation function
//!   when the workers' location distribution drifts* ("the function is
//!   updated by the server based on the change of the worker's location
//!   distribution (estimated by the worker's reported location)");
//! * **Workers** — label themselves `available` / `occupied`, report
//!   obfuscated locations only while available, head to the assigned
//!   task instantly upon assignment, and return to `available` after
//!   completion.
//!
//! The server is a [`MechanismService`]: it shards the map into
//! regions, caches solved mechanisms per `(shard, ε-bucket)` in a
//! bounded LRU, serves under a solve deadline with a
//! privacy-preserving graph-Laplace fallback, and assigns tasks at
//! snapshots — see [`service`]. The service also climbs a *resilience
//! ladder* (retry → circuit breaker → stale serving → fallback) under
//! injected faults, degrading utility but never the ε-Geo-I guarantee;
//! `OPERATIONS.md` is the runbook.
//!
//! [`Simulation`] wires both sides over a road network, with a
//! one-shard service as the single-region server, trace-driven worker
//! motion, and the prior-drift refresh; it reports end-to-end metrics
//! (true travel distance of assignments, completion counts, mechanism
//! refreshes). Every piece of the workspace participates: `roadnet`
//! supplies the map, `mobility` the motion, `vlp-core` the mechanism,
//! `assignment` the matching.
//!
//! # Example
//!
//! ```
//! use platform::{ServiceConfig, Simulation, SimulationConfig};
//! use roadnet::generators;
//!
//! let graph = generators::grid(3, 3, 0.4, true);
//! let service = ServiceConfig {
//!     delta: 0.2,
//!     ..ServiceConfig::default()
//! };
//! let mut sim = Simulation::new(graph, service, SimulationConfig {
//!     n_workers: 4,
//!     epsilon: 5.0,
//!     ..SimulationConfig::default()
//! }, 7);
//! let report = sim.run(40);
//! assert!(report.completed_tasks > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod service;
mod simulation;
mod snapshot;
mod worker;

pub use service::{
    BreakerState, LocalConfig, MechanismService, Obfuscation, ResilienceConfig, Response, Served,
    ServiceConfig, ServiceHandle, ServiceHealth, ShardHealth, ShutdownReport, TierPolicy,
    TraceBudgetConfig, VelocityEpsilon,
};
pub use simulation::{Simulation, SimulationConfig, SimulationReport};
pub use snapshot::{metrics, SnapshotOutcome};
pub use worker::{Worker, WorkerId, WorkerStatus};

/// Identifier of a published task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// A spatial task: something a worker must physically reach.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Task {
    /// Identifier assigned at publication.
    pub id: TaskId,
    /// The interval the task is located in.
    pub interval: usize,
}
