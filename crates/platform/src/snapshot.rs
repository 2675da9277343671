//! Snapshot task assignment (§2): Hungarian matching of pending tasks
//! to reporting workers by travel cost estimated from the *reported*
//! intervals, plus the `platform.*` telemetry names.

use vlp_core::IntervalDistances;

use crate::{Task, TaskId, WorkerId};

/// Telemetry metric names recorded by the assignment snapshot and, for
/// the distortion, refresh, and re-solve metrics, by the surrounding
/// [`crate::Simulation`], which alone sees true worker locations and
/// owns the prior-drift check; declared in
/// [`vlp_obs::schema::platform`].
pub mod metrics {
    pub use vlp_obs::schema::platform::*;
}

/// The outcome of one assignment snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotOutcome {
    /// `(task, worker, estimated travel km)` triples, one per assigned
    /// task. The estimate is computed from the *reported* interval —
    /// the server never sees true locations.
    pub assignments: Vec<(TaskId, WorkerId, f64)>,
    /// Tasks left unassigned (no reporting workers remained).
    pub unassigned: Vec<TaskId>,
}

/// The snapshot-assignment path behind
/// [`crate::MechanismService::snapshot`]: Hungarian matching of the
/// oldest pending tasks to reporting workers using travel costs
/// estimated from the *reported* intervals, with the standard
/// `platform.*` telemetry. Assigned tasks are drained from `pending`.
pub(crate) fn assign_snapshot(
    interval_dists: &IntervalDistances,
    tasks: &[Task],
    pending: &mut Vec<TaskId>,
    reports: &[(WorkerId, usize)],
) -> SnapshotOutcome {
    let obs = vlp_obs::global();
    let _span = obs.start(metrics::SNAPSHOT_TIME);
    obs.incr(metrics::SNAPSHOTS, 1);
    obs.incr(metrics::REPORTS_RECEIVED, reports.len() as u64);
    if reports.is_empty() || pending.is_empty() {
        return SnapshotOutcome {
            assignments: Vec::new(),
            unassigned: pending.clone(),
        };
    }
    // Hungarian needs rows ≤ columns: assign at most as many tasks
    // as there are reporting workers, oldest tasks first.
    let n_assign = pending.len().min(reports.len());
    let rows: Vec<TaskId> = pending[..n_assign].to_vec();
    let cost: Vec<Vec<f64>> = rows
        .iter()
        .map(|&tid| {
            let t = tasks[tid.0].interval;
            reports
                .iter()
                .map(|&(_, j)| interval_dists.get(j, t))
                .collect()
        })
        .collect();
    let matched = assignment::hungarian(&cost).expect("tasks <= reporting workers");
    let mut assignments = Vec::with_capacity(n_assign);
    for (row, &col) in matched.pairs.iter().enumerate() {
        let (worker, reported) = reports[col];
        let task = rows[row];
        let est = interval_dists.get(reported, tasks[task.0].interval);
        assignments.push((task, worker, est));
    }
    obs.incr(metrics::ASSIGNMENTS, assignments.len() as u64);
    let est_kms: Vec<f64> = assignments.iter().map(|&(_, _, est)| est).collect();
    obs.extend(metrics::ASSIGNMENT_EST_KM, &est_kms);
    pending.drain(..n_assign);
    SnapshotOutcome {
        assignments,
        unassigned: pending.clone(),
    }
}
