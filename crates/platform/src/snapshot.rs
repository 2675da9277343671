//! Snapshot task assignment (§2): Hungarian matching of pending tasks
//! to reporting workers by travel cost estimated from the *reported*
//! intervals, plus the `platform.*` telemetry names.

use vlp_core::IntervalDistances;

use crate::{Task, TaskId, WorkerId};

/// Telemetry metric names recorded by the assignment snapshot and, for
/// the distortion, refresh, and re-solve metrics, by the surrounding
/// [`crate::Simulation`], which alone sees true worker locations and
/// owns the prior-drift check.
pub mod metrics {
    /// Counter: assignment snapshots served.
    pub const SNAPSHOTS: &str = "platform.snapshots";
    /// Timer: wall time of one assignment snapshot (report intake plus
    /// Hungarian matching) — the per-request report latency.
    pub const SNAPSHOT_TIME: &str = "platform.snapshot";
    /// Counter: obfuscated worker reports received across snapshots.
    pub const REPORTS_RECEIVED: &str = "platform.reports_received";
    /// Counter: task-worker assignments made.
    pub const ASSIGNMENTS: &str = "platform.assignments";
    /// Series: the server's estimated travel distance per assignment,
    /// km (computed from the *reported* interval).
    pub const ASSIGNMENT_EST_KM: &str = "platform.assignment_est_km";
    /// Series: per-assignment distortion `|estimated − true|` travel
    /// km — recorded by [`crate::Simulation`], which knows true
    /// locations; the server itself never does.
    pub const ASSIGNMENT_DISTORTION_KM: &str = "platform.assignment_distortion_km";
    /// Counter: mechanism refreshes triggered by prior drift.
    pub const REFRESHES: &str = "platform.refreshes";
    /// Timer: wall time of one mechanism (re-)solve, including
    /// constraint reduction and column generation.
    pub const RESOLVE_TIME: &str = "platform.mechanism_resolve";
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
