//! End-to-end platform simulation: workers drive, report, get
//! assigned, and complete tasks; the server refreshes the mechanism on
//! prior drift.

use std::sync::Arc;
use std::time::Duration;

use mobility::{generate_trace, TraceConfig};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use roadnet::{EdgeId, Location, RoadGraph};
use vlp_core::{Mechanism, Prior};

use crate::service::{MechanismService, ServiceConfig};
use crate::snapshot::metrics;
use crate::worker::{Worker, WorkerId};

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimulationConfig {
    /// Number of vehicle workers.
    pub n_workers: usize,
    /// Kilometres an occupied worker covers per tick.
    pub drive_km_per_tick: f64,
    /// Ticks between assignment snapshots.
    pub snapshot_every: usize,
    /// Probability per tick that a new task is published (at an
    /// interval drawn uniformly).
    pub task_rate: f64,
    /// Idle-motion configuration for the workers.
    pub trace: TraceConfig,
    /// Geo-I privacy budget ε of the mechanism workers download, per km.
    pub epsilon: f64,
    /// Total-variation drift between the assumed prior's report
    /// marginal and the observed report histogram that triggers a
    /// mechanism refresh (§2: the function "is updated by the server
    /// based on the change of the worker's location distribution").
    pub refresh_tv_threshold: f64,
    /// Minimum number of collected reports before drift is evaluated.
    pub refresh_min_reports: usize,
}

impl Default for SimulationConfig {
    fn default() -> Self {
        Self {
            n_workers: 8,
            drive_km_per_tick: 0.15,
            snapshot_every: 3,
            task_rate: 0.6,
            trace: TraceConfig {
                reports: 300,
                ..TraceConfig::default()
            },
            epsilon: 5.0,
            refresh_tv_threshold: 0.2,
            refresh_min_reports: 50,
        }
    }
}

/// Aggregated outcome of a simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimulationReport {
    /// Tasks published over the run.
    pub published_tasks: usize,
    /// Tasks assigned to a worker.
    pub assigned_tasks: usize,
    /// Tasks whose worker arrived.
    pub completed_tasks: usize,
    /// Sum of *true* travel distances of all assignments, km.
    pub true_travel_km: f64,
    /// Sum of the server's *estimated* travel distances, km.
    pub estimated_travel_km: f64,
    /// Mechanism refreshes triggered during the run.
    pub mechanism_refreshes: u64,
}

impl SimulationReport {
    /// Mean absolute gap between estimated and true assignment
    /// distance — the end-to-end realization of the ETDD metric.
    pub fn mean_estimate_gap(&self) -> f64 {
        if self.assigned_tasks == 0 {
            return 0.0;
        }
        (self.estimated_travel_km - self.true_travel_km).abs() / self.assigned_tasks as f64
    }
}

/// The running simulation: the server — a one-shard
/// [`MechanismService`] — plus a fleet of workers.
#[derive(Debug)]
pub struct Simulation {
    service: MechanismService,
    workers: Vec<Worker>,
    config: SimulationConfig,
    rng: StdRng,
    report: SimulationReport,
    tick: usize,
    /// The mechanism the workers downloaded, and its epoch (bumped on
    /// every refresh).
    mechanism: Arc<Mechanism>,
    epoch: u64,
    /// Reported-interval histogram since the last refresh.
    report_counts: Vec<f64>,
    report_total: f64,
}

impl Simulation {
    /// Boots the server on `graph` as a one-shard [`MechanismService`]
    /// — the paper's framework serves a single region, so
    /// `service.n_shards` is overridden to 1; δ, the protection radius,
    /// and the CG options come from `service` — and spawns
    /// `config.n_workers` workers, each with its own trace-driven idle
    /// motion and the mechanism solved at `config.epsilon`.
    ///
    /// # Panics
    ///
    /// Panics if the initial mechanism solve fails, or if `service`
    /// selects locally-relevant mode (assignment needs full mode's
    /// dense interval distances).
    pub fn new(
        graph: RoadGraph,
        service: ServiceConfig,
        config: SimulationConfig,
        seed: u64,
    ) -> Self {
        // Traces are generated on the input graph: the one-shard
        // partition keeps edge ids, so locations carry over unchanged,
        // but it renumbers nodes, which would change the random walks.
        let routes: Vec<Vec<Location>> = (0..config.n_workers)
            .map(|w| {
                let seed = seed.wrapping_mul(31).wrapping_add(w as u64);
                generate_trace(&graph, &config.trace, seed).locations
            })
            .collect();
        let mut service = MechanismService::new(
            graph,
            ServiceConfig {
                n_shards: 1,
                ..service
            },
        );
        let mechanism =
            fetch_mechanism(&mut service, config.epsilon).expect("initial mechanism solve");
        let k = service.shard_instance(0).len();
        let workers = routes
            .into_iter()
            .enumerate()
            .map(|(w, route)| Worker::new(WorkerId(w), route, (*mechanism).clone(), 1))
            .collect();
        Self {
            service,
            workers,
            config,
            rng: StdRng::seed_from_u64(seed ^ 0xD1CE),
            report: SimulationReport::default(),
            tick: 0,
            mechanism,
            epoch: 1,
            report_counts: vec![0.0; k],
            report_total: 0.0,
        }
    }

    /// Runs `ticks` simulation steps and returns the accumulated
    /// report.
    pub fn run(&mut self, ticks: usize) -> SimulationReport {
        for _ in 0..ticks {
            self.step();
        }
        self.report.clone()
    }

    /// Advances the world by one tick.
    pub fn step(&mut self) {
        self.tick += 1;
        // Task arrivals.
        if self.rng.random_range(0.0..1.0) < self.config.task_rate {
            let k = self.service.shard_instance(0).len();
            let interval = self.rng.random_range(0..k);
            self.service.publish_task(0, interval);
            self.report.published_tasks += 1;
        }
        // Worker motion and completions.
        for w in &mut self.workers {
            if w.tick(self.config.drive_km_per_tick).is_some() {
                self.report.completed_tasks += 1;
            }
        }
        // Snapshot assignment.
        if self.tick.is_multiple_of(self.config.snapshot_every) {
            self.snapshot();
        }
    }

    fn snapshot(&mut self) {
        let inst = self.service.shard_instance(0);
        let mut reports = Vec::new();
        for w in &self.workers {
            if let Some(j) = w.report(&inst.graph, &inst.disc, &mut self.rng) {
                reports.push((w.id(), j));
            }
        }
        self.observe(&reports);
        let outcome = self.service.snapshot(0, &reports);
        for (task, worker, est) in outcome.assignments {
            let t = self.service.task(0, task);
            let widx = worker.0;
            let true_iv = inst
                .disc
                .locate(&inst.graph, self.workers[widx].true_location())
                .expect("worker stays on the map");
            let true_km = inst.interval_dists.get(true_iv, t.interval);
            self.workers[widx].assign(task, true_km);
            self.report.assigned_tasks += 1;
            self.report.true_travel_km += true_km;
            self.report.estimated_travel_km += est;
            vlp_obs::global().push(metrics::ASSIGNMENT_DISTORTION_KM, (est - true_km).abs());
        }
        // Prior-drift check; workers re-download on refresh.
        if self.maybe_refresh() {
            for w in &mut self.workers {
                w.download_mechanism((*self.mechanism).clone(), self.epoch);
            }
        }
    }

    /// Folds reported intervals into the drift statistics.
    fn observe(&mut self, reports: &[(WorkerId, usize)]) {
        for &(_, j) in reports {
            if j < self.report_counts.len() {
                self.report_counts[j] += 1.0;
                self.report_total += 1.0;
            }
        }
    }

    /// Checks the drift between the assumed prior's report marginal and
    /// the observed histogram; if it exceeds the configured threshold,
    /// re-estimates the prior from the reports (one EM step through the
    /// current mechanism), installs it on the service, and re-solves
    /// the mechanism. Returns whether a refresh happened.
    fn maybe_refresh(&mut self) -> bool {
        if self.report_total < self.config.refresh_min_reports as f64 {
            return false;
        }
        let f_p = self.service.shard_instance(0).f_p.clone();
        let k = self.report_counts.len();
        // Expected report marginal under the assumed prior.
        let mut expected = vec![0.0; k];
        for i in 0..k {
            let fp = f_p.get(i);
            if fp > 0.0 {
                for (j, e) in expected.iter_mut().enumerate() {
                    *e += fp * self.mechanism.prob(i, j);
                }
            }
        }
        let tv: f64 = expected
            .iter()
            .enumerate()
            .map(|(j, e)| (e - self.report_counts[j] / self.report_total).abs())
            .sum::<f64>()
            / 2.0;
        if tv <= self.config.refresh_tv_threshold {
            return false;
        }
        // One EM step: fold the observed reports back through the
        // posterior to a new prior estimate.
        let mut new_prior = vec![0.0; k];
        for (j, &count) in self.report_counts.iter().enumerate() {
            if count > 0.0 {
                let post = adversary::posterior(&self.mechanism, &f_p, j);
                for (i, p) in post.iter().enumerate() {
                    new_prior[i] += count * p;
                }
            }
        }
        if let Some(p) = Prior::from_weights(&new_prior) {
            self.service.set_worker_prior(0, p);
        }
        self.report_counts.iter_mut().for_each(|c| *c = 0.0);
        self.report_total = 0.0;
        let Some(mechanism) = fetch_mechanism(&mut self.service, self.config.epsilon) else {
            return false;
        };
        self.mechanism = mechanism;
        self.epoch += 1;
        self.report.mechanism_refreshes += 1;
        vlp_obs::global().incr(metrics::REFRESHES, 1);
        true
    }

    /// The server, for inspection.
    pub fn service(&self) -> &MechanismService {
        &self.service
    }

    /// The workers, for inspection.
    pub fn workers(&self) -> &[Worker] {
        &self.workers
    }
}

/// The exact mechanism at `epsilon`, solved (or found cached) by the
/// service — what workers download (§2). A one-request batch at the
/// start of edge 0 (every location routes to the single shard's one
/// cache key) solves a miss and, under an unbounded deadline, waits for
/// the exact tier. The batch's own sample is discarded, so it draws
/// from a throwaway rng and the simulation's stream stays untouched.
/// `None` if the solve failed.
fn fetch_mechanism(service: &mut MechanismService, epsilon: f64) -> Option<Arc<Mechanism>> {
    let _span = vlp_obs::global().start(metrics::RESOLVE_TIME);
    let probe = (WorkerId(0), Location::new(EdgeId(0), 0.0), epsilon);
    let mut rng = StdRng::seed_from_u64(0);
    service.obfuscate_batch_with_deadline(&[probe], Duration::MAX, &mut rng);
    service.cached_mechanism(0, epsilon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators;

    fn sim() -> Simulation {
        Simulation::new(
            generators::grid(3, 3, 0.4, true),
            ServiceConfig {
                delta: 0.2,
                ..ServiceConfig::default()
            },
            SimulationConfig {
                n_workers: 5,
                refresh_min_reports: 10_000,
                ..SimulationConfig::default()
            },
            3,
        )
    }

    #[test]
    fn simulation_completes_tasks() {
        let mut s = sim();
        let report = s.run(60);
        assert!(report.published_tasks > 0);
        assert!(report.assigned_tasks > 0);
        assert!(report.completed_tasks > 0);
        assert!(report.completed_tasks <= report.assigned_tasks);
        assert!(report.true_travel_km >= 0.0);
    }

    #[test]
    fn estimates_track_truth_loosely() {
        let mut s = sim();
        let report = s.run(80);
        // The mechanism is Geo-I-constrained, so estimates are noisy but
        // bounded by the map scale per assignment.
        assert!(
            report.mean_estimate_gap() < 3.0,
            "gap {}",
            report.mean_estimate_gap()
        );
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let g = generators::grid(3, 3, 0.4, true);
        let mk = || {
            Simulation::new(
                g.clone(),
                ServiceConfig {
                    delta: 0.2,
                    ..ServiceConfig::default()
                },
                SimulationConfig {
                    n_workers: 4,
                    refresh_min_reports: 10_000,
                    ..SimulationConfig::default()
                },
                11,
            )
            .run(40)
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn refresh_propagates_to_workers() {
        let mut sim = Simulation::new(
            generators::grid(2, 2, 0.5, true),
            ServiceConfig {
                delta: 0.25,
                ..ServiceConfig::default()
            },
            SimulationConfig {
                n_workers: 6,
                snapshot_every: 1,
                refresh_min_reports: 5,
                refresh_tv_threshold: 0.05,
                ..SimulationConfig::default()
            },
            21,
        );
        let report = sim.run(60);
        if report.mechanism_refreshes > 0 {
            let epoch = sim.epoch;
            for w in sim.workers() {
                assert_eq!(w.mechanism_epoch(), epoch, "worker missed a refresh");
            }
        }
    }

    /// The 2×2 map the drift tests run on, with the default drift
    /// thresholds (TV 0.2 after 50 reports).
    fn drift_sim() -> Simulation {
        Simulation::new(
            generators::grid(2, 2, 0.5, true),
            ServiceConfig {
                delta: 0.25,
                ..ServiceConfig::default()
            },
            SimulationConfig::default(),
            0,
        )
    }

    #[test]
    fn refresh_fires_on_drifted_reports() {
        let mut s = drift_sim();
        // Uniform assumed prior, but every report points at interval 0:
        // drift is large once enough reports accumulate.
        let reports: Vec<(WorkerId, usize)> = (0..60).map(|w| (WorkerId(w), 0)).collect();
        s.observe(&reports);
        let refreshed = s.maybe_refresh();
        assert!(refreshed, "strong drift must trigger a refresh");
        assert_eq!(s.epoch, 2);
        assert_eq!(s.report.mechanism_refreshes, 1);
        // The new prior leans towards interval 0.
        let inst = s.service.shard_instance(0);
        let uniform = 1.0 / inst.disc.len() as f64;
        assert!(inst.f_p.get(0) > uniform);
    }

    #[test]
    fn refresh_does_not_fire_without_enough_reports() {
        let mut s = drift_sim();
        s.observe(&[(WorkerId(0), 0)]);
        assert!(!s.maybe_refresh());
        assert_eq!(s.epoch, 1);
    }

    #[test]
    fn refresh_does_not_fire_on_matching_distribution() {
        let mut s = drift_sim();
        // Feed reports drawn from the model itself (true interval from
        // the assumed prior, report through the mechanism): observed and
        // expected marginals then agree up to sampling noise.
        let mech = Arc::clone(&s.mechanism);
        let prior = s.service.shard_instance(0).f_p.clone();
        let mut rng = StdRng::seed_from_u64(9);
        let reports: Vec<(WorkerId, usize)> = (0..2000)
            .map(|w| {
                let i = prior.sample(&mut rng);
                (WorkerId(w), mech.sample_interval(i, &mut rng))
            })
            .collect();
        s.observe(&reports);
        assert!(
            !s.maybe_refresh(),
            "model-consistent reports should not drift"
        );
    }

    #[test]
    fn snapshot_records_latency_and_assignment_telemetry() {
        let obs = vlp_obs::global();
        let snapshots = obs.counter(metrics::SNAPSHOTS);
        let reports = obs.counter(metrics::REPORTS_RECEIVED);
        let assigned = obs.counter(metrics::ASSIGNMENTS);
        let est_len = obs.series(metrics::ASSIGNMENT_EST_KM).len();
        let mut s = drift_sim();
        s.service.publish_task(0, 0);
        let out = s.service.snapshot(0, &[(WorkerId(0), 0), (WorkerId(1), 1)]);
        assert_eq!(out.assignments.len(), 1);
        // Lower bounds only: tests share the global registry.
        assert!(obs.counter(metrics::SNAPSHOTS) > snapshots);
        assert!(obs.counter(metrics::REPORTS_RECEIVED) >= reports + 2);
        assert!(obs.counter(metrics::ASSIGNMENTS) > assigned);
        assert!(obs.series(metrics::ASSIGNMENT_EST_KM).len() > est_len);
        assert!(obs.timer(metrics::SNAPSHOT_TIME).is_some());
        assert!(obs.timer(metrics::RESOLVE_TIME).is_some());
    }
}
