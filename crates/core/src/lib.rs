//! Vehicle-based spatial-crowdsourcing location privacy (VLP) via
//! geo-indistinguishability over road networks.
//!
//! This crate implements the primary contribution of *"Location Privacy
//! Protection in Vehicle-Based Spatial Crowdsourcing via
//! Geo-Indistinguishability"* (Qiu et al., ICDCS 2019 / TMC 2020): an
//! optimization pipeline that computes, for a vehicle constrained to a
//! road network, the location-obfuscation distribution that minimizes
//! the expected traveling-distance distortion (quality loss) while
//! satisfying `(ε, r)`-geo-indistinguishability measured by *road*
//! distance.
//!
//! # Pipeline
//!
//! 1. [`Discretization`] partitions every road segment into δ-length
//!    intervals (§4.1) and [`AuxiliaryGraph`] links adjacent intervals
//!    (Definition 4.1);
//! 2. [`CostMatrix`] assembles the discretized quality-loss
//!    coefficients `c_{i,l}` from the worker prior `f_P` and the task
//!    prior `f_Q` (Eq. 19);
//! 3. [`PrivacySpec`] carries the Geo-I constraints — either the full
//!    `O(K³)`-row set ([`PrivacySpec::full`]) or the loss-free reduced
//!    set of §4.2 ([`constraint_reduction::reduced_spec`]);
//! 4. the LP is solved either directly ([`dvlp::solve_direct`], for
//!    ground truth) or by Dantzig-Wolfe column generation
//!    ([`column_generation::solve_column_generation`], §4.3) with
//!    parallel pricing and the early-stopping threshold `ξ`;
//! 5. the resulting [`Mechanism`] is sampled per report
//!    ([`Mechanism::sample_location`]) and can be serialized for the
//!    worker-download flow of §2.
//!
//! [`VlpInstance`] bundles steps 1–4 behind one call. [`baseline`]
//! provides the 2-D-plane comparison mechanisms of §5 and the
//! closed-form [`baseline::graph_laplace`] fallback served under solve
//! deadlines ([`VlpInstance::fallback`]); [`bounds`] the closed-form
//! quality floors of §4.4. Served mechanisms — optimal or fallback —
//! are audited with [`privacy::verify`].
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use roadnet::generators;
//! use vlp_core::{CgOptions, VlpInstance};
//!
//! let graph = generators::grid(2, 2, 0.5, true);
//! let inst = VlpInstance::uniform(graph, 0.5);
//! let solved = inst.solve(2.0, f64::INFINITY, &CgOptions::default())?;
//!
//! // A worker samples an obfuscated location for a true location.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let p = inst.disc.interval(0).midpoint();
//! let reported = solved
//!     .mechanism
//!     .sample_location(&inst.graph, &inst.disc, p, &mut rng)
//!     .expect("p lies on the map");
//! assert!(inst.disc.locate(&inst.graph, reported).is_some());
//! # Ok::<(), vlp_core::VlpError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod auxiliary;
pub mod baseline;
pub mod bounds;
pub mod column_generation;
pub mod constraint_reduction;
mod cost;
mod discretize;
pub mod dvlp;
mod error;
mod fan_out;
mod instance;
pub mod local;
mod mechanism;
pub mod privacy;
pub mod tiers;

pub use auxiliary::{aux_road_graph, AuxiliaryGraph};
pub use column_generation::{solve_column_generation, CgDiagnostics, CgOptions};
pub use cost::{CostMatrix, IntervalDistances, Prior};
pub use discretize::{Discretization, Interval};
pub use error::VlpError;
pub use instance::{SolvedVlp, VlpInstance};
pub use local::{LocalShard, LocalSolve, LocalityPlan, Neighborhood};
pub use mechanism::Mechanism;
pub use privacy::{PrivacyConstraint, PrivacySpec};
pub use tiers::{clustered_mechanism, QualityTier, TierSolve};
