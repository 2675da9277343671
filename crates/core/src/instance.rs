//! Convenience bundle: a fully prepared VLP problem instance.

use roadnet::{NodeDistances, RoadGraph};

use crate::auxiliary::AuxiliaryGraph;
use crate::column_generation::{solve_column_generation, CgDiagnostics, CgOptions};
use crate::constraint_reduction::reduced_spec;
use crate::cost::{CostMatrix, IntervalDistances, Prior};
use crate::discretize::Discretization;
use crate::error::VlpError;
use crate::mechanism::Mechanism;
use crate::privacy::PrivacySpec;

/// Everything needed to pose and solve D-VLP on one map: the graph and
/// its distances, the discretization and auxiliary graph, the priors,
/// and the cost matrix.
///
/// # Example
///
/// ```
/// use roadnet::generators;
/// use vlp_core::{CgOptions, VlpInstance};
///
/// let graph = generators::grid(2, 2, 0.5, true);
/// let inst = VlpInstance::uniform(graph, 0.5);
/// let solved = inst.solve(2.0, f64::INFINITY, &CgOptions::default())?;
/// assert!(solved.mechanism.is_row_stochastic(1e-6));
/// # Ok::<(), vlp_core::VlpError>(())
/// ```
#[derive(Debug, Clone)]
pub struct VlpInstance {
    /// The road network.
    pub graph: RoadGraph,
    /// All-pairs connection distances on [`Self::graph`].
    pub node_dists: NodeDistances,
    /// The δ-interval partition.
    pub disc: Discretization,
    /// The auxiliary interval graph and its distances.
    pub aux: AuxiliaryGraph,
    /// Travel distances between interval representatives.
    pub interval_dists: IntervalDistances,
    /// Worker location prior `f_P` over intervals.
    pub f_p: Prior,
    /// Task location prior `f_Q` over intervals.
    pub f_q: Prior,
    /// The D-VLP cost matrix built from the above.
    pub cost: CostMatrix,
}

/// A solved instance: the mechanism plus solve metadata.
#[derive(Debug, Clone)]
pub struct SolvedVlp {
    /// The optimized obfuscation mechanism.
    pub mechanism: Mechanism,
    /// The achieved quality loss (ETDD).
    pub quality_loss: f64,
    /// The `(ε, r)`-Geo-I spec that was enforced (constraint-reduced).
    pub spec: PrivacySpec,
    /// Column-generation diagnostics.
    pub diagnostics: CgDiagnostics,
}

impl VlpInstance {
    /// Builds an instance with the given priors.
    ///
    /// # Panics
    ///
    /// Panics if the priors' dimension differs from the number of
    /// intervals produced by discretizing at `delta`.
    pub fn new(graph: RoadGraph, delta: f64, f_p: Prior, f_q: Prior) -> Self {
        let disc = Discretization::new(&graph, delta);
        Self::with_disc(graph, disc, f_p, f_q)
    }

    /// Builds an instance with uniform worker and task priors.
    pub fn uniform(graph: RoadGraph, delta: f64) -> Self {
        let disc = Discretization::new(&graph, delta);
        let prior = Prior::uniform(disc.len());
        Self::with_disc(graph, disc, prior.clone(), prior)
    }

    /// [`Self::new`] on a discretization of `graph` built by the caller.
    pub(crate) fn with_disc(
        graph: RoadGraph,
        disc: Discretization,
        f_p: Prior,
        f_q: Prior,
    ) -> Self {
        let node_dists = NodeDistances::all_pairs(&graph);
        assert_eq!(f_p.len(), disc.len(), "f_P dimension mismatch");
        assert_eq!(f_q.len(), disc.len(), "f_Q dimension mismatch");
        let aux = AuxiliaryGraph::build(&graph, &disc);
        let interval_dists = IntervalDistances::build(&graph, &node_dists, &disc);
        let cost = CostMatrix::build(&interval_dists, &f_p, &f_q);
        Self {
            graph,
            node_dists,
            disc,
            aux,
            interval_dists,
            f_p,
            f_q,
            cost,
        }
    }

    /// Number of intervals `K`.
    pub fn len(&self) -> usize {
        self.disc.len()
    }

    /// Whether the instance has no intervals.
    pub fn is_empty(&self) -> bool {
        self.disc.is_empty()
    }

    /// Solves D-VLP at `(epsilon, radius)`-Geo-I via constraint
    /// reduction followed by column generation.
    ///
    /// # Errors
    ///
    /// Propagates solver failures as [`VlpError`].
    pub fn solve(
        &self,
        epsilon: f64,
        radius: f64,
        opts: &CgOptions,
    ) -> Result<SolvedVlp, VlpError> {
        let spec = reduced_spec(&self.aux, epsilon, radius);
        let (mechanism, quality_loss, diagnostics) =
            solve_column_generation(&self.cost, &spec, opts)?;
        Ok(SolvedVlp {
            mechanism,
            quality_loss,
            spec,
            diagnostics,
        })
    }

    /// The closed-form fallback mechanism for this instance at budget
    /// `epsilon`: the graph-Laplace construction
    /// ([`crate::baseline::graph_laplace`]), which satisfies
    /// `(ε, r)`-Geo-I for every radius without an LP solve. Serving
    /// layers return it when [`Self::solve`] cannot finish within a
    /// deadline — quality is sacrificed, ε never is.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is not positive.
    pub fn fallback(&self, epsilon: f64) -> Mechanism {
        crate::baseline::graph_laplace(&self.aux, epsilon)
    }

    /// Replaces the worker prior `f_P` and rebuilds the cost matrix.
    /// The graph, discretization, and distances are untouched, so this
    /// is the cheap path for prior-drift refreshes.
    ///
    /// # Panics
    ///
    /// Panics if the prior's dimension differs from the interval
    /// count.
    pub fn set_worker_prior(&mut self, f_p: Prior) {
        assert_eq!(f_p.len(), self.disc.len(), "f_P dimension mismatch");
        self.f_p = f_p;
        self.cost = CostMatrix::build(&self.interval_dists, &self.f_p, &self.f_q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators;

    #[test]
    fn uniform_instance_solves() {
        let g = generators::grid(2, 2, 0.5, true);
        let inst = VlpInstance::uniform(g, 0.5);
        let solved = inst
            .solve(2.0, f64::INFINITY, &CgOptions::default())
            .unwrap();
        assert!(solved.quality_loss >= 0.0);
        assert!(solved.mechanism.max_violation(&solved.spec) <= 1e-6);
        assert!(solved.diagnostics.iterations >= 1);
    }

    #[test]
    #[should_panic(expected = "f_P dimension mismatch")]
    fn rejects_misdimensioned_priors() {
        let g = generators::grid(2, 2, 0.5, true);
        VlpInstance::new(g, 0.5, Prior::uniform(3), Prior::uniform(3));
    }
}
