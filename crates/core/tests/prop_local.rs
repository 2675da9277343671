//! Property-based tests for the locally-relevant solve mode
//! (`vlp_core::local`): radius-∞ equivalence with the full-shard solve
//! and ε-validity of restricted mechanisms at arbitrary finite radii.

use proptest::prelude::*;
use roadnet::{generators, RoadGraph};
use vlp_core::{privacy, CgOptions, LocalShard, VlpInstance};

fn arb_graph() -> impl Strategy<Value = RoadGraph> {
    prop_oneof![
        (2usize..4, 2usize..4, 0.3f64..0.7)
            .prop_map(|(nx, ny, s)| generators::grid(nx, ny, s, true)),
        (3usize..4, 3usize..4, 0.25f64..0.45)
            .prop_map(|(nx, ny, s)| generators::downtown(nx, ny, s)),
        (1usize..3, 3usize..5, 0.3f64..0.6, 0u64..50)
            .prop_map(|(r, s, g, seed)| generators::rome_like(r, s, g, seed)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (a) Radius-∞ equivalence: a locally-relevant solve whose support
    /// covers the whole map is bit-identical to the full-shard solve —
    /// on both engines. The dense engine delegates; the sparse engine
    /// (one ∞-radius neighborhood) must reproduce the exact same
    /// mechanism through its lazily built dense instance.
    #[test]
    fn radius_infinity_is_bit_identical_to_full_shard(
        graph in arb_graph(),
        delta in 0.25f64..0.5,
        eps in 1.0f64..8.0,
        radius in 0.2f64..0.8,
    ) {
        let inst = VlpInstance::uniform(graph.clone(), delta);
        let opts = CgOptions::default();
        let full_support: Vec<usize> = (0..inst.len()).collect();
        let baseline = inst.solve(eps, radius, &opts).unwrap();
        let dense = inst.solve_local(eps, radius, &full_support, &opts).unwrap();
        prop_assert_eq!(&baseline.mechanism, &dense.mechanism);
        prop_assert_eq!(
            baseline.quality_loss.to_bits(),
            dense.quality_loss.to_bits()
        );

        let shard = LocalShard::uniform(graph, delta, f64::INFINITY, radius);
        prop_assert_eq!(shard.plan().neighborhood_count(), 1);
        let sparse = shard.solve_neighborhood(0, eps, &opts).unwrap();
        prop_assert_eq!(&baseline.mechanism, &sparse.mechanism);
        prop_assert_eq!(
            baseline.quality_loss.to_bits(),
            sparse.quality_loss.to_bits()
        );
    }

    /// (b) Finite-radius safety: for arbitrary finite assignment and
    /// protection radii, every neighborhood the sparse engine can serve
    /// — optimally solved or fallback — passes `privacy::verify`
    /// against the unreduced restricted spec with full-graph `d_min`
    /// exponents (while the solved LP, chain-reduced, has no more rows
    /// than that spec), and every interval's `r`-ball is inside its
    /// assigned support (the locality theorem).
    #[test]
    fn finite_radii_never_yield_invalid_mechanisms(
        graph in arb_graph(),
        delta in 0.25f64..0.5,
        eps in 1.0f64..8.0,
        rho in 0.1f64..0.6,
        protection in 0.1f64..0.6,
    ) {
        let inst = VlpInstance::uniform(graph.clone(), delta);
        let shard = LocalShard::uniform(graph, delta, rho, protection);
        let plan = shard.plan();

        // Locality theorem, exhaustively on the dense distances.
        for i in 0..inst.len() {
            let hood = plan.neighborhood(plan.assignment(i));
            for l in 0..inst.len() {
                if inst.aux.distance_min(i, l) <= protection {
                    prop_assert!(
                        hood.members.binary_search(&l).is_ok(),
                        "interval {} within r of {} but outside its support",
                        l, i
                    );
                }
            }
        }

        // Solve + audit a deterministic sample of neighborhoods (all of
        // them when few) and the fallback of every sampled one.
        let n = plan.neighborhood_count() as u32;
        let step = (n / 3).max(1);
        let mut nb = 0;
        while nb < n {
            let solved = shard.solve_neighborhood(nb, eps, &CgOptions::default()).unwrap();
            let spec = shard.audit_spec(nb, eps);
            prop_assert!(
                privacy::verify(&solved.mechanism, &spec, 1e-6),
                "solved mechanism for nb {} violates its restricted spec", nb
            );
            let k = solved.support.len();
            prop_assert_eq!(solved.lp_vars, k * k);
            prop_assert!(solved.lp_rows <= spec.lp_row_count(k));
            let fallback = shard.fallback_neighborhood(nb, eps);
            prop_assert!(
                privacy::verify(&fallback, &spec, 1e-9),
                "fallback for nb {} violates its restricted spec", nb
            );
            nb += step;
        }
    }
}
