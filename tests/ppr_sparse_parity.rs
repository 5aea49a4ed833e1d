//! Property tests pinning the sparse PPR execution core to the dense
//! reference:
//!
//! - `epsilon = 0`: the frontier iteration must be **bit-for-bit**
//!   identical to the dense power iteration, on the CSR backend and on
//!   both backends behind [`ErasedGraph`] — any divergence breaks the
//!   engine's exact-parity contract.
//! - `epsilon > 0`: the pruned iteration must stay within the
//!   epsilon-derived L1 bound the run itself reports
//!   (`Σ_t dropped_t · c^(K−t+1)`, see `nck_core::ppr`), and within the
//!   coarse analytic bound `iterations · ε · |V|`.
//! - Per-seed runs, the only way the engine computes a PageRank vector:
//!   a workspace reused across seeds (as the engine's pool hands them
//!   out) answers exactly as a fresh one, and fanning the seeds across
//!   workers in any pull order returns the same bits in seed order.

#![forbid(unsafe_code)]

use std::sync::Mutex;

use notable_characteristics::core::config::PprConfig;
use notable_characteristics::core::parallel;
use notable_characteristics::core::ppr::{PersonalizedPageRank, PprOutcome, PprWorkspace};
use notable_characteristics::core::score::ScoreVec;
use notable_characteristics::graph::builder::GraphBuilder;
use notable_characteristics::graph::{
    CompactGraph, ErasedGraph, GraphAccess, KnowledgeGraph, NodeId,
};
use proptest::prelude::*;

/// Strategy: triples over small universes plus a source pick and a
/// damping choice (0 → low damping, 1 → high).
fn cases() -> impl Strategy<Value = (Vec<(u8, u8, u8)>, u8, u8)> {
    (
        prop::collection::vec((0u8..24, 0u8..5, 0u8..24), 1..70),
        0u8..24,
        0u8..2,
    )
}

fn build(triples: &[(u8, u8, u8)]) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for &(s, p, o) in triples {
        b.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
    }
    // The source pick must always resolve, so every candidate node occurs
    // in a triple.
    for i in 0..24 {
        b.add_triple(&format!("n{i}"), "exists", "universe");
    }
    b.build()
}

fn config(damping_low: u8, epsilon: f64) -> PprConfig {
    PprConfig {
        damping: if damping_low == 0 { 0.2 } else { 0.8 },
        iterations: 10,
        parallel: false,
        epsilon,
    }
}

fn bits(v: &ScoreVec) -> Vec<u64> {
    v.to_dense().iter().map(|x| x.to_bits()).collect()
}

/// Every bit of one run: scores, dropped mass and the reported L1 bound.
fn outcome_bits(o: &PprOutcome) -> (Vec<u64>, u64, u64) {
    (
        bits(&o.scores),
        o.dropped_mass.to_bits(),
        o.l1_bound.to_bits(),
    )
}

/// ε = 0 for `eps_exp == 0`, else `10^-eps_exp`.
fn epsilon(eps_exp: u32) -> f64 {
    if eps_exp == 0 {
        0.0
    } else {
        10f64.powi(-(eps_exp as i32))
    }
}

/// Resolves `n{i}` names on `graph`, in its own id space.
fn resolve<G: GraphAccess>(graph: &G, picks: &[u8]) -> Vec<NodeId> {
    picks
        .iter()
        .map(|i| graph.node_by_name(&format!("n{i}")).unwrap())
        .collect()
}

/// One workspace carried across `seeds` in order: each frontier run
/// must equal a run on a fresh workspace, bit for bit.
fn assert_reuse_is_exact<G: GraphAccess>(graph: G, picks: &[u8], cfg: PprConfig) {
    let seeds = resolve(&graph, picks);
    let ppr = PersonalizedPageRank::new(graph, cfg).unwrap();
    let mut reused = PprWorkspace::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let got = ppr.frontier_outcome(&[seed], &mut reused);
        let want = ppr.frontier_outcome(&[seed], &mut PprWorkspace::new());
        prop_assert_eq!(
            outcome_bits(&got),
            outcome_bits(&want),
            "run {} (seed {:?}) diverged on a reused workspace",
            i,
            seed
        );
    }
}

/// Per-seed runs fanned across workers that pull in `costs` order and
/// share a workspace pool, against one sequential pass in seed order.
fn assert_fan_out_is_exact<G: GraphAccess + Sync>(
    graph: G,
    picks: &[u8],
    costs: &[u64],
    cfg: PprConfig,
) {
    let seeds = resolve(&graph, picks);
    let ppr = PersonalizedPageRank::new(graph, cfg).unwrap();
    let mut ws = PprWorkspace::new();
    let want: Vec<_> = seeds
        .iter()
        .map(|&s| outcome_bits(&ppr.run_outcome(&[s], &mut ws)))
        .collect();
    let pool: Mutex<Vec<PprWorkspace>> = Mutex::new(Vec::new());
    let got = parallel::map_costliest_first(
        seeds.len(),
        |i| costs[i % costs.len()],
        |i| {
            let mut ws = pool.lock().unwrap().pop().unwrap_or_default();
            let out = outcome_bits(&ppr.run_outcome(&[seeds[i]], &mut ws));
            pool.lock().unwrap().push(ws);
            out
        },
    );
    prop_assert_eq!(got, want, "fan-out changed an answer or its place");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The ε = 0 frontier executor is the dense power iteration, bit
    /// for bit, across all three backend configurations (`run` itself
    /// dispatches to `run_dense` at ε = 0 — `frontier_outcome` drives
    /// the frontier path directly).
    #[test]
    fn epsilon_zero_is_exact_on_every_backend((ts, src, low) in cases()) {
        let kg = build(&ts);
        let source = kg.node_by_name(&format!("n{src}")).unwrap();
        let cfg = config(low, 0.0);
        let mut ws = PprWorkspace::new();

        let csr = PersonalizedPageRank::new(&kg, cfg.clone()).unwrap();
        let want: Vec<u64> = csr.run_dense(&[source]).iter().map(|x| x.to_bits()).collect();

        // CSR, direct: frontier executor and public dispatch path.
        prop_assert_eq!(&bits(&csr.frontier_outcome(&[source], &mut ws).scores), &want);
        prop_assert_eq!(&bits(&csr.run(&[source])), &want);

        // Both backends behind runtime erasure.
        for erased in [
            ErasedGraph::new(CompactGraph::from_graph(&kg)),
            ErasedGraph::new(kg),
        ] {
            let e_src = erased.node_by_name(&format!("n{src}")).unwrap();
            let ppr = PersonalizedPageRank::new(erased, cfg.clone()).unwrap();
            let want_e: Vec<u64> =
                ppr.run_dense(&[e_src]).iter().map(|x| x.to_bits()).collect();
            prop_assert_eq!(&bits(&ppr.frontier_outcome(&[e_src], &mut ws).scores), &want_e);
        }
    }

    /// ε > 0 pruning stays within both the per-run reported bound and
    /// the coarse analytic bound.
    #[test]
    fn epsilon_pruning_respects_l1_bounds((ts, src, low) in cases(), eps_exp in 1u32..4) {
        let kg = build(&ts);
        let source = kg.node_by_name(&format!("n{src}")).unwrap();
        let epsilon = 10f64.powi(-(eps_exp as i32)); // 1e-1 .. 1e-3
        let exact = PersonalizedPageRank::new(&kg, config(low, 0.0)).unwrap();
        let pruned = PersonalizedPageRank::new(&kg, config(low, epsilon)).unwrap();

        let reference = exact.run(&[source]);
        let outcome = pruned.run_outcome(&[source], &mut PprWorkspace::new());
        let dist = outcome.scores.l1_distance(&reference);

        prop_assert!(
            dist <= outcome.l1_bound + 1e-12,
            "L1 distance {} exceeds reported bound {}", dist, outcome.l1_bound
        );
        let analytic = 10.0 * epsilon * kg.num_nodes() as f64;
        prop_assert!(
            dist <= analytic,
            "L1 distance {} exceeds analytic bound {}", dist, analytic
        );
        // Drops only ever shrink entries, never invent mass.
        prop_assert!(outcome.scores.sum() <= reference.sum() + 1e-12);
        prop_assert!(outcome.dropped_mass >= 0.0);
    }

    /// Multi-source personalization keeps the same guarantees.
    #[test]
    fn multi_source_epsilon_zero_is_exact((ts, src, low) in cases(), src2 in 0u8..24) {
        let kg = build(&ts);
        let sources: Vec<NodeId> = [src, src2]
            .iter()
            .map(|i| kg.node_by_name(&format!("n{i}")).unwrap())
            .collect();
        let cfg = config(low, 0.0);
        let ppr = PersonalizedPageRank::new(&kg, cfg).unwrap();
        let dense = ppr.run_dense(&sources);
        let want: Vec<u64> = dense.iter().map(|x| x.to_bits()).collect();
        let frontier = ppr.frontier_outcome(&sources, &mut PprWorkspace::new()).scores;
        prop_assert_eq!(&bits(&frontier), &want);
        prop_assert_eq!(&bits(&ppr.run(&sources)), &want);
    }

    /// A workspace carried from run to run, on both backends and at
    /// ε = 0 and ε > 0, leaves no trace in the next run: scores,
    /// dropped mass and L1 bound match a fresh workspace bit for bit.
    /// Seeds repeat and alternate, as pooled workspaces see them.
    #[test]
    fn reused_workspace_matches_fresh_on_every_backend(
        (ts, _src, low) in cases(),
        picks in prop::collection::vec(0u8..24, 1..7),
        eps_exp in 0u32..4,
    ) {
        let kg = build(&ts);
        let cfg = config(low, epsilon(eps_exp));
        assert_reuse_is_exact(CompactGraph::from_graph(&kg), &picks, cfg.clone());
        assert_reuse_is_exact(&kg, &picks, cfg);
    }

    /// Per-seed runs spread over workers in any pull order, each worker
    /// taking a workspace from a shared pool, return what one thread
    /// running the seeds in order returns, in seed order, on both
    /// backends.
    #[test]
    fn per_seed_fan_out_is_order_and_worker_invariant(
        (ts, _src, low) in cases(),
        picks in prop::collection::vec(0u8..24, 1..9),
        costs in prop::collection::vec(0u64..4, 1..9),
        eps_exp in 0u32..4,
    ) {
        let kg = build(&ts);
        let cfg = config(low, epsilon(eps_exp));
        assert_fan_out_is_exact(CompactGraph::from_graph(&kg), &picks, &costs, cfg.clone());
        assert_fan_out_is_exact(&kg, &picks, &costs, cfg);
    }
}
