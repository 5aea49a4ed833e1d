//! Property tests pinning the blocked multi-seed PPR executor to the
//! single-seed frontier runs it amortizes:
//!
//! - every lane of `run_block` must be **bit-for-bit** identical to a
//!   solo `frontier_outcome` run of that lane's seed — scores, dropped
//!   mass and the reported `l1_bound` alike — on the CSR and compact
//!   backends;
//! - block width is invisible in the answer: any chunking of the seeds
//!   into `run_block` calls (`B = 1`, `B` larger than the seed set,
//!   duplicate seeds in one block), with the blocks run in sequence or
//!   across workers, produces the same bits in the same seed order.

#![forbid(unsafe_code)]

use notable_characteristics::core::config::PprConfig;
use notable_characteristics::core::parallel;
use notable_characteristics::core::ppr::{BlockPprWorkspace, PersonalizedPageRank, PprWorkspace};
use notable_characteristics::core::score::ScoreVec;
use notable_characteristics::graph::builder::GraphBuilder;
use notable_characteristics::graph::{CompactGraph, GraphAccess, KnowledgeGraph, NodeId};
use proptest::prelude::*;

/// One generated case: triples over a small universe, a seed list
/// (duplicates allowed), a block width (0 is clamped to 1), and a
/// damping choice (0 → low, 1 → high).
type Case = (Vec<(u8, u8, u8)>, Vec<u8>, usize, u8);

fn cases() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec((0u8..24, 0u8..5, 0u8..24), 1..70),
        prop::collection::vec(0u8..24, 1..7),
        0usize..10,
        0u8..2,
    )
}

fn build(triples: &[(u8, u8, u8)]) -> KnowledgeGraph {
    let mut b = GraphBuilder::new();
    for &(s, p, o) in triples {
        b.add_triple(&format!("n{s}"), &format!("p{p}"), &format!("n{o}"));
    }
    // Every seed pick must resolve, so every candidate node occurs in a
    // triple.
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

/// Every lane of one `run_block` call vs. its solo run, on one backend.
fn assert_block_parity<G: GraphAccess + Sync>(graph: G, seed_names: &[String], cfg: PprConfig) {
    let seeds: Vec<NodeId> = seed_names
        .iter()
        .map(|name| graph.node_by_name(name).unwrap())
        .collect();
    let ppr = PersonalizedPageRank::new(graph, cfg).unwrap();
    let blocked = ppr.run_block(&seeds, &mut BlockPprWorkspace::new());
    prop_assert_eq!(blocked.len(), seeds.len());
    let mut solo_ws = PprWorkspace::new();
    for (lane, &seed) in seeds.iter().enumerate() {
        let solo = ppr.frontier_outcome(&[seed], &mut solo_ws);
        prop_assert_eq!(
            bits(&blocked[lane].scores),
            bits(&solo.scores),
            "lane {} scores diverged from the solo run",
            lane
        );
        prop_assert_eq!(
            blocked[lane].dropped_mass.to_bits(),
            solo.dropped_mass.to_bits(),
            "lane {} dropped_mass diverged",
            lane
        );
        prop_assert_eq!(
            blocked[lane].l1_bound.to_bits(),
            solo.l1_bound.to_bits(),
            "lane {} l1_bound diverged",
            lane
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// ε = 0: each blocked lane is its solo frontier run, bit for bit,
    /// on both backends (each resolves the seeds by name and is checked
    /// in its own id space).
    #[test]
    fn blocked_lanes_match_solo_on_every_backend((ts, seeds, _w, low) in cases()) {
        let kg = build(&ts);
        let names: Vec<String> = seeds.iter().map(|i| format!("n{i}")).collect();
        let cfg = config(low, 0.0);
        assert_block_parity(CompactGraph::from_graph(&kg), &names, cfg.clone());
        assert_block_parity(kg, &names, cfg);
    }

    /// ε > 0: pruning decisions are per-lane, so the sparse outcome —
    /// scores, dropped mass, and the reported L1 bound — also matches
    /// the solo runs bit for bit.
    #[test]
    fn pruned_lanes_match_solo_accounting((ts, seeds, _w, low) in cases(), eps_exp in 1u32..4) {
        let kg = build(&ts);
        let names: Vec<String> = seeds.iter().map(|i| format!("n{i}")).collect();
        let epsilon = 10f64.powi(-(eps_exp as i32)); // 1e-1 .. 1e-3
        assert_block_parity(kg, &names, config(low, epsilon));
    }

    /// Width and worker-parallelism are invisible in the output: any
    /// chunking of the seed list — width 1 (a degenerate block per
    /// seed), widths larger than the seed set, sequential or parallel
    /// block execution — returns the same bits in the same seed order.
    #[test]
    fn block_width_and_parallelism_are_answer_invariant((ts, seeds, width, low) in cases()) {
        let kg = build(&ts);
        let seeds: Vec<NodeId> = seeds
            .iter()
            .map(|i| kg.node_by_name(&format!("n{i}")).unwrap())
            .collect();
        let ppr = PersonalizedPageRank::new(&kg, config(low, 0.0)).unwrap();
        let want: Vec<Vec<u64>> = ppr
            .run_block(&seeds, &mut BlockPprWorkspace::new())
            .iter()
            .map(|o| bits(&o.scores))
            .collect();
        let blocks: Vec<&[NodeId]> = seeds.chunks(width.max(1)).collect();
        for parallel in [false, true] {
            // Blocks fan across workers the way the engine's batch
            // prefill runs them, one workspace per chunk of blocks.
            let got: Vec<Vec<u64>> = parallel::map_chunks(
                blocks.len(),
                parallel,
                |_chunk, range| {
                    let mut ws = BlockPprWorkspace::new();
                    range
                        .flat_map(|bi| ppr.run_block(blocks[bi], &mut ws))
                        .map(|o| bits(&o.scores))
                        .collect::<Vec<_>>()
                },
                Vec::new(),
                |mut acc, part| {
                    acc.extend(part);
                    acc
                },
            );
            prop_assert_eq!(
                &got, &want,
                "width {} parallel {} changed the answer", width, parallel
            );
        }
    }
}
