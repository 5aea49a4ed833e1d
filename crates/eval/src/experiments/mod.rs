//! Experiment registry: one entry per table/figure of the paper.

pub mod cases;
pub mod quality;
pub mod tables;
pub mod timing;

use crate::env::EvalEnv;
use crate::report::Report;

/// An experiment: id, paper reference, runner.
pub struct Experiment {
    /// Short id used on the command line (`fig2`, `tab3`, `metrics`, …).
    pub id: &'static str,
    /// What the paper calls it.
    pub paper_ref: &'static str,
    /// Runner.
    pub run: fn(&EvalEnv) -> Report,
}

/// Every reproducible experiment, in paper order.
pub fn registry() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "tab1",
            paper_ref: "Table 1: evaluation entities per domain",
            run: tables::tab1,
        },
        Experiment {
            id: "fig2",
            paper_ref: "Figure 2: F1 vs |C|, actors domain, ContextRW vs RandomWalk",
            run: quality::fig2,
        },
        Experiment {
            id: "fig3",
            paper_ref: "Figure 3: average F1 vs |C|",
            run: quality::fig3,
        },
        Experiment {
            id: "fig4",
            paper_ref: "Figure 4: average F1 vs |Q|",
            run: quality::fig4,
        },
        Experiment {
            id: "fig5",
            paper_ref: "Figure 5: context-selection time vs |Q|",
            run: timing::fig5,
        },
        Experiment {
            id: "fig6",
            paper_ref: "Figure 6: ContextRW time vs max metapath length",
            run: timing::fig6,
        },
        Experiment {
            id: "tab2",
            paper_ref: "Table 2: max F1 and |C| at max, YAGO vs LinkedMDB",
            run: tables::tab2,
        },
        Experiment {
            id: "tab3",
            paper_ref: "Table 3: F1 vs number of metapaths |M| and |C|",
            run: tables::tab3,
        },
        Experiment {
            id: "metrics",
            paper_ref: "§4.2 metric comparison: min-swaps to expert ranking",
            run: cases::metrics_cmp,
        },
        Experiment {
            id: "fig7",
            paper_ref: "Figure 7: instance distribution of `created`",
            run: cases::fig7,
        },
        Experiment {
            id: "fig8",
            paper_ref: "Figure 8: cardinality distribution of `hasWonPrize`",
            run: cases::fig8,
        },
        Experiment {
            id: "fig9",
            paper_ref: "Figure 9: FindNC vs RWMult significance probabilities",
            run: cases::fig9,
        },
        Experiment {
            id: "authors",
            paper_ref: "§4.2 test case 2: {Douglas Adams, Terry Pratchett}",
            run: cases::authors,
        },
        Experiment {
            id: "leaders",
            paper_ref: "§1 example: {Angela Merkel, Barack Obama} vs leaders",
            run: cases::leaders,
        },
    ]
}

/// Looks an experiment up by id.
pub fn find(id: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_lowercase() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 14);
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 14);
        assert!(reg.iter().all(|e| e
            .id
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit())));
        assert!(find("fig2").is_some());
        assert!(find("nope").is_none());
    }
}
