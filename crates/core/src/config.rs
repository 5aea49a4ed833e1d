//! Configuration of every pipeline stage, with the paper's defaults.

use crate::context::TypeFilter;
use crate::distributions::{CardinalityBinning, InstanceSupport};
use serde::{Deserialize, Serialize};

/// Personalized PageRank parameters (Eq. 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PprConfig {
    /// Damping factor `c` of `p = c·Ã·p + (1−c)·v`.
    ///
    /// §3.1 states "the damping factor is 0.8, in line with previous
    /// works", while the experimental setup (§4) runs the baseline with
    /// `c = 0.2`; the API default is 0.8 and the evaluation harness sets
    /// 0.2 to mirror the experiments.
    pub damping: f64,
    /// Power-iteration count (paper: 10).
    pub iterations: usize,
    /// Let the per-query-node PageRanks run on parallel threads. A worker
    /// permission only: the vectors are summed in seed order either way,
    /// so no bit of the result changes.
    pub parallel: bool,
    /// Sparse-execution pruning threshold: frontier entries holding less
    /// than this much probability mass are dropped before propagating.
    /// `0.0` (the default) disables pruning — the frontier iteration is
    /// then bit-for-bit identical to the dense power iteration. Positive
    /// values keep per-query cost proportional to the touched
    /// neighborhood at a bounded L1 approximation error (see
    /// [`crate::ppr`]).
    pub epsilon: f64,
}

impl Default for PprConfig {
    fn default() -> Self {
        Self {
            damping: 0.8,
            iterations: 10,
            parallel: true,
            epsilon: 0.0,
        }
    }
}

/// PathMining parameters (§3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PathMiningConfig {
    /// Number of random walks (the paper ran PathMining 1M times on a
    /// 3.3M-node graph; the default scales that sampling effort to the
    /// synthetic datasets).
    pub walks: usize,
    /// Maximum metapath length before a walk is abandoned (paper: "a
    /// reasonable choice for the number of metapaths |M| and maximum
    /// length is 5"; Figure 6 sweeps 5–20).
    pub max_length: usize,
    /// RNG seed. Walk `w` draws from its own stream, derived from
    /// `(seed, w)` alone, so the seed, the walk budget and the length
    /// cap fix the mined counts — on any host, under any worker cap and
    /// with [`parallel`](Self::parallel) on or off.
    pub seed: u64,
    /// Let the walks run on parallel threads (from 1,024 walks up). A
    /// worker permission only: every walk keeps its own stream, so no
    /// count changes.
    pub parallel: bool,
}

impl Default for PathMiningConfig {
    fn default() -> Self {
        Self {
            walks: 200_000,
            max_length: 5,
            seed: 0xFADE_DCAF,
            parallel: true,
        }
    }
}

/// ContextRW parameters (§3.1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContextRwConfig {
    /// PathMining settings.
    pub mining: PathMiningConfig,
    /// Number of metapaths |M| retained (paper default: 5, Table 3 sweeps
    /// 5–20).
    pub num_metapaths: usize,
    /// Candidate filter applied before the top-k cut (see
    /// [`TypeFilter`]; the paper's ground truth consists of entities of
    /// the query's kind, and both its test-case contexts are
    /// person-dominated, which this makes explicit).
    pub type_filter: TypeFilter,
    /// Selectivity guard on metapath slots: a metapath whose endpoints
    /// cover more than this fraction of the eligible candidates (e.g.
    /// `hasGender → hasGender⁻¹`, reaching half the population) carries no
    /// similarity information — the same "informative = rare" principle
    /// Eq. 1 applies to single labels, extended to paths. Set to 1.0 to
    /// disable.
    pub max_endpoint_fraction: f64,
}

impl Default for ContextRwConfig {
    fn default() -> Self {
        Self {
            mining: PathMiningConfig::default(),
            num_metapaths: 5,
            type_filter: TypeFilter::CommonAncestor,
            max_endpoint_fraction: 0.25,
        }
    }
}

/// RandomWalk baseline parameters.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RandomWalkConfig {
    /// PageRank settings.
    pub ppr: PprConfig,
    /// Candidate filter (same semantics as in [`ContextRwConfig`]).
    pub type_filter: TypeFilter,
}

/// FindNC parameters (§3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FindNcConfig {
    /// Context selection settings (used when FindNC builds its own
    /// context through ContextRW).
    pub context: ContextRwConfig,
    /// Context size |C| (the test cases use 100 and 30).
    pub context_size: usize,
    /// Significance level α of the multinomial test (paper: 0.05).
    pub alpha: f64,
    /// Monte-Carlo sample count for large outcome spaces.
    pub mc_samples: u32,
    /// Monte-Carlo seed.
    pub mc_seed: u64,
    /// Also score auto-generated inverse labels (`l⁻¹`). The paper reports
    /// only forward labels; inverse directions stay available for
    /// exploration.
    pub include_inverse_labels: bool,
    /// Instance-support policy (see
    /// [`crate::distributions::InstanceSupport`]).
    pub instance_support: InstanceSupport,
    /// Cardinality binning (see
    /// [`crate::distributions::CardinalityBinning`]).
    pub card_binning: CardinalityBinning,
}

impl Default for FindNcConfig {
    fn default() -> Self {
        Self {
            context: ContextRwConfig::default(),
            context_size: 100,
            alpha: 0.05,
            mc_samples: 20_000,
            mc_seed: 0x005E_ED0F_0002,
            include_inverse_labels: false,
            instance_support: InstanceSupport::ContextOnly,
            card_binning: CardinalityBinning::Log2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let ppr = PprConfig::default();
        assert_eq!(ppr.damping, 0.8);
        assert_eq!(ppr.iterations, 10);
        assert_eq!(ppr.epsilon, 0.0, "exact execution by default");
        let mining = PathMiningConfig::default();
        assert_eq!(mining.max_length, 5);
        let crw = ContextRwConfig::default();
        assert_eq!(crw.num_metapaths, 5);
        let findnc = FindNcConfig::default();
        assert_eq!(findnc.context_size, 100);
        assert_eq!(findnc.alpha, 0.05);
        assert!(!findnc.include_inverse_labels);
    }

    #[test]
    fn findnc_config_round_trips() {
        let cfg = FindNcConfig {
            include_inverse_labels: true,
            ..FindNcConfig::default()
        };
        let text = serde::json::to_string(&cfg);
        let back: FindNcConfig = serde::json::from_str(&text).unwrap();
        assert_eq!(back, cfg);
    }
}
