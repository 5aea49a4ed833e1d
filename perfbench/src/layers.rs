//! The pipeline driven layer by layer through public calls, with a span
//! around each, and the in-process reference answers.

use crate::trace::Trace;
use notable_characteristics::api::{Characteristic, QueryRequest, QueryResponse};
use notable_characteristics::core::config::FindNcConfig;
use notable_characteristics::core::context::{
    top_k_context, CandidateFilter, Context, ContextSelector,
};
use notable_characteristics::core::context_rw::ContextRw;
use notable_characteristics::core::discrimination::{Discrimination, MultinomialDiscrimination};
use notable_characteristics::core::error::CoreError;
use notable_characteristics::core::findnc::{NotableCharacteristic, SearchResult};
use notable_characteristics::core::parallel;
use notable_characteristics::core::ppr::{EdgeWeights, PersonalizedPageRank, PprWorkspace};
use notable_characteristics::core::query::Query;
use notable_characteristics::core::score::ScoreVec;
use notable_characteristics::core::sweep::{self, ScoringWorkspace};
use notable_characteristics::engine::EngineConfig;
use notable_characteristics::graph::{ErasedGraph, GraphAccess};
use notable_characteristics::stats::MultinomialTest;
use std::sync::Arc;

/// The response the service builds for `result` (`NckService::query`'s
/// name resolution and `top` cut), without `secs`.
pub fn expected_response(
    graph: &ErasedGraph,
    request: &QueryRequest,
    result: &SearchResult,
) -> QueryResponse {
    QueryResponse {
        query: request.display(),
        context_size: result.context.len(),
        context: result
            .context
            .nodes()
            .map(|n| graph.node_name(n).to_owned())
            .collect(),
        characteristics: result
            .characteristics
            .iter()
            .take(request.top.unwrap_or(usize::MAX))
            .map(|c| Characteristic {
                label: graph.label_name(c.label).to_owned(),
                score: c.score,
                notable: c.notable(),
                inst_p: c.inst_significance,
                card_p: c.card_significance,
            })
            .collect(),
        secs: None,
    }
}

/// The paper's discrimination test under `cfg`.
fn discrimination(cfg: &FindNcConfig) -> Result<MultinomialDiscrimination, CoreError> {
    let test = MultinomialTest::new()
        .with_alpha(cfg.alpha)
        .map_err(CoreError::from)?
        .with_samples(cfg.mc_samples)
        .with_seed(cfg.mc_seed);
    Ok(MultinomialDiscrimination::new(test))
}

/// One query's layered run: its result and the labels it scored.
pub struct Layered {
    pub result: SearchResult,
    pub labels: usize,
}

/// ContextRW selection, then scoring (`profile_cold`'s pipeline).
pub fn contextrw(
    graph: &ErasedGraph,
    cfg: &FindNcConfig,
    query: &Query,
    ws: &mut ScoringWorkspace,
    trace: &mut Trace,
    root: usize,
    req: u64,
) -> Result<Layered, CoreError> {
    let selector = ContextRw::new(cfg.context.clone());
    let context = trace.time("core.select", Some(root), req, || {
        selector.select(graph, query, cfg.context_size)
    })?;
    score(graph, cfg, query, context, ws, trace, root, req)
}

/// RandomWalk selection — one PPR per query node, summed in order, then
/// the top-k cut — then scoring (`serve_override`'s pipeline at
/// `context_size` = `k`).
#[allow(clippy::too_many_arguments)]
pub fn randomwalk(
    graph: &ErasedGraph,
    cfg: &EngineConfig,
    weights: &Arc<EdgeWeights>,
    k: usize,
    query: &Query,
    ws: &mut ScoringWorkspace,
    trace: &mut Trace,
    root: usize,
    req: u64,
) -> Result<Layered, CoreError> {
    let ppr = PersonalizedPageRank::with_weights(
        graph.clone(),
        cfg.randomwalk.ppr.clone(),
        Arc::clone(weights),
    )?;
    let n = graph.num_nodes();
    let mut ppr_ws = PprWorkspace::new();
    let mut summed = ScoreVec::zeros(n);
    for &seed in query.nodes() {
        let vector = trace.time("core.ppr", Some(root), req, || {
            ppr.run_with(&[seed], &mut ppr_ws)
        });
        summed.add_assign(&vector);
    }
    // `RandomWalkSelector` folds its (single, sequential) chunk into zeros.
    let mut scores = ScoreVec::zeros(n);
    scores.add_assign(&summed);
    let context = trace.time("core.topk", Some(root), req, || {
        let filter = CandidateFilter::new(graph, query, cfg.randomwalk.type_filter);
        top_k_context(graph, query, scores.iter(), &filter, k)
    })?;
    let findnc = FindNcConfig {
        context_size: k,
        ..cfg.findnc.clone()
    };
    score(graph, &findnc, query, context, ws, trace, root, req)
}

/// Distributions by the node-major sweep, then the per-label tests fanned
/// out as `FindNc` does, then `FindNc`'s ranking order.
#[allow(clippy::too_many_arguments)]
fn score(
    graph: &ErasedGraph,
    cfg: &FindNcConfig,
    query: &Query,
    context: Context,
    ws: &mut ScoringWorkspace,
    trace: &mut Trace,
    root: usize,
    req: u64,
) -> Result<Layered, CoreError> {
    if context.is_empty() {
        return Err(CoreError::NotEnoughCandidates {
            requested: cfg.context_size,
            available: 0,
        });
    }
    let dists = trace.time("core.distributions", Some(root), req, || {
        sweep::build_all(
            graph,
            query,
            &context,
            cfg.instance_support,
            cfg.card_binning,
            cfg.include_inverse_labels,
            ws,
        )
    });
    let test = discrimination(cfg)?;
    let scored = trace.time("stats.discrimination", Some(root), req, || {
        parallel::map_chunks(
            dists.len(),
            true,
            |_, range| range.map(|i| test.score(&dists[i])).collect::<Vec<_>>(),
            Vec::with_capacity(dists.len()),
            |mut acc, part| {
                acc.extend(part);
                acc
            },
        )
    });
    let labels = dists.len();
    let mut characteristics = Vec::with_capacity(labels);
    for (dists, scored) in dists.into_iter().zip(scored) {
        let s = scored?;
        characteristics.push(NotableCharacteristic {
            label: dists.label,
            score: s.score,
            significance: s.significance(),
            trigger: s.trigger,
            inst_significance: s.inst_significance,
            card_significance: s.card_significance,
            distributions: dists,
        });
    }
    characteristics.sort_by(|a, b| {
        a.score
            .is_nan()
            .cmp(&b.score.is_nan())
            .then(b.score.total_cmp(&a.score))
            .then(
                a.significance
                    .unwrap_or(1.0)
                    .total_cmp(&b.significance.unwrap_or(1.0)),
            )
            .then(a.label.cmp(&b.label))
    });
    Ok(Layered {
        result: SearchResult {
            characteristics,
            context,
        },
        labels,
    })
}
