//! The scoring sweep: node-major distribution building (§3.2).
//!
//! [`LabelDistributions::build_full`] is label-major: for one label it
//! probes `neighbors_with_label` on every node of `Q ∪ C`, so scoring
//! every incident label that way costs O(|L| · |Q ∪ C|) graph probes plus
//! fresh `HashMap`/`Vec` allocations per label. The sweep inverts the
//! loop: it visits each node of `Q ∪ C` **once**, walks its sorted
//! per-label edge runs once (the ordering every [`GraphAccess`] backend
//! guarantees — ascending label, ascending targets within a label), and
//! scatters each run's observations into that label's `Inst`/`Card`
//! vectors as it goes — O(Σ degree) graph work total, with all per-label
//! scratch recycled in a [`ScoringWorkspace`]. It is the only scoring
//! path; `build_full` stays as the public per-label builder and the
//! oracle the parity tests compare against.
//!
//! ## Equivalence with `build_full`
//!
//! [`build_all`] produces [`LabelDistributions`] field-for-field equal to
//! per-label [`LabelDistributions::build_full`], by construction:
//!
//! - **Support order.** Both see context nodes in [`Context::nodes`]
//!   (ranked) order and, per node, an `l`-run's targets in ascending
//!   order — `neighbors_with_label(v, l)` *is* the `l`-run of
//!   `edges(v)`. First-encounter value discovery is therefore identical,
//!   so `inst_support` and every index derived from it match.
//! - **None bucket / zero bin.** A node with no `l`-edge contributes
//!   `inst[0] += 1` and `card[bin(0)] += 1` in `build_full`. The sweep
//!   never sees such a node under `l`, so it counts the nodes it *did*
//!   touch per label and derives the absent count as `|set| − touched`
//!   — the same number, added once at finalization (`bin(0) == 0` under
//!   both binnings).
//! - **Union growth and drops.** The query pass applies the identical
//!   per-target match on `(value_index, support)`, in the identical
//!   node-then-target order.
//!
//! The proptest suite `tests/score_sweep_parity.rs` pins this equality
//! across backends, support modes, binnings and edge cases.

use crate::context::Context;
use crate::distributions::{CardinalityBinning, InstanceSupport, LabelDistributions};
use crate::query::Query;
use nck_graph::{EdgeLabelId, GraphAccess, NodeId};
use std::collections::HashMap;

/// Slot marker for labels excluded from the sweep (inverse labels when
/// `include_inverse` is off): stamped current, but holding no slot.
const SKIP: u32 = u32::MAX;

/// Per-label accumulation state, recycled across sweeps (capacity is
/// kept; contents are cleared on claim).
#[derive(Debug)]
struct LabelSlot {
    label: EdgeLabelId,
    value_index: HashMap<NodeId, usize>,
    inst_support: Vec<NodeId>,
    inst_q: Vec<u64>,
    inst_c: Vec<u64>,
    card_q: Vec<u64>,
    card_c: Vec<u64>,
    /// Context / query nodes seen carrying this label (the complement
    /// feeds the None bucket and the zero cardinality bin).
    ctx_touched: u64,
    q_touched: u64,
    dropped_q: u64,
}

impl LabelSlot {
    fn empty() -> Self {
        Self {
            label: EdgeLabelId::new(0), // overwritten on claim
            value_index: HashMap::new(),
            inst_support: Vec::new(),
            inst_q: Vec::new(),
            inst_c: Vec::new(),
            card_q: Vec::new(),
            card_c: Vec::new(),
            ctx_touched: 0,
            q_touched: 0,
            dropped_q: 0,
        }
    }

    fn reset(&mut self, label: EdgeLabelId) {
        self.label = label;
        self.value_index.clear();
        self.inst_support.clear();
        self.inst_q.clear();
        self.inst_q.push(0); // index 0 = None bucket
        self.inst_c.clear();
        self.inst_c.push(0);
        self.card_q.clear();
        self.card_c.clear();
        self.ctx_touched = 0;
        self.q_touched = 0;
        self.dropped_q = 0;
    }
}

/// Reusable scratch for the scoring sweep — epoch-stamped like
/// [`crate::score::SparseWorkspace`]: `begin` starts a new sweep in O(1)
/// amortized time (label slots stamped with an older epoch read as
/// unclaimed), so a long-lived workspace serves any number of queries
/// with zero steady-state allocation of per-label scratch. The engine
/// recycles these through its per-worker workspace pool.
#[derive(Debug, Default)]
pub struct ScoringWorkspace {
    /// Epoch stamp per global label id; a stale stamp means "not seen
    /// this sweep".
    stamp: Vec<u64>,
    /// Slot index per global label id (valid only when the stamp is
    /// current; [`SKIP`] marks an excluded label).
    slot_of: Vec<u32>,
    epoch: u64,
    /// Recycled per-label slots; `live` of them are claimed this epoch.
    slots: Vec<LabelSlot>,
    live: usize,
}

impl ScoringWorkspace {
    /// An empty workspace; its arrays are sized when the first sweep begins.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new sweep over a vocabulary of `num_labels` labels.
    /// O(1) amortized: allocation only when the vocabulary grew.
    fn begin(&mut self, num_labels: usize) {
        self.epoch += 1;
        if self.stamp.len() < num_labels {
            self.stamp.resize(num_labels, 0);
            self.slot_of.resize(num_labels, 0);
        }
        self.live = 0;
    }

    /// The slot accumulating `label`, claiming one on first encounter;
    /// `None` when the label is excluded from this sweep.
    fn slot(&mut self, label: EdgeLabelId, include: impl FnOnce() -> bool) -> Option<usize> {
        let l = label.index();
        if self.stamp[l] == self.epoch {
            let s = self.slot_of[l];
            return (s != SKIP).then_some(s as usize);
        }
        self.stamp[l] = self.epoch;
        if !include() {
            self.slot_of[l] = SKIP;
            return None;
        }
        let idx = self.live;
        if idx == self.slots.len() {
            self.slots.push(LabelSlot::empty());
        }
        self.slots[idx].reset(label);
        self.slot_of[l] = idx as u32;
        self.live += 1;
        Some(idx)
    }

    /// Approximate resident heap bytes of the recycled scratch (pool
    /// accounting / diagnostics).
    pub fn approx_bytes(&self) -> usize {
        let labels = self.stamp.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>());
        let slots: usize = self
            .slots
            .iter()
            .map(|s| {
                s.value_index.capacity() * (std::mem::size_of::<(NodeId, usize)>() * 2)
                    + s.inst_support.capacity() * std::mem::size_of::<NodeId>()
                    + (s.inst_q.capacity()
                        + s.inst_c.capacity()
                        + s.card_q.capacity()
                        + s.card_c.capacity())
                        * std::mem::size_of::<u64>()
            })
            .sum();
        labels + slots
    }
}

/// Builds the distributions of **every** incident label in one node-major
/// sweep over `Q ∪ C`, returned in ascending label order — the order
/// [`crate::distributions::incident_labels`] yields. Each element is
/// field-for-field equal to the corresponding per-label
/// [`LabelDistributions::build_full`] (see the [module docs](self) for
/// the argument).
pub fn build_all<G: GraphAccess>(
    graph: &G,
    query: &Query,
    context: &Context,
    support: InstanceSupport,
    binning: CardinalityBinning,
    include_inverse: bool,
    ws: &mut ScoringWorkspace,
) -> Vec<LabelDistributions> {
    ws.begin(graph.labels().len());

    // Context pass first: it establishes each label's value support, so
    // run it before any query observation exists — exactly the pass
    // order of `build_full`.
    for node in context.nodes() {
        scatter_node(
            graph,
            node,
            ws,
            include_inverse,
            binning,
            Pass::Context,
            support,
        );
    }
    for &node in query.nodes() {
        scatter_node(
            graph,
            node,
            ws,
            include_inverse,
            binning,
            Pass::Query,
            support,
        );
    }

    // Finalize in ascending label order (slots were claimed in visit
    // order; the incident-label count is small, so the sort is noise).
    let mut order: Vec<usize> = (0..ws.live).collect();
    order.sort_unstable_by_key(|&i| ws.slots[i].label);

    let c_len = context.len() as u64;
    let q_len = query.len() as u64;
    order
        .into_iter()
        .map(|i| finalize(&mut ws.slots[i], support, binning, q_len, c_len))
        .collect()
}

/// Which set a scatter pass is counting for.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    Context,
    Query,
}

/// Walks `node`'s sorted edge runs once, scattering each label run's
/// observations into that label's slot.
fn scatter_node<G: GraphAccess>(
    graph: &G,
    node: NodeId,
    ws: &mut ScoringWorkspace,
    include_inverse: bool,
    binning: CardinalityBinning,
    pass: Pass,
    support: InstanceSupport,
) {
    let mut run_label: Option<EdgeLabelId> = None;
    let mut run_slot: Option<usize> = None;
    let mut run_len: usize = 0;
    let mut edges = graph.edges(node);
    loop {
        let next = edges.next();
        let boundary = match (next, run_label) {
            (Some((l, _)), Some(cur)) => l != cur,
            (None, Some(_)) => true,
            _ => false,
        };
        if boundary {
            // A label run just ended: record its cardinality observation.
            if let Some(s) = run_slot {
                let slot = &mut ws.slots[s];
                let bin = binning.bin(run_len);
                let card = match pass {
                    Pass::Context => &mut slot.card_c,
                    Pass::Query => &mut slot.card_q,
                };
                if bin >= card.len() {
                    card.resize(bin + 1, 0);
                }
                card[bin] += 1;
                match pass {
                    Pass::Context => slot.ctx_touched += 1,
                    Pass::Query => slot.q_touched += 1,
                }
            }
            run_len = 0;
        }
        let Some((label, target)) = next else { break };
        if run_label != Some(label) {
            run_label = Some(label);
            run_slot = ws.slot(label, || {
                include_inverse || !graph.labels().is_inverse(label)
            });
        }
        run_len += 1;
        let Some(s) = run_slot else { continue };
        let slot = &mut ws.slots[s];
        match pass {
            Pass::Context => {
                let idx = *slot.value_index.entry(target).or_insert_with(|| {
                    slot.inst_support.push(target);
                    slot.inst_support.len()
                });
                if idx >= slot.inst_c.len() {
                    slot.inst_c.resize(idx + 1, 0);
                }
                slot.inst_c[idx] += 1;
            }
            Pass::Query => match (slot.value_index.get(&target), support) {
                (Some(&idx), _) => {
                    if idx >= slot.inst_q.len() {
                        slot.inst_q.resize(idx + 1, 0);
                    }
                    slot.inst_q[idx] += 1;
                }
                (None, InstanceSupport::Union) => {
                    slot.inst_support.push(target);
                    let idx = slot.inst_support.len();
                    slot.value_index.insert(target, idx);
                    slot.inst_q.resize(idx + 1, 0);
                    slot.inst_q[idx] = 1;
                }
                (None, InstanceSupport::ContextOnly) => slot.dropped_q += 1,
            },
        }
    }
}

/// Copies a finished slot out as a [`LabelDistributions`], deriving the
/// absent-node counts and aligning vector lengths exactly like
/// `build_full`'s tail. The slot's buffers stay allocated for reuse.
fn finalize(
    slot: &mut LabelSlot,
    support: InstanceSupport,
    binning: CardinalityBinning,
    q_len: u64,
    c_len: u64,
) -> LabelDistributions {
    // Nodes that carry no edge of this label: None bucket + zero bin.
    let absent_c = c_len - slot.ctx_touched;
    let absent_q = q_len - slot.q_touched;
    slot.inst_c[0] += absent_c;
    slot.inst_q[0] += absent_q;
    if slot.card_c.is_empty() {
        slot.card_c.push(0);
    }
    slot.card_c[0] += absent_c;
    if slot.card_q.is_empty() {
        slot.card_q.push(0);
    }
    slot.card_q[0] += absent_q;

    let inst_len = slot.inst_q.len().max(slot.inst_c.len());
    slot.inst_q.resize(inst_len, 0);
    slot.inst_c.resize(inst_len, 0);
    let card_len = slot.card_q.len().max(slot.card_c.len()).max(1);
    slot.card_q.resize(card_len, 0);
    slot.card_c.resize(card_len, 0);

    LabelDistributions {
        label: slot.label,
        support,
        binning,
        inst_support: slot.inst_support.clone(),
        inst_q_total: slot.inst_q.iter().sum(),
        inst_c_total: slot.inst_c.iter().sum(),
        inst_q: slot.inst_q.clone(),
        inst_c: slot.inst_c.clone(),
        dropped_q: slot.dropped_q,
        card_q: slot.card_q.clone(),
        card_c: slot.card_c.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::incident_labels;
    use nck_graph::{GraphBuilder, KnowledgeGraph};

    fn figure1() -> KnowledgeGraph {
        let mut b = GraphBuilder::new();
        b.add_triple("Merkel", "studied", "Physics");
        for p in ["Putin", "Renzi", "Hollande"] {
            b.add_triple(p, "studied", "Law");
        }
        for (p, c) in [
            ("Obama", "Malia"),
            ("Putin", "Mariya"),
            ("Renzi", "Ester"),
            ("Renzi", "Emanuele"),
            ("Hollande", "Thomas"),
            ("Hollande", "Clemence"),
            ("Hollande", "Flora"),
            ("Hollande", "Julien"),
        ] {
            b.add_triple(p, "hasChild", c);
        }
        b.build()
    }

    fn q_and_c(g: &KnowledgeGraph) -> (Query, Context) {
        let q = Query::by_names(g, ["Merkel", "Obama"]).unwrap();
        let c = Context::from_names(g, ["Putin", "Renzi", "Hollande"]).unwrap();
        (q, c)
    }

    /// The sweep must reproduce per-label `build_full` field for field —
    /// the whole contract — for every support × binning combination.
    #[test]
    fn sweep_matches_label_major_build() {
        let g = figure1();
        let (q, c) = q_and_c(&g);
        let mut ws = ScoringWorkspace::new();
        for support in [InstanceSupport::ContextOnly, InstanceSupport::Union] {
            for binning in [CardinalityBinning::Log2, CardinalityBinning::Raw] {
                for include_inverse in [false, true] {
                    let swept = build_all(&g, &q, &c, support, binning, include_inverse, &mut ws);
                    let labels = incident_labels(&g, &q, &c, include_inverse);
                    assert_eq!(
                        swept.iter().map(|d| d.label).collect::<Vec<_>>(),
                        labels,
                        "sweep must cover the incident labels in order"
                    );
                    for d in &swept {
                        let want =
                            LabelDistributions::build_full(&g, &q, &c, d.label, support, binning);
                        assert_eq!(d, &want, "label {}", g.label_name(d.label));
                    }
                }
            }
        }
    }

    /// Reusing one workspace across sweeps must not leak state between
    /// queries (the epoch reset is the whole point).
    #[test]
    fn workspace_reuse_is_stateless_across_sweeps() {
        let g = figure1();
        let (q, c) = q_and_c(&g);
        let mut ws = ScoringWorkspace::new();
        let first = build_all(
            &g,
            &q,
            &c,
            InstanceSupport::ContextOnly,
            CardinalityBinning::Log2,
            false,
            &mut ws,
        );
        // A different query in between dirties the slots…
        let q2 = Query::by_names(&g, ["Malia"]).unwrap();
        let _ = build_all(
            &g,
            &q2,
            &c,
            InstanceSupport::Union,
            CardinalityBinning::Raw,
            true,
            &mut ws,
        );
        // …and the original sweep still reproduces bit for bit.
        let again = build_all(
            &g,
            &q,
            &c,
            InstanceSupport::ContextOnly,
            CardinalityBinning::Log2,
            false,
            &mut ws,
        );
        assert_eq!(first, again);
    }

    #[test]
    fn empty_context_yields_query_only_labels() {
        // `build_all` itself accepts an empty context (FindNC rejects it
        // earlier): every label is query-incident, all context counts 0.
        let g = figure1();
        let q = Query::by_names(&g, ["Merkel"]).unwrap();
        let c = Context::from_ranked(vec![]);
        let mut ws = ScoringWorkspace::new();
        let swept = build_all(
            &g,
            &q,
            &c,
            InstanceSupport::Union,
            CardinalityBinning::Log2,
            false,
            &mut ws,
        );
        assert_eq!(swept.len(), 1, "Merkel carries only `studied`");
        let want = LabelDistributions::build_full(
            &g,
            &q,
            &c,
            swept[0].label,
            InstanceSupport::Union,
            CardinalityBinning::Log2,
        );
        assert_eq!(swept[0], want);
        assert_eq!(swept[0].inst_c_total(), 0);
    }
}
