//! Sparse/dense score vectors — the execution substrate of the
//! RandomWalk stage.
//!
//! The PageRank propagation of §3.1 touches only a query node's
//! neighborhood, yet a dense `Vec<f64>` of length `|V|` charges every
//! query for the whole graph — allocation, zeroing, and cache pressure
//! all scale with `|V|` instead of with the frontier. [`ScoreVec`] keeps
//! per-node scores in whichever representation is smaller (a full dense
//! vector, or sorted `(node, score)` pairs), and [`SparseWorkspace`]
//! gives frontier algorithms an epoch-versioned scratch buffer so
//! repeated queries allocate nothing after warm-up.
//!
//! Both representations describe the same mathematical object — a total
//! function from node id to score, zero by default — and every API here
//! preserves bit-exact f64 values across representation changes, so the
//! engine's exact-parity guarantees survive the refactor.
//!
//! ```
//! use nck_core::score::ScoreVec;
//! use nck_graph::NodeId;
//!
//! let sparse = ScoreVec::from_entries(10, vec![(NodeId::from_index(3), 0.5)]);
//! assert_eq!(sparse.get(NodeId::from_index(3)), 0.5);
//! assert_eq!(sparse.get(NodeId::from_index(4)), 0.0);
//! assert_eq!(sparse.nnz(), 1);
//!
//! let mut acc = ScoreVec::zeros(10);
//! acc.add_assign(&sparse);
//! acc.add_assign(&sparse);
//! assert_eq!(acc.get(NodeId::from_index(3)), 1.0);
//! ```

use nck_graph::NodeId;

/// Fraction of `len` above which a sparse vector densifies: beyond this
/// many touched entries the pair representation (16 bytes/entry) costs
/// more than the dense one (8 bytes/slot) and loses its iteration
/// advantage too.
pub const DENSIFY_FRACTION: f64 = 0.5;

/// A per-node score vector in dense or sparse representation.
///
/// Semantically a total map `NodeId -> f64` over `0..len()`, zero where
/// unset. The sparse variant keeps entries **sorted by ascending node
/// id, without duplicates** — constructors uphold the invariant and
/// [`iter`](Self::iter) relies on it so dense and sparse iteration visit
/// nodes in the same order (which keeps floating-point accumulation
/// order, and therefore bit-exact results, representation-independent).
#[derive(Debug, Clone, PartialEq)]
pub enum ScoreVec {
    /// One slot per node (`values[node.index()]`).
    Dense(Vec<f64>),
    /// Sorted `(node, score)` pairs over a universe of `len` nodes.
    Sparse {
        /// The universe size `|V|` (what [`ScoreVec::len`] reports).
        len: usize,
        /// The touched entries, ascending by node id, no duplicates.
        entries: Vec<(NodeId, f64)>,
    },
}

impl ScoreVec {
    /// The all-zero vector over `len` nodes (sparse, no entries).
    pub fn zeros(len: usize) -> Self {
        ScoreVec::Sparse {
            len,
            entries: Vec::new(),
        }
    }

    /// Wraps a dense value vector.
    pub fn from_dense(values: Vec<f64>) -> Self {
        ScoreVec::Dense(values)
    }

    /// Builds a sparse vector from entries sorted ascending by node id
    /// (no duplicates), densifying automatically past
    /// [`DENSIFY_FRACTION`].
    ///
    /// # Panics
    ///
    /// In debug builds, panics when the sort/dedup invariant is violated
    /// or an entry's id is out of range.
    pub fn from_entries(len: usize, entries: Vec<(NodeId, f64)>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted");
        debug_assert!(entries.iter().all(|&(n, _)| n.index() < len), "id range");
        let v = ScoreVec::Sparse { len, entries };
        v.normalized()
    }

    /// Densifies when past the threshold; otherwise returns self.
    fn normalized(self) -> Self {
        match &self {
            ScoreVec::Sparse { len, entries }
                if (entries.len() as f64) > DENSIFY_FRACTION * *len as f64 =>
            {
                ScoreVec::Dense(self.to_dense())
            }
            _ => self,
        }
    }

    /// The universe size `|V|` (number of addressable nodes, not the
    /// number of non-zero entries — see [`nnz`](Self::nnz)).
    pub fn len(&self) -> usize {
        match self {
            ScoreVec::Dense(v) => v.len(),
            ScoreVec::Sparse { len, .. } => *len,
        }
    }

    /// Whether the universe is empty (`len() == 0`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of explicitly stored entries: `len()` for dense, the
    /// touched-entry count for sparse.
    pub fn nnz(&self) -> usize {
        match self {
            ScoreVec::Dense(v) => v.len(),
            ScoreVec::Sparse { entries, .. } => entries.len(),
        }
    }

    /// Whether the dense representation is active.
    pub fn is_dense(&self) -> bool {
        matches!(self, ScoreVec::Dense(_))
    }

    /// The score of `node` (0.0 when unset; sparse lookup is a binary
    /// search).
    pub fn get(&self, node: NodeId) -> f64 {
        match self {
            ScoreVec::Dense(v) => v.get(node.index()).copied().unwrap_or(0.0),
            ScoreVec::Sparse { entries, .. } => entries
                .binary_search_by_key(&node, |&(n, _)| n)
                .map(|i| entries[i].1)
                .unwrap_or(0.0),
        }
    }

    /// Iterates the potentially non-zero `(node, score)` pairs in
    /// ascending node order. Dense vectors skip exact-zero slots, so
    /// both representations yield the same sequence of additions to any
    /// accumulator (adding 0.0 to a non-negative f64 is the identity).
    pub fn iter(&self) -> ScoreIter<'_> {
        match self {
            ScoreVec::Dense(v) => ScoreIter::Dense(v.iter().enumerate()),
            ScoreVec::Sparse { entries, .. } => ScoreIter::Sparse(entries.iter()),
        }
    }

    /// Materializes the dense value vector (zeros where unset).
    pub fn to_dense(&self) -> Vec<f64> {
        match self {
            ScoreVec::Dense(v) => v.clone(),
            ScoreVec::Sparse { len, entries } => {
                let mut out = vec![0.0f64; *len];
                for &(n, s) in entries {
                    out[n.index()] = s;
                }
                out
            }
        }
    }

    /// Element-wise `self += other` (both sides must share `len`).
    ///
    /// Addition order per slot matches a dense `a[i] += b[i]` loop — one
    /// addition per touched slot, in ascending node order — so
    /// accumulating sparse parts is bit-identical to accumulating their
    /// dense expansions. The result auto-densifies past
    /// [`DENSIFY_FRACTION`].
    ///
    /// # Panics
    ///
    /// Panics when the universes disagree.
    pub fn add_assign(&mut self, other: &ScoreVec) {
        assert_eq!(self.len(), other.len(), "universe mismatch");
        let merged = match (std::mem::replace(self, ScoreVec::zeros(0)), other) {
            (ScoreVec::Dense(mut a), b) => {
                for (n, s) in b.iter() {
                    a[n.index()] += s;
                }
                ScoreVec::Dense(a)
            }
            (a @ ScoreVec::Sparse { .. }, ScoreVec::Dense(_)) => {
                // Sparse += dense lands at (or beyond) the densify
                // threshold anyway; expand once and add in place.
                let mut out = other.to_dense();
                for (n, s) in a.iter() {
                    // Addends swap slots vs. `a[i] += b[i]`, which is
                    // bit-safe: f64 addition is commutative.
                    out[n.index()] += s;
                }
                ScoreVec::Dense(out)
            }
            (
                ScoreVec::Sparse { len, entries: a },
                ScoreVec::Sparse {
                    entries: b_entries, ..
                },
            ) => {
                // The merge can keep every entry of both sides (disjoint
                // supports — the common multi-seed case); reserve the
                // full sum so it never reallocates mid-merge.
                let mut merged: Vec<(NodeId, f64)> = Vec::with_capacity(a.len() + b_entries.len());
                let (mut i, mut j) = (0, 0);
                while i < a.len() && j < b_entries.len() {
                    let (an, av) = a[i];
                    let (bn, bv) = b_entries[j];
                    match an.cmp(&bn) {
                        std::cmp::Ordering::Less => {
                            merged.push((an, av));
                            i += 1;
                        }
                        std::cmp::Ordering::Greater => {
                            merged.push((bn, bv));
                            j += 1;
                        }
                        std::cmp::Ordering::Equal => {
                            merged.push((an, av + bv));
                            i += 1;
                            j += 1;
                        }
                    }
                }
                merged.extend_from_slice(&a[i..]);
                merged.extend_from_slice(&b_entries[j..]);
                ScoreVec::Sparse {
                    len,
                    entries: merged,
                }
                .normalized()
            }
        };
        *self = merged;
    }

    /// Sum of all scores.
    pub fn sum(&self) -> f64 {
        match self {
            ScoreVec::Dense(v) => v.iter().sum(),
            ScoreVec::Sparse { entries, .. } => entries.iter().map(|&(_, s)| s).sum(),
        }
    }

    /// L1 distance to `other` (for approximation-bound checks).
    ///
    /// # Panics
    ///
    /// Panics when the universes disagree.
    pub fn l1_distance(&self, other: &ScoreVec) -> f64 {
        assert_eq!(self.len(), other.len(), "universe mismatch");
        let mut total = 0.0;
        let mut it_a = self.iter().peekable();
        let mut it_b = other.iter().peekable();
        loop {
            match (it_a.peek().copied(), it_b.peek().copied()) {
                (Some((an, av)), Some((bn, bv))) => match an.cmp(&bn) {
                    std::cmp::Ordering::Less => {
                        total += av.abs();
                        it_a.next();
                    }
                    std::cmp::Ordering::Greater => {
                        total += bv.abs();
                        it_b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        total += (av - bv).abs();
                        it_a.next();
                        it_b.next();
                    }
                },
                (Some((_, av)), None) => {
                    total += av.abs();
                    it_a.next();
                }
                (None, Some((_, bv))) => {
                    total += bv.abs();
                    it_b.next();
                }
                (None, None) => return total,
            }
        }
    }

    /// Approximate resident heap bytes of this representation — what the
    /// engine's byte-bounded caches charge per entry (dense: 8 bytes per
    /// slot; sparse: 16 bytes per touched entry; both plus a fixed
    /// header).
    pub fn approx_bytes(&self) -> usize {
        const HEADER: usize = 64;
        match self {
            ScoreVec::Dense(v) => v.len() * std::mem::size_of::<f64>() + HEADER,
            ScoreVec::Sparse { entries, .. } => {
                entries.len() * std::mem::size_of::<(NodeId, f64)>() + HEADER
            }
        }
    }
}

/// Iterator over a [`ScoreVec`]'s potentially non-zero entries,
/// ascending by node id (see [`ScoreVec::iter`]).
#[derive(Debug, Clone)]
pub enum ScoreIter<'a> {
    /// All slots of a dense vector, zero slots skipped.
    Dense(std::iter::Enumerate<std::slice::Iter<'a, f64>>),
    /// The stored entries of a sparse vector.
    Sparse(std::slice::Iter<'a, (NodeId, f64)>),
}

impl Iterator for ScoreIter<'_> {
    type Item = (NodeId, f64);

    fn next(&mut self) -> Option<(NodeId, f64)> {
        match self {
            ScoreIter::Dense(it) => {
                for (i, &s) in it.by_ref() {
                    if s != 0.0 {
                        return Some((NodeId::from_index(i), s));
                    }
                }
                None
            }
            ScoreIter::Sparse(it) => it.next().map(|&(n, s)| (n, s)),
        }
    }
}

/// An epoch-versioned sparse accumulator: dense random access with a
/// touched-slot list, reusable across runs without re-zeroing.
///
/// `begin` starts a new epoch in O(1) amortized time (slots stamped with
/// an older epoch read as zero), so a long-lived workspace serves any
/// number of frontier computations with **zero steady-state
/// allocation** — the engine's repeated-query hot path.
///
/// ```
/// use nck_core::score::SparseWorkspace;
/// use nck_graph::NodeId;
///
/// let mut ws = SparseWorkspace::new();
/// ws.begin(8);
/// ws.add(NodeId::from_index(5), 1.5);
/// ws.add(NodeId::from_index(5), 0.5);
/// ws.add(NodeId::from_index(2), 3.0);
/// assert_eq!(ws.get(NodeId::from_index(5)), 2.0);
/// assert_eq!(ws.touched_len(), 2);
///
/// ws.begin(8); // new epoch: all slots read as zero again, no allocation
/// assert_eq!(ws.get(NodeId::from_index(5)), 0.0);
/// assert_eq!(ws.touched_len(), 0);
/// ```
#[derive(Debug, Default)]
pub struct SparseWorkspace {
    values: Vec<f64>,
    stamp: Vec<u64>,
    touched: Vec<u32>,
    epoch: u64,
}

impl SparseWorkspace {
    /// An empty workspace (sized lazily by [`begin`](Self::begin)).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh accumulation over a universe of `len` nodes. All
    /// slots read as zero; storage is grown once and then reused.
    pub fn begin(&mut self, len: usize) {
        if self.values.len() < len {
            self.values.resize(len, 0.0);
            self.stamp.resize(len, 0);
        }
        self.epoch += 1;
        self.touched.clear();
    }

    /// Adds `value` to `node`'s slot, registering it as touched.
    pub fn add(&mut self, node: NodeId, value: f64) {
        let i = node.index();
        if self.stamp[i] == self.epoch {
            self.values[i] += value;
        } else {
            self.stamp[i] = self.epoch;
            self.values[i] = value;
            self.touched.push(i as u32);
        }
    }

    /// The slot's current value (zero when untouched this epoch).
    pub fn get(&self, node: NodeId) -> f64 {
        let i = node.index();
        if self.stamp.get(i) == Some(&self.epoch) {
            self.values[i]
        } else {
            0.0
        }
    }

    /// Number of slots touched this epoch.
    pub fn touched_len(&self) -> usize {
        self.touched.len()
    }

    /// Sorts the touched list ascending in place (idempotent within an
    /// epoch). Split from [`touched`](Self::touched) so callers can sort
    /// once and then iterate while still reading slot values.
    pub fn sort_touched(&mut self) {
        self.touched.sort_unstable();
    }

    /// The touched list in its current order (indexes into the
    /// universe); call [`sort_touched`](Self::sort_touched) first for
    /// ascending order.
    pub fn touched(&self) -> &[u32] {
        &self.touched
    }

    /// Reads a slot by raw index (caller guarantees it came from
    /// [`sort_touched`](Self::sort_touched) /
    /// [`touched`](Self::touched) this epoch).
    pub fn value_at(&self, index: u32) -> f64 {
        self.values[index as usize]
    }

    /// Reads a slot by raw index with an epoch check — zero when the
    /// slot was not touched this epoch (the scan-mode read of frontier
    /// loops whose touched set approaches the whole universe).
    pub fn slot(&self, index: u32) -> f64 {
        let i = index as usize;
        if self.stamp[i] == self.epoch {
            self.values[i]
        } else {
            0.0
        }
    }

    /// Exports the accumulated scores as a [`ScoreVec`] over a universe
    /// of `len` nodes, dropping exact zeros; auto-densifies past
    /// [`DENSIFY_FRACTION`]. Leaves the workspace reusable.
    pub fn export(&mut self, len: usize) -> ScoreVec {
        self.touched.sort_unstable();
        let entries: Vec<(NodeId, f64)> = self
            .touched
            .iter()
            .filter_map(|&i| {
                let s = self.values[i as usize];
                (s != 0.0).then(|| (NodeId::from_index(i as usize), s))
            })
            .collect();
        ScoreVec::from_entries(len, entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn empty_vector_reads_zero_everywhere() {
        let v = ScoreVec::zeros(5);
        assert_eq!(v.len(), 5);
        assert_eq!(v.nnz(), 0);
        assert!(!v.is_dense());
        for i in 0..5 {
            assert_eq!(v.get(nid(i)), 0.0);
        }
        assert_eq!(v.iter().count(), 0);
        assert_eq!(v.sum(), 0.0);
    }

    #[test]
    fn singleton_sparse_roundtrips() {
        let v = ScoreVec::from_entries(100, vec![(nid(7), 2.5)]);
        assert!(!v.is_dense());
        assert_eq!(v.get(nid(7)), 2.5);
        assert_eq!(v.get(nid(8)), 0.0);
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![(nid(7), 2.5)]);
        let dense = v.to_dense();
        assert_eq!(dense.len(), 100);
        assert_eq!(dense[7], 2.5);
        assert_eq!(dense.iter().filter(|&&x| x != 0.0).count(), 1);
    }

    #[test]
    fn all_nodes_touched_densifies() {
        let entries: Vec<(NodeId, f64)> = (0..10).map(|i| (nid(i), i as f64 + 1.0)).collect();
        let v = ScoreVec::from_entries(10, entries);
        assert!(v.is_dense(), "past DENSIFY_FRACTION must densify");
        assert_eq!(v.nnz(), 10);
        assert_eq!(v.get(nid(9)), 10.0);
    }

    #[test]
    fn densify_threshold_is_a_strict_fraction() {
        // Exactly at the threshold: stays sparse. One past: densifies.
        let at: Vec<(NodeId, f64)> = (0..5).map(|i| (nid(i), 1.0)).collect();
        assert!(!ScoreVec::from_entries(10, at).is_dense());
        let past: Vec<(NodeId, f64)> = (0..6).map(|i| (nid(i), 1.0)).collect();
        assert!(ScoreVec::from_entries(10, past).is_dense());
    }

    #[test]
    fn merge_disjoint_and_overlapping() {
        let mut a = ScoreVec::from_entries(100, vec![(nid(1), 1.0), (nid(5), 2.0)]);
        let b = ScoreVec::from_entries(100, vec![(nid(3), 4.0), (nid(5), 0.5)]);
        a.add_assign(&b);
        assert_eq!(a.get(nid(1)), 1.0);
        assert_eq!(a.get(nid(3)), 4.0);
        assert_eq!(a.get(nid(5)), 2.5);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn merge_into_empty_and_of_empty() {
        let mut acc = ScoreVec::zeros(10);
        let v = ScoreVec::from_entries(10, vec![(nid(2), 1.0)]);
        acc.add_assign(&v);
        assert_eq!(acc.get(nid(2)), 1.0);
        acc.add_assign(&ScoreVec::zeros(10));
        assert_eq!(acc.get(nid(2)), 1.0);
        assert_eq!(acc.nnz(), 1);
    }

    #[test]
    fn merge_matches_dense_accumulation_bitwise() {
        let parts: Vec<ScoreVec> = vec![
            ScoreVec::from_entries(8, vec![(nid(0), 0.1), (nid(3), 0.7)]),
            ScoreVec::from_entries(8, vec![(nid(3), 0.2), (nid(6), 0.4)]),
            ScoreVec::from_dense(vec![0.5, 0.0, 0.0, 0.01, 0.0, 0.0, 0.0, 0.25]),
        ];
        let mut sparse_acc = ScoreVec::zeros(8);
        let mut dense_acc = [0.0f64; 8];
        for p in &parts {
            sparse_acc.add_assign(p);
            for (a, b) in dense_acc.iter_mut().zip(&p.to_dense()) {
                *a += b;
            }
        }
        for (i, &want) in dense_acc.iter().enumerate() {
            assert_eq!(sparse_acc.get(nid(i)).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn sparse_plus_dense_densifies() {
        let mut a = ScoreVec::from_entries(4, vec![(nid(1), 1.0)]);
        a.add_assign(&ScoreVec::from_dense(vec![1.0, 2.0, 3.0, 4.0]));
        assert!(a.is_dense());
        assert_eq!(a.to_dense(), vec![1.0, 3.0, 3.0, 4.0]);
    }

    #[test]
    fn dense_iteration_skips_zeros() {
        let v = ScoreVec::from_dense(vec![0.0, 1.0, 0.0, 2.0]);
        assert_eq!(
            v.iter().collect::<Vec<_>>(),
            vec![(nid(1), 1.0), (nid(3), 2.0)]
        );
        assert_eq!(v.nnz(), 4, "dense nnz counts slots, not non-zeros");
    }

    #[test]
    fn l1_distance_across_representations() {
        let a = ScoreVec::from_dense(vec![1.0, 0.0, 2.0, 0.0]);
        let b = ScoreVec::from_entries(4, vec![(nid(0), 1.0), (nid(3), 0.5)]);
        assert!((a.l1_distance(&b) - 2.5).abs() < 1e-12);
        assert_eq!(a.l1_distance(&a), 0.0);
        assert_eq!(b.l1_distance(&b), 0.0);
    }

    #[test]
    fn approx_bytes_reflects_representation() {
        let sparse = ScoreVec::from_entries(1_000_000, vec![(nid(3), 1.0), (nid(9), 2.0)]);
        let dense = ScoreVec::from_dense(vec![0.0; 1_000_000]);
        assert!(sparse.approx_bytes() < 200);
        assert!(dense.approx_bytes() >= 8_000_000);
    }

    #[test]
    fn workspace_epochs_reset_without_allocation() {
        let mut ws = SparseWorkspace::new();
        ws.begin(6);
        ws.add(nid(4), 1.0);
        ws.add(nid(1), 2.0);
        ws.add(nid(4), 0.5);
        assert_eq!(ws.touched_len(), 2);
        ws.sort_touched();
        assert_eq!(ws.touched(), &[1, 4]);
        assert_eq!(ws.get(nid(4)), 1.5);
        let exported = ws.export(6);
        assert_eq!(
            exported.iter().collect::<Vec<_>>(),
            vec![(nid(1), 2.0), (nid(4), 1.5)]
        );
        ws.begin(6);
        assert_eq!(ws.touched_len(), 0);
        assert_eq!(ws.get(nid(4)), 0.0);
        assert_eq!(ws.export(6), ScoreVec::zeros(6));
    }

    #[test]
    fn workspace_export_drops_exact_zeros() {
        let mut ws = SparseWorkspace::new();
        ws.begin(4);
        ws.add(nid(2), 0.0);
        ws.add(nid(3), 1.0);
        assert_eq!(ws.touched_len(), 2);
        let v = ws.export(4);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.get(nid(3)), 1.0);
    }

    #[test]
    fn workspace_grows_for_larger_universes() {
        let mut ws = SparseWorkspace::new();
        ws.begin(2);
        ws.add(nid(1), 1.0);
        ws.begin(50);
        ws.add(nid(40), 2.0);
        assert_eq!(ws.get(nid(1)), 0.0);
        assert_eq!(ws.get(nid(40)), 2.0);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universes_panic() {
        let mut a = ScoreVec::zeros(3);
        a.add_assign(&ScoreVec::zeros(4));
    }
}
