//! Seeded inputs: the graph, the query sets and the request streams.
//!
//! The graph, `profile_cold`'s corpus and the served workloads' pools come
//! from fixed seeds. Per-query discrimination cost is heavy-tailed on this
//! graph (15 ms to 9 s, the slow ones being exact multinomial enumerations
//! over large label supports), so query sets drawn per run changed the
//! work of a run by a fifth to a half from seed to seed. The workload seed
//! instead orders the corpus's batches and draws the served request
//! streams.

use notable_characteristics::datagen::zipf::Zipf;
use notable_characteristics::datagen::{generate, Dataset, DomainId, GeneratorConfig};
use notable_characteristics::store::graph_view::to_triple_store;
use notable_characteristics::store::ntriples::write_ntriples;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};
use std::collections::HashSet;
use std::path::Path;

/// Seed of the yago-like dataset every workload runs on.
pub const GRAPH_SEED: u64 = 42;
/// Seed of `profile_cold`'s corpus draw.
const CORPUS_SEED: u64 = 0xC0_12B5;
/// Seed of the served workloads' pool draw.
const POOL_SEED: u64 = 0x9001;
/// Query sets are drawn from this many of a domain's most prominent
/// members.
const TOP_MEMBERS: usize = 40;

/// The yago-like dataset at scale 1.0.
pub fn dataset() -> Dataset {
    generate(&GeneratorConfig::yago_like(GRAPH_SEED).scaled(1.0))
}

/// Writes the dataset's graph as N-Triples, the file every setup loads.
pub fn write_graph(dataset: &Dataset, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    write_ntriples(&to_triple_store(&dataset.graph), &mut out)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    std::io::Write::flush(&mut out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// `count` distinct query sets (distinct as sets, not only as ordered
/// lists). Set `i` has `sizes[i % sizes.len()]` members of one domain,
/// drawn from its [`TOP_MEMBERS`] most prominent.
pub fn draw_sets(dataset: &Dataset, seed: u64, count: usize, sizes: &[usize]) -> Vec<Vec<String>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen: HashSet<Vec<String>> = HashSet::new();
    let mut sets = Vec::with_capacity(count);
    while sets.len() < count {
        let size = sizes[sets.len() % sizes.len()];
        let domain = DomainId::ALL[rng.random_range(0..DomainId::ALL.len())];
        let members = &dataset
            .domain(domain)
            .expect("the yago-like dataset has every domain")
            .members;
        let top = TOP_MEMBERS.min(members.len());
        let mut picked: Vec<usize> = Vec::with_capacity(size);
        while picked.len() < size {
            let i = rng.random_range(0..top);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        let names: Vec<String> = picked
            .iter()
            .map(|&i| dataset.graph.node_name(members[i]).to_owned())
            .collect();
        let mut key = names.clone();
        key.sort();
        if seen.insert(key) {
            sets.push(names);
        }
    }
    sets
}

/// `profile_cold`'s corpus: a fixed draw of `len` query sets cut into
/// fixed batches of `batch`. The workload seed shuffles the batch order
/// and the order inside each batch; which queries share a batch stays
/// fixed, since a batch's time depends on its slowest member.
pub fn corpus(dataset: &Dataset, seed: u64, len: usize, batch: usize) -> Vec<Vec<String>> {
    let sets = draw_sets(dataset, CORPUS_SEED, len, &[2, 3, 4]);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut batches: Vec<Vec<Vec<String>>> = sets.chunks(batch).map(<[_]>::to_vec).collect();
    batches.shuffle(&mut rng);
    for b in &mut batches {
        b.shuffle(&mut rng);
    }
    batches.concat()
}

/// The served workloads' pool of `len` query sets, a fixed draw. Entry
/// `i` has `[3, 2, 4][i % 3]` members: a request's cost grows with its
/// query nodes (one PPR each on `serve_override`), and under Zipf(1.0)
/// picks over 16 entries this puts about 29% of requests on 2 nodes, 48%
/// on 3 and 23% on 4, so the latency median falls inside the 3-node mode
/// instead of on a boundary between modes that sampling noise moves it
/// across.
pub fn pool(dataset: &Dataset, len: usize) -> Vec<Vec<String>> {
    draw_sets(dataset, POOL_SEED, len, &[3, 2, 4])
}

/// `count` Zipf(s = 1.0) picks over pool ranks `0..len` (rank `r` is pool
/// entry `r`).
pub fn zipf_picks(len: usize, count: usize, seed: u64) -> Vec<u32> {
    let zipf = Zipf::new(len, 1.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x21BF);
    (0..count).map(|_| zipf.sample(&mut rng) as u32).collect()
}

/// Share of `keys` already seen earlier in the sequence.
pub fn repeat_frac<T: std::hash::Hash + Eq>(keys: impl IntoIterator<Item = T>) -> f64 {
    let mut seen = HashSet::new();
    let (mut total, mut repeats) = (0u64, 0u64);
    for key in keys {
        total += 1;
        if !seen.insert(key) {
            repeats += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        repeats as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Dataset {
        generate(&GeneratorConfig::tiny(GRAPH_SEED))
    }

    #[test]
    fn generation_is_identical_for_a_seed_and_differs_across_seeds() {
        let d = tiny();
        assert_eq!(corpus(&d, 7, 24, 2), corpus(&d, 7, 24, 2));
        assert_ne!(corpus(&d, 7, 24, 2), corpus(&d, 8, 24, 2));
        assert_eq!(zipf_picks(24, 500, 7), zipf_picks(24, 500, 7));
        assert_ne!(zipf_picks(24, 500, 7), zipf_picks(24, 500, 8));
    }

    #[test]
    fn the_seed_reorders_fixed_batches_of_distinct_query_sets() {
        let d = tiny();
        let batches = |seed| {
            let mut b: Vec<Vec<Vec<String>>> = corpus(&d, seed, 24, 2)
                .chunks(2)
                .map(|b| {
                    let mut b = b.to_vec();
                    b.sort();
                    b
                })
                .collect();
            b.sort();
            b
        };
        assert_eq!(
            batches(1),
            batches(2),
            "the seed orders the batches, it does not regroup them"
        );
        let distinct: HashSet<Vec<String>> = corpus(&d, 1, 24, 2)
            .into_iter()
            .map(|mut s| {
                s.sort();
                s
            })
            .collect();
        assert_eq!(distinct.len(), 24);
    }

    #[test]
    fn set_sizes_follow_the_position_pattern() {
        let sizes: Vec<usize> = draw_sets(&tiny(), 3, 6, &[3, 2, 4])
            .iter()
            .map(Vec::len)
            .collect();
        assert_eq!(sizes, vec![3, 2, 4, 3, 2, 4]);
    }

    #[test]
    fn repeat_frac_counts_keys_seen_before() {
        assert_eq!(repeat_frac([1, 2, 3]), 0.0);
        assert_eq!(repeat_frac([1, 1, 2, 1]), 0.5);
    }
}
