//! Inverted index and BM25 ranking.
//!
//! xapian is a probabilistic search engine; a leaf node's work per query is dominated by
//! walking the postings lists of the query terms and scoring candidate documents.  This
//! module implements that core: an inverted index with per-term postings (document id +
//! term frequency), BM25 scoring, and top-k retrieval with a bounded heap.  Query cost is
//! proportional to the summed postings length of the query terms, which — with Zipfian
//! term popularity — produces the wide, heavy-tailed service-time distribution the paper
//! reports for xapian (Fig. 2).

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use tailbench_workloads::text::SyntheticCorpus;

/// One posting: a document that contains a term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document identifier.
    pub doc_id: u32,
    /// Number of occurrences of the term in that document.
    pub term_freq: u32,
}

/// A scored search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    /// Document identifier.
    pub doc_id: u32,
    /// BM25 relevance score.
    pub score: f32,
}

impl Eq for SearchHit {}

impl Ord for SearchHit {
    fn cmp(&self, other: &Self) -> Ordering {
        // Order by score; ties broken by doc id for determinism.  NaN never occurs
        // because BM25 scores are finite.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.doc_id.cmp(&other.doc_id))
    }
}

impl PartialOrd for SearchHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// BM25 parameters.
#[derive(Debug, Clone, Copy)]
pub struct Bm25Params {
    /// Term-frequency saturation parameter (typically 1.2).
    pub k1: f32,
    /// Length-normalization parameter (typically 0.75).
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// An inverted index over a term-id corpus.
///
/// An index can cover the whole corpus or a document partition of it (a *leaf* in the
/// partition-aggregate pattern, built with [`InvertedIndex::build_partition`]): leaves
/// keep global document ids, so the root can merge per-leaf top-k lists directly.
///
/// All postings live in one flat vector: term `t`'s list is
/// `postings[starts[t]..starts[t + 1]]`, in ascending document order.
#[derive(Debug)]
pub struct InvertedIndex {
    postings: Vec<Posting>,
    starts: Vec<usize>,
    /// BM25's length term `k1 * (1 - b + b * dl / avgdl)` per document, indexed by
    /// global id, so a posting is scored without remapping ids.
    length_norms: Vec<f32>,
    owned_documents: usize,
    params: Bm25Params,
}

impl InvertedIndex {
    /// Builds the index from a synthetic corpus.
    #[must_use]
    pub fn build(corpus: &SyntheticCorpus) -> Self {
        Self::build_with_params(corpus, Bm25Params::default())
    }

    /// Builds the index with explicit BM25 parameters.
    #[must_use]
    pub fn build_with_params(corpus: &SyntheticCorpus, params: Bm25Params) -> Self {
        Self::build_filtered(corpus, params, |_| true)
    }

    /// Builds a leaf index over the documents of partition `shard` of `shards`
    /// (documents are assigned round-robin by id: `doc_id % shards == shard`).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards` or `shards == 0`.
    #[must_use]
    pub fn build_partition(corpus: &SyntheticCorpus, shard: usize, shards: usize) -> Self {
        assert!(shards > 0 && shard < shards, "shard {shard} of {shards}");
        Self::build_filtered(corpus, Bm25Params::default(), |doc_id| {
            doc_id as usize % shards == shard
        })
    }

    /// A counting sort by term over the owned documents: one pass counts each term's
    /// document frequency, a prefix sum places the lists, and a second pass fills them.
    /// Documents are visited in id order, so every list comes out in ascending id order.
    fn build_filtered(
        corpus: &SyntheticCorpus,
        params: Bm25Params,
        owns: impl Fn(u32) -> bool,
    ) -> Self {
        let vocab = corpus.config().vocabulary;
        let owns = &owns;
        let owned = || corpus.documents().iter().filter(move |doc| owns(doc.id));
        // Document frequencies: a term counts once per document, the first time it is
        // seen there.
        let mut last_doc = vec![u32::MAX; vocab];
        let mut df = vec![0usize; vocab];
        let mut owned_documents = 0usize;
        let mut owned_len = 0u64;
        for doc in owned() {
            owned_documents += 1;
            owned_len += doc.terms.len() as u64;
            for &term in &doc.terms {
                let t = term as usize;
                df[t] += usize::from(last_doc[t] != doc.id);
                last_doc[t] = doc.id;
            }
        }
        let mut starts = Vec::with_capacity(vocab + 1);
        let mut total = 0;
        starts.push(total);
        for &n in &df {
            total += n;
            starts.push(total);
        }
        // Fill: a term's cursor sits one past its last posting, which belongs to the
        // current document exactly when the term has occurred in it already.
        let mut postings = vec![
            Posting {
                doc_id: 0,
                term_freq: 0,
            };
            total
        ];
        let mut cursor = starts[..vocab].to_vec();
        for doc in owned() {
            for &term in &doc.terms {
                let t = term as usize;
                let at = cursor[t];
                if at > starts[t] && postings[at - 1].doc_id == doc.id {
                    postings[at - 1].term_freq += 1;
                } else {
                    postings[at] = Posting {
                        doc_id: doc.id,
                        term_freq: 1,
                    };
                    cursor[t] = at + 1;
                }
            }
        }
        let avg_doc_length = if owned_documents == 0 {
            1.0
        } else {
            owned_len as f32 / owned_documents as f32
        };
        let length_norms = corpus
            .documents()
            .iter()
            .map(|doc| {
                let dl = doc.terms.len() as f32;
                params.k1 * (1.0 - params.b + params.b * dl / avg_doc_length)
            })
            .collect();
        InvertedIndex {
            postings,
            starts,
            length_norms,
            owned_documents,
            params,
        }
    }

    /// A term's postings list; `None` for terms outside the vocabulary.
    fn term_postings(&self, term: u32) -> Option<&[Posting]> {
        let t = term as usize;
        let end = *self.starts.get(t + 1)?;
        self.postings.get(self.starts[t]..end)
    }

    /// Number of indexed (owned) documents.
    #[must_use]
    pub fn num_documents(&self) -> usize {
        self.owned_documents
    }

    /// Number of distinct terms with at least one posting.
    #[must_use]
    pub fn num_terms(&self) -> usize {
        self.starts.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// Length of a term's postings list (0 for unknown terms).
    #[must_use]
    pub fn postings_len(&self, term: u32) -> usize {
        self.term_postings(term).map_or(0, <[Posting]>::len)
    }

    /// BM25 inverse document frequency of a term.
    #[must_use]
    pub fn idf(&self, term: u32) -> f32 {
        let n = self.num_documents() as f32;
        let df = self.postings_len(term) as f32;
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
    }

    /// Evaluates a disjunctive (OR) query and returns the top `k` documents by BM25
    /// score, ordered by [`SearchHit`]'s `Ord` (descending score, ties by ascending
    /// document id).  Also returns the number of postings scanned, which the service
    /// layer uses for its work profile.
    #[must_use]
    pub fn search(&self, terms: &[u32], k: usize) -> (Vec<SearchHit>, usize) {
        // No query can return more hits than there are documents.
        let k = k.min(self.num_documents());
        // Scores accumulate per global document id in term-then-posting order.  Every
        // score is strictly positive (idf = ln(1 + x) with x > 0, tf >= 1; in f32,
        // 1 + x > 1 while the leaf holds fewer than 2^23 documents), so a zero
        // accumulator marks a document not touched yet.
        let mut scores = vec![0.0f32; self.length_norms.len()];
        let mut touched: Vec<u32> = Vec::new();
        let mut scanned = 0usize;
        for &term in terms {
            let Some(postings) = self.term_postings(term) else {
                continue;
            };
            let idf = self.idf(term);
            scanned += postings.len();
            for posting in postings {
                let doc = posting.doc_id as usize;
                let tf = posting.term_freq as f32;
                let denom = tf + self.length_norms[doc];
                let score = idf * tf * (self.params.k1 + 1.0) / denom;
                if scores[doc] == 0.0 {
                    touched.push(posting.doc_id);
                }
                scores[doc] += score;
            }
        }
        // Bounded top-k selection: the heap's maximum is the worst hit kept so far, and
        // a candidate replaces it only if it ranks strictly better.
        let mut heap: BinaryHeap<SearchHit> = BinaryHeap::with_capacity(k.min(touched.len()));
        for doc_id in touched {
            let hit = SearchHit {
                doc_id,
                score: scores[doc_id as usize],
            };
            if heap.len() < k {
                heap.push(hit);
            } else if let Some(mut worst) = heap.peek_mut() {
                if hit < *worst {
                    *worst = hit;
                }
            }
        }
        (heap.into_sorted_vec(), scanned)
    }
}

/// Root-side aggregation of the partition-aggregate pattern: merges per-leaf top-k
/// lists into the global top `k`, ordered by descending score (ties broken by document
/// id for determinism).
///
/// Document partitions are disjoint, so each document appears in at most one leaf list
/// and the merge is exact *with respect to the per-leaf scores*.  As in real
/// distributed search, each leaf scores with its own collection statistics (local idf
/// and average document length), so cross-leaf score comparisons — and therefore the
/// merged ranking — can deviate slightly from a single index over the whole corpus.
#[must_use]
pub fn merge_top_k(leaf_hits: &[Vec<SearchHit>], k: usize) -> Vec<SearchHit> {
    let mut all: Vec<SearchHit> = leaf_hits.iter().flatten().copied().collect();
    all.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| a.doc_id.cmp(&b.doc_id))
    });
    all.truncate(k);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use tailbench_workloads::text::{CorpusConfig, SyntheticCorpus};

    fn index() -> (SyntheticCorpus, InvertedIndex) {
        let corpus = SyntheticCorpus::generate(CorpusConfig::small());
        let index = InvertedIndex::build(&corpus);
        (corpus, index)
    }

    #[test]
    fn index_covers_all_documents() {
        let (corpus, index) = index();
        assert_eq!(index.num_documents(), corpus.documents().len());
        assert!(index.num_terms() > 100);
    }

    #[test]
    fn popular_terms_have_long_postings() {
        let (_, index) = index();
        // Term 0 is the most popular under the Zipfian vocabulary.
        assert!(index.postings_len(0) > index.postings_len(1_500));
        assert_eq!(index.postings_len(u32::MAX), 0);
    }

    #[test]
    fn idf_decreases_with_document_frequency() {
        let (_, index) = index();
        assert!(index.idf(0) < index.idf(1_500));
    }

    #[test]
    fn search_returns_sorted_top_k() {
        let (_, index) = index();
        let (hits, scanned) = index.search(&[0, 1, 2], 10);
        assert!(hits.len() <= 10);
        assert!(!hits.is_empty());
        assert!(scanned > 0);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn search_for_unknown_terms_is_empty() {
        let (_, index) = index();
        let (hits, scanned) = index.search(&[4_000_000], 10);
        assert!(hits.is_empty());
        assert_eq!(scanned, 0);
    }

    #[test]
    fn documents_containing_query_terms_rank_above_random_ones() {
        let (corpus, index) = index();
        // Pick a moderately rare term and verify the top hit actually contains it.
        let term = (corpus.config().vocabulary / 2) as u32;
        if index.postings_len(term) == 0 {
            return; // extremely rare in the small corpus; nothing to verify
        }
        let (hits, _) = index.search(&[term], 5);
        let top = hits[0].doc_id;
        assert!(corpus.documents()[top as usize].terms.contains(&term));
    }

    #[test]
    fn partitions_are_disjoint_and_cover_the_corpus() {
        let (corpus, full) = index();
        let shards = 4;
        let leaves: Vec<InvertedIndex> = (0..shards)
            .map(|s| InvertedIndex::build_partition(&corpus, s, shards))
            .collect();
        let total: usize = leaves.iter().map(InvertedIndex::num_documents).sum();
        assert_eq!(total, full.num_documents());
        // Every leaf owns a strict subset, and a popular term's postings split across
        // leaves without loss.
        let full_postings = full.postings_len(0);
        let leaf_postings: usize = leaves.iter().map(|l| l.postings_len(0)).sum();
        assert_eq!(leaf_postings, full_postings);
        for (s, leaf) in leaves.iter().enumerate() {
            assert!(leaf.num_documents() < full.num_documents());
            // Leaves keep global document ids from their own partition only.
            let (hits, _) = leaf.search(&[0, 1, 2], 50);
            for hit in hits {
                assert_eq!(hit.doc_id as usize % shards, s);
            }
        }
    }

    #[test]
    fn merged_leaf_topk_matches_document_coverage() {
        let (corpus, full) = index();
        let shards = 4;
        let leaves: Vec<InvertedIndex> = (0..shards)
            .map(|s| InvertedIndex::build_partition(&corpus, s, shards))
            .collect();
        let terms = [0u32, 1, 2];
        let k = 10;
        let per_leaf: Vec<Vec<SearchHit>> = leaves.iter().map(|l| l.search(&terms, k).0).collect();
        let merged = merge_top_k(&per_leaf, k);
        assert_eq!(merged.len(), k.min(per_leaf.iter().map(Vec::len).sum()));
        // Sorted by descending score with deterministic ties.
        assert!(merged
            .windows(2)
            .all(|w| w[0].score > w[1].score
                || (w[0].score == w[1].score && w[0].doc_id < w[1].doc_id)));
        // Each merged hit exists in the full index's candidate set for those terms.
        let (full_hits, _) = full.search(&terms, full.num_documents());
        for hit in &merged {
            assert!(full_hits.iter().any(|f| f.doc_id == hit.doc_id));
        }
    }

    #[test]
    fn merge_top_k_of_empty_input_is_empty() {
        assert!(merge_top_k(&[], 10).is_empty());
        assert!(merge_top_k(&[Vec::new(), Vec::new()], 10).is_empty());
    }

    #[test]
    fn equal_scores_rank_by_document_id() {
        let (_, index) = index();
        // The most popular term alone: every document of the same length and term
        // frequency scores the same, so the full ranking is full of ties.
        let (hits, _) = index.search(&[0], index.num_documents());
        let ties = hits.windows(2).filter(|w| w[0].score == w[1].score).count();
        assert!(ties > hits.len() / 4, "{ties} ties in {} hits", hits.len());
        assert!(hits
            .windows(2)
            .all(|w| w[0].score > w[1].score
                || (w[0].score == w[1].score && w[0].doc_id < w[1].doc_id)));
        // Truncating the ranking keeps the lowest ids of the last score tier.
        for k in [1, 10, 50] {
            assert_eq!(index.search(&[0], k).0, hits[..k]);
        }
    }

    #[test]
    fn query_cost_scales_with_term_popularity() {
        let (_, index) = index();
        let (_, scanned_popular) = index.search(&[0], 10);
        let (_, scanned_rare) = index.search(&[1_900], 10);
        assert!(scanned_popular > scanned_rare);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use tailbench_workloads::text::{CorpusConfig, SyntheticCorpus};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn top_k_is_a_prefix_of_full_ranking(terms in prop::collection::vec(0u32..2000, 1..4), k in 1usize..20) {
            let corpus = SyntheticCorpus::generate(CorpusConfig::small());
            let index = InvertedIndex::build(&corpus);
            let (top_k, _) = index.search(&terms, k);
            let (full, _) = index.search(&terms, usize::MAX / 2);
            prop_assert!(top_k.len() <= k);
            // The scores of the top-k must equal the first k scores of the full ranking.
            for (a, b) in top_k.iter().zip(full.iter()) {
                prop_assert!((a.score - b.score).abs() < 1e-4);
            }
        }
    }
}

/// The original postings-list-per-term index and hash-map search, kept as an oracle for
/// the flat index: same lists, same scanned counts, same hit sets with identical scores.
#[cfg(test)]
mod reference {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use tailbench_workloads::text::{CorpusConfig, SyntheticCorpus};

    struct ReferenceIndex {
        postings: Vec<Vec<Posting>>,
        doc_lengths: Vec<u32>,
        owned_documents: usize,
        avg_doc_length: f32,
        params: Bm25Params,
    }

    impl ReferenceIndex {
        fn build(corpus: &SyntheticCorpus, owns: impl Fn(u32) -> bool) -> Self {
            let params = Bm25Params::default();
            let mut postings: Vec<Vec<Posting>> = vec![Vec::new(); corpus.config().vocabulary];
            let mut doc_lengths = Vec::with_capacity(corpus.documents().len());
            let mut owned_documents = 0usize;
            let mut owned_len = 0u64;
            for doc in corpus.documents() {
                doc_lengths.push(doc.terms.len() as u32);
                if !owns(doc.id) {
                    continue;
                }
                owned_documents += 1;
                owned_len += doc.terms.len() as u64;
                let mut sorted = doc.terms.clone();
                sorted.sort_unstable();
                let mut i = 0;
                while i < sorted.len() {
                    let term = sorted[i];
                    let mut j = i;
                    while j < sorted.len() && sorted[j] == term {
                        j += 1;
                    }
                    postings[term as usize].push(Posting {
                        doc_id: doc.id,
                        term_freq: (j - i) as u32,
                    });
                    i = j;
                }
            }
            let avg_doc_length = if owned_documents == 0 {
                1.0
            } else {
                owned_len as f32 / owned_documents as f32
            };
            ReferenceIndex {
                postings,
                doc_lengths,
                owned_documents,
                avg_doc_length,
                params,
            }
        }

        fn num_terms(&self) -> usize {
            self.postings.iter().filter(|p| !p.is_empty()).count()
        }

        fn postings_len(&self, term: u32) -> usize {
            self.postings.get(term as usize).map_or(0, Vec::len)
        }

        fn idf(&self, term: u32) -> f32 {
            let n = self.owned_documents as f32;
            let df = self.postings_len(term) as f32;
            ((n - df + 0.5) / (df + 0.5) + 1.0).ln()
        }

        /// Top `k` hits in `SearchHit` order (the hash map's iteration order only
        /// permuted equal scores, never the selected set).
        fn search(&self, terms: &[u32], k: usize) -> (Vec<SearchHit>, usize) {
            let k = k.min(self.owned_documents);
            let mut scores: HashMap<u32, f32> = HashMap::new();
            let mut scanned = 0usize;
            for &term in terms {
                let Some(postings) = self.postings.get(term as usize) else {
                    continue;
                };
                let idf = self.idf(term);
                for posting in postings {
                    scanned += 1;
                    let dl = self.doc_lengths[posting.doc_id as usize] as f32;
                    let tf = posting.term_freq as f32;
                    let denom = tf
                        + self.params.k1
                            * (1.0 - self.params.b + self.params.b * dl / self.avg_doc_length);
                    let score = idf * tf * (self.params.k1 + 1.0) / denom;
                    *scores.entry(posting.doc_id).or_insert(0.0) += score;
                }
            }
            let mut heap: BinaryHeap<SearchHit> = BinaryHeap::new();
            for (doc_id, score) in scores {
                heap.push(SearchHit { doc_id, score });
                if heap.len() > k {
                    heap.pop();
                }
            }
            (heap.into_sorted_vec(), scanned)
        }
    }

    fn check_against(
        index: &InvertedIndex,
        oracle: &ReferenceIndex,
        queries: &[(Vec<u32>, usize)],
    ) -> Result<(), String> {
        prop_assert_eq!(index.num_terms(), oracle.num_terms());
        for term in 0..=oracle.postings.len() as u32 {
            let expected = oracle
                .postings
                .get(term as usize)
                .map_or(&[][..], Vec::as_slice);
            prop_assert_eq!(index.term_postings(term).unwrap_or_default(), expected);
            prop_assert_eq!(index.postings_len(term), oracle.postings_len(term));
            prop_assert_eq!(index.idf(term).to_bits(), oracle.idf(term).to_bits());
        }
        for (terms, k) in queries {
            let (hits, scanned) = index.search(terms, *k);
            let (expected, expected_scanned) = oracle.search(terms, *k);
            prop_assert_eq!(scanned, expected_scanned);
            let bits = |hits: &[SearchHit]| -> Vec<(u32, u32)> {
                hits.iter().map(|h| (h.doc_id, h.score.to_bits())).collect()
            };
            prop_assert_eq!(bits(&hits), bits(&expected));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn flat_index_matches_the_reference(
            queries in prop::collection::vec(
                (
                    prop::collection::vec(
                        // Popular terms (often duplicated), the whole vocabulary and
                        // a little beyond it, and the largest ids.
                        prop_oneof![0u32..8, 0u32..2_050, u32::MAX - 1..=u32::MAX],
                        1..7,
                    ),
                    (0usize..4).prop_map(|i| [0, 1, 10, 1_000][i]),
                ),
                8..9,
            ),
            documents in 1usize..300,
            seed in 0u64..1_000,
            shards in 1usize..5,
            shard in 0usize..4,
        ) {
            let corpus = SyntheticCorpus::generate(CorpusConfig {
                documents,
                seed,
                ..CorpusConfig::small()
            });
            check_against(
                &InvertedIndex::build(&corpus),
                &ReferenceIndex::build(&corpus, |_| true),
                &queries,
            )?;
            let shard = shard % shards;
            check_against(
                &InvertedIndex::build_partition(&corpus, shard, shards),
                &ReferenceIndex::build(&corpus, |doc_id| doc_id as usize % shards == shard),
                &queries,
            )?;
        }
    }
}
