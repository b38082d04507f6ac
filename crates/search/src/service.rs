//! xapian as a TailBench application.
//!
//! [`XapianApp`] models a web-search leaf node: it owns an inverted index over a
//! synthetic Wikipedia-like corpus and answers top-k queries.  [`SearchRequestFactory`]
//! draws query terms from the corpus' Zipfian popularity distribution, as the paper does.

use crate::index::InvertedIndex;
use tailbench_core::app::{RequestFactory, ServerApp};
use tailbench_core::request::{Response, WorkProfile};
use tailbench_workloads::rng::{seeded_rng, SuiteRng};
use tailbench_workloads::text::{CorpusConfig, QueryGenerator, SyntheticCorpus};

/// Wire encoding of search queries and results.
pub mod codec {
    use crate::index::SearchHit;

    /// Encodes a ranked result list into a response payload.
    #[must_use]
    pub fn encode_results(hits: &[SearchHit]) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + hits.len() * 8);
        out.extend_from_slice(&(hits.len() as u16).to_le_bytes());
        for hit in hits {
            out.extend_from_slice(&hit.doc_id.to_le_bytes());
            out.extend_from_slice(&hit.score.to_le_bytes());
        }
        out
    }

    /// Decodes a result list from a response payload; `None` if malformed.  The root of
    /// a partition-aggregate query uses this to merge its leaves' responses.
    #[must_use]
    pub fn decode_results(payload: &[u8]) -> Option<Vec<SearchHit>> {
        let n = u16::from_le_bytes(payload.get(..2)?.try_into().ok()?) as usize;
        let body = payload.get(2..)?;
        if body.len() < n * 8 {
            return None;
        }
        let mut hits = Vec::with_capacity(n);
        for i in 0..n {
            hits.push(SearchHit {
                doc_id: u32::from_le_bytes(body[i * 8..i * 8 + 4].try_into().ok()?),
                score: f32::from_le_bytes(body[i * 8 + 4..i * 8 + 8].try_into().ok()?),
            });
        }
        Some(hits)
    }

    /// Encodes a query (term ids + result count) into a request payload.
    #[must_use]
    pub fn encode_query(terms: &[u32], k: u16) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + terms.len() * 4);
        out.extend_from_slice(&k.to_le_bytes());
        out.extend_from_slice(&(terms.len() as u16).to_le_bytes());
        for t in terms {
            out.extend_from_slice(&t.to_le_bytes());
        }
        out
    }

    /// Decodes a query payload; returns `None` if malformed.
    #[must_use]
    pub fn decode_query(payload: &[u8]) -> Option<(Vec<u32>, u16)> {
        if payload.len() < 4 {
            return None;
        }
        let k = u16::from_le_bytes(payload[..2].try_into().ok()?);
        let n = u16::from_le_bytes(payload[2..4].try_into().ok()?) as usize;
        let mut terms = Vec::with_capacity(n);
        let body = &payload[4..];
        if body.len() < n * 4 {
            return None;
        }
        for i in 0..n {
            terms.push(u32::from_le_bytes(body[i * 4..i * 4 + 4].try_into().ok()?));
        }
        Some((terms, k))
    }
}

/// Default number of results returned per query.
pub const DEFAULT_TOP_K: u16 = 10;

/// The xapian-substitute search application.
#[derive(Debug)]
pub struct XapianApp {
    index: InvertedIndex,
}

impl XapianApp {
    /// Builds the index from the given corpus configuration.
    #[must_use]
    pub fn new(config: CorpusConfig) -> Self {
        let corpus = SyntheticCorpus::generate(config);
        XapianApp {
            index: InvertedIndex::build(&corpus),
        }
    }

    /// Builds the application from an already-generated corpus (avoids regenerating the
    /// corpus when the factory also needs it).
    #[must_use]
    pub fn from_corpus(corpus: &SyntheticCorpus) -> Self {
        XapianApp {
            index: InvertedIndex::build(corpus),
        }
    }

    /// Builds a *leaf* application owning document partition `shard` of `shards`
    /// (the partition-aggregate pattern: a root fans each query out to every leaf and
    /// merges the per-leaf top-k lists with
    /// [`merge_top_k`](crate::index::merge_top_k)).
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards` or `shards == 0`.
    #[must_use]
    pub fn leaf(corpus: &SyntheticCorpus, shard: usize, shards: usize) -> Self {
        XapianApp {
            index: InvertedIndex::build_partition(corpus, shard, shards),
        }
    }

    /// The underlying index.
    #[must_use]
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }
}

impl ServerApp for XapianApp {
    fn name(&self) -> &str {
        "xapian"
    }

    fn handle(&self, payload: &[u8]) -> Response {
        let Some((terms, k)) = codec::decode_query(payload) else {
            return Response::new(vec![0xFF]);
        };
        let (hits, scanned) = self.index.search(&terms, k as usize);
        let out = codec::encode_results(&hits);
        // Query cost is dominated by postings traversal + scoring: ~60 instructions and
        // ~1.5 memory reads per posting (posting entry, doc length, score accumulator).
        let scanned = scanned as u64;
        let work = WorkProfile {
            instructions: 2_000 + 60 * scanned,
            mem_reads: 20 + scanned * 3 / 2,
            mem_writes: 10 + scanned / 4,
            footprint_bytes: 512 + scanned * 12,
            locality: 0.55,
            critical_fraction: 0.0,
        };
        Response::with_work(out, work)
    }
}

/// Generates Zipfian-popularity search queries.
#[derive(Debug)]
pub struct SearchRequestFactory {
    generator: QueryGenerator,
    rng: SuiteRng,
    top_k: u16,
}

impl SearchRequestFactory {
    /// Creates a factory for queries against the given corpus.
    #[must_use]
    pub fn new(corpus: &SyntheticCorpus, seed: u64) -> Self {
        SearchRequestFactory {
            generator: QueryGenerator::web_search(corpus),
            rng: seeded_rng(seed, 200),
            top_k: DEFAULT_TOP_K,
        }
    }
}

impl RequestFactory for SearchRequestFactory {
    fn next_request(&mut self) -> Vec<u8> {
        let terms = self.generator.next_query(&mut self.rng);
        codec::encode_query(&terms, self.top_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (SyntheticCorpus, XapianApp) {
        let corpus = SyntheticCorpus::generate(CorpusConfig::small());
        let app = XapianApp::from_corpus(&corpus);
        (corpus, app)
    }

    #[test]
    fn codec_round_trips() {
        let payload = codec::encode_query(&[1, 2, 99_999], 25);
        assert_eq!(
            codec::decode_query(&payload),
            Some((vec![1, 2, 99_999], 25))
        );
        assert_eq!(codec::decode_query(&[1]), None);
    }

    #[test]
    fn app_answers_queries_with_ranked_hits() {
        let (_, app) = setup();
        let resp = app.handle(&codec::encode_query(&[0, 1], 5));
        let n = u16::from_le_bytes(resp.payload[..2].try_into().unwrap());
        assert!(n > 0 && n <= 5);
        assert!(resp.work.instructions > 2_000);
    }

    #[test]
    fn popular_queries_cost_more_than_rare_ones() {
        let (_, app) = setup();
        let popular = app.handle(&codec::encode_query(&[0], 10));
        let rare = app.handle(&codec::encode_query(&[1_900], 10));
        assert!(popular.work.instructions > rare.work.instructions);
    }

    #[test]
    fn malformed_query_is_rejected() {
        let (_, app) = setup();
        assert_eq!(app.handle(&[1, 2]).payload, vec![0xFF]);
    }

    #[test]
    fn factory_queries_are_decodable_and_well_sized() {
        let corpus = SyntheticCorpus::generate(CorpusConfig::small());
        let mut factory = SearchRequestFactory::new(&corpus, 5);
        for _ in 0..100 {
            let payload = factory.next_request();
            let (terms, k) = codec::decode_query(&payload).unwrap();
            assert!((1..=4).contains(&terms.len()));
            assert_eq!(k, DEFAULT_TOP_K);
        }
    }

    #[test]
    fn result_codec_round_trips() {
        use crate::index::SearchHit;
        let hits = vec![
            SearchHit {
                doc_id: 3,
                score: 1.5,
            },
            SearchHit {
                doc_id: 99,
                score: 0.25,
            },
        ];
        assert_eq!(
            codec::decode_results(&codec::encode_results(&hits)),
            Some(hits)
        );
        assert_eq!(codec::decode_results(&[0xFF]), None);
        assert_eq!(codec::decode_results(&[2, 0, 1]), None, "truncated body");
    }

    #[test]
    fn leaf_responses_merge_into_a_global_top_k() {
        use crate::index::merge_top_k;
        let corpus = SyntheticCorpus::generate(CorpusConfig::small());
        let shards = 3;
        let leaves: Vec<XapianApp> = (0..shards)
            .map(|s| XapianApp::leaf(&corpus, s, shards))
            .collect();
        let query = codec::encode_query(&[0, 1], 5);
        let per_leaf: Vec<Vec<crate::index::SearchHit>> = leaves
            .iter()
            .map(|leaf| codec::decode_results(&leaf.handle(&query).payload).unwrap())
            .collect();
        let merged = merge_top_k(&per_leaf, 5);
        assert!(!merged.is_empty() && merged.len() <= 5);
        assert!(merged.windows(2).all(|w| w[0].score >= w[1].score));
        // Leaves own disjoint partitions, so merged hits never repeat a document.
        let mut ids: Vec<u32> = merged.iter().map(|h| h.doc_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), merged.len());
    }

    #[test]
    fn separately_built_leaves_answer_byte_for_byte() {
        let corpus = SyntheticCorpus::generate(CorpusConfig::small());
        let a = XapianApp::leaf(&corpus, 1, 2);
        let b = XapianApp::leaf(&corpus, 1, 2);
        // Popular terms and a large k: many equal-score hits, ranked by document id.
        let query = codec::encode_query(&[0, 0, 1], 200);
        let payload = a.handle(&query).payload;
        assert_eq!(payload, b.handle(&query).payload);
        let hits = codec::decode_results(&payload).unwrap();
        assert!(hits.windows(2).any(|w| w[0].score == w[1].score));
        assert!(hits.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn leaf_cluster_through_harness_fans_out() {
        use std::sync::Arc;
        use tailbench_core::config::BenchmarkConfig;
        use tailbench_core::{ClusterConfig, FanoutPolicy};

        let corpus = SyntheticCorpus::generate(CorpusConfig::small());
        let shards = 3;
        let apps: Vec<Arc<dyn ServerApp>> = (0..shards)
            .map(|s| Arc::new(XapianApp::leaf(&corpus, s, shards)) as Arc<dyn ServerApp>)
            .collect();
        let mut factory = SearchRequestFactory::new(&corpus, 23);
        let report = tailbench_core::runner::execute_cluster(
            &apps,
            &mut factory,
            &BenchmarkConfig::new(500.0, 200).with_warmup(20),
            &ClusterConfig::new(shards, FanoutPolicy::Broadcast),
            None,
        )
        .unwrap();
        assert_eq!(report.shards, shards);
        assert!(report.cluster.requests > 150);
        // Broadcast: every leaf served every measured query.
        for shard in &report.per_shard {
            assert_eq!(shard.requests, report.cluster.requests);
        }
        assert!(report.cluster.sojourn.p99_ns >= report.max_shard_p99_ns());
    }

    #[test]
    fn end_to_end_through_harness() {
        use std::sync::Arc;
        use tailbench_core::config::BenchmarkConfig;

        let corpus = SyntheticCorpus::generate(CorpusConfig::small());
        let app: Arc<dyn ServerApp> = Arc::new(XapianApp::from_corpus(&corpus));
        let mut factory = SearchRequestFactory::new(&corpus, 17);
        let report = tailbench_core::runner::execute(
            &app,
            &mut factory,
            &BenchmarkConfig::new(500.0, 200).with_warmup(20),
            None,
        )
        .unwrap();
        assert_eq!(report.app, "xapian");
        assert!(report.requests > 150);
    }
}
