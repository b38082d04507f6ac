//! masstree as a TailBench application.
//!
//! [`MasstreeApp`] wires the concurrent store into the harness' [`ServerApp`] interface,
//! and [`YcsbRequestFactory`] produces the mycsb-a request stream (50% GETs / 50% PUTs
//! with Zipfian key popularity, paper Table I).  Requests and responses use a compact
//! binary encoding so the same payloads flow unchanged through the integrated, loopback
//! and networked configurations.

use crate::store::KvStore;
use tailbench_core::app::{RequestFactory, ServerApp};
use tailbench_core::request::{Response, WorkProfile};
use tailbench_workloads::rng::{seeded_rng, SuiteRng};
use tailbench_workloads::ycsb::{KvOp, YcsbConfig, YcsbGenerator};

/// Wire encoding of key-value operations.
pub mod codec {
    use tailbench_workloads::ycsb::KvOp;

    /// Operation tags.
    const OP_GET: u8 = 0;
    const OP_PUT: u8 = 1;
    const OP_SCAN: u8 = 2;

    /// Encodes an operation into a request payload.
    #[must_use]
    pub fn encode(op: &KvOp) -> Vec<u8> {
        match op {
            KvOp::Get { key } => {
                let mut out = Vec::with_capacity(9);
                out.push(OP_GET);
                out.extend_from_slice(&key.to_le_bytes());
                out
            }
            KvOp::Put { key, value } => {
                let mut out = Vec::with_capacity(13 + value.len());
                out.push(OP_PUT);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
                out
            }
            KvOp::Scan { key, count } => {
                let mut out = Vec::with_capacity(13);
                out.push(OP_SCAN);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&(*count as u32).to_le_bytes());
                out
            }
        }
    }

    /// Decodes a request payload. Returns `None` for malformed payloads.
    #[must_use]
    pub fn decode(payload: &[u8]) -> Option<KvOp> {
        let (&tag, rest) = payload.split_first()?;
        if rest.len() < 8 {
            return None;
        }
        let key = u64::from_le_bytes(rest[..8].try_into().ok()?);
        let rest = &rest[8..];
        match tag {
            OP_GET => Some(KvOp::Get { key }),
            OP_PUT => {
                if rest.len() < 4 {
                    return None;
                }
                let len = u32::from_le_bytes(rest[..4].try_into().ok()?) as usize;
                let value = rest.get(4..4 + len)?.to_vec();
                Some(KvOp::Put { key, value })
            }
            OP_SCAN => {
                if rest.len() < 4 {
                    return None;
                }
                let count = u32::from_le_bytes(rest[..4].try_into().ok()?) as usize;
                Some(KvOp::Scan { key, count })
            }
            _ => None,
        }
    }
}

/// The masstree-substitute server application.
#[derive(Debug)]
pub struct MasstreeApp {
    store: KvStore,
    value_size: usize,
}

impl MasstreeApp {
    /// Builds the store and preloads it with the workload's records.
    #[must_use]
    pub fn new(config: &YcsbConfig) -> Self {
        let generator = YcsbGenerator::new(config.clone());
        let store = KvStore::from_sorted(16, config.records, generator.load_keys());
        MasstreeApp {
            store,
            value_size: config.value_size,
        }
    }

    /// Direct access to the underlying store (used by tests and examples).
    #[must_use]
    pub fn store(&self) -> &KvStore {
        &self.store
    }

    fn work_profile(&self, op: &KvOp, touched: usize) -> WorkProfile {
        let depth = self.store.max_depth() as u64;
        // Each tree level costs a node search (~32 key comparisons) plus a couple of
        // cache lines; values add copy work.
        let (instructions, bytes) = match op {
            KvOp::Get { .. } => (800 + 120 * depth, 64 * depth + self.value_size as u64),
            KvOp::Put { .. } => (1_100 + 140 * depth, 128 * depth + self.value_size as u64),
            KvOp::Scan { .. } => (
                800 + 300 * touched as u64,
                64 * depth + (touched * self.value_size) as u64,
            ),
        };
        WorkProfile {
            instructions,
            mem_reads: bytes / 16,
            mem_writes: if matches!(op, KvOp::Put { .. }) {
                bytes / 32
            } else {
                bytes / 128
            },
            footprint_bytes: bytes,
            locality: 0.75,
            // masstree scales near-linearly: only the brief per-shard write lock is a
            // critical section.
            critical_fraction: if matches!(op, KvOp::Put { .. }) {
                0.04
            } else {
                0.01
            },
        }
    }
}

impl ServerApp for MasstreeApp {
    fn name(&self) -> &str {
        "masstree"
    }

    fn handle(&self, payload: &[u8]) -> Response {
        let Some(mut op) = codec::decode(payload) else {
            return Response::new(vec![0xFF]);
        };
        let (result, touched) = match &mut op {
            KvOp::Get { key } => match self.store.get(*key) {
                Some(value) => {
                    let mut out = vec![1u8];
                    out.extend_from_slice(&value);
                    (out, 1)
                }
                None => (vec![0u8], 1),
            },
            KvOp::Put { key, value } => {
                // The decoded value moves into the store; the cost model below only
                // reads the operation's kind.
                let existed = self.store.put(*key, std::mem::take(value));
                (vec![u8::from(existed)], 1)
            }
            KvOp::Scan { key, count } => {
                let entries = self.store.scan(*key, *count);
                let mut out = Vec::with_capacity(4 + entries.len() * 8);
                out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (k, _) in &entries {
                    out.extend_from_slice(&k.to_le_bytes());
                }
                let n = entries.len().max(1);
                (out, n)
            }
        };
        let work = self.work_profile(&op, touched);
        Response::with_work(result, work)
    }
}

/// Produces the mycsb-a request stream.
#[derive(Debug)]
pub struct YcsbRequestFactory {
    generator: YcsbGenerator,
    rng: SuiteRng,
}

impl YcsbRequestFactory {
    /// Creates a factory for the given workload configuration and seed.
    #[must_use]
    pub fn new(config: &YcsbConfig, seed: u64) -> Self {
        YcsbRequestFactory {
            generator: YcsbGenerator::new(config.clone()),
            rng: seeded_rng(seed, 100),
        }
    }
}

impl RequestFactory for YcsbRequestFactory {
    fn next_request(&mut self) -> Vec<u8> {
        codec::encode(&self.generator.next_op(&mut self.rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_app() -> MasstreeApp {
        MasstreeApp::new(&YcsbConfig::small())
    }

    #[test]
    fn codec_round_trips_all_ops() {
        let ops = [
            KvOp::Get { key: 42 },
            KvOp::Put {
                key: 7,
                value: vec![1, 2, 3],
            },
            KvOp::Scan {
                key: 100,
                count: 25,
            },
        ];
        for op in ops {
            assert_eq!(codec::decode(&codec::encode(&op)), Some(op));
        }
        assert_eq!(codec::decode(&[]), None);
        assert_eq!(codec::decode(&[9, 0, 0]), None);
    }

    #[test]
    fn app_serves_gets_for_preloaded_keys() {
        let app = small_app();
        let resp = app.handle(&codec::encode(&KvOp::Get { key: 5 }));
        assert_eq!(resp.payload[0], 1, "preloaded key must be found");
        assert!(resp.payload.len() > 1);
        assert!(resp.work.instructions > 0);
    }

    #[test]
    fn app_applies_puts() {
        let app = small_app();
        let put = KvOp::Put {
            key: 3,
            value: vec![9, 9, 9],
        };
        let resp = app.handle(&codec::encode(&put));
        assert_eq!(
            resp.payload,
            vec![1],
            "key 3 was preloaded, so put overwrites"
        );
        let get = app.handle(&codec::encode(&KvOp::Get { key: 3 }));
        assert_eq!(&get.payload[1..], &[9, 9, 9]);
    }

    #[test]
    fn preloaded_depth_is_pinned_at_every_scale() {
        // The depth feeds every request's WorkProfile, so the simulated costs of the
        // small (10k records), smoke (100k) and full (1M) tables rest on it.
        for (records, depth) in [(10_000, 3), (100_000, 3), (1_000_000, 4)] {
            let app = MasstreeApp::new(&YcsbConfig {
                records,
                ..YcsbConfig::default()
            });
            assert_eq!(app.store().max_depth(), depth, "{records} records");
            assert_eq!(app.store().walked_max_depth(), depth, "{records} records");
            assert_eq!(app.store().len() as u64, records);
        }
    }

    #[test]
    fn depth_tracks_root_splits_from_new_key_puts() {
        let app = small_app();
        assert_eq!(app.store().max_depth(), 3);
        // Ascending keys past the table all land in the last shard; about 8.3k of
        // them split its root.
        for key in 10_000..19_000u64 {
            let put = KvOp::Put {
                key,
                value: vec![1],
            };
            assert_eq!(
                app.handle(&codec::encode(&put)).payload,
                [0],
                "key {key} is new"
            );
            assert_eq!(app.store().max_depth(), app.store().walked_max_depth());
        }
        assert_eq!(app.store().max_depth(), 4);
    }

    #[test]
    fn app_serves_scans() {
        let app = small_app();
        let resp = app.handle(&codec::encode(&KvOp::Scan { key: 0, count: 10 }));
        let n = u32::from_le_bytes(resp.payload[..4].try_into().unwrap());
        assert_eq!(n, 10);
    }

    #[test]
    fn malformed_payload_is_rejected_gracefully() {
        let app = small_app();
        let resp = app.handle(&[42, 1, 2]);
        assert_eq!(resp.payload, vec![0xFF]);
    }

    #[test]
    fn factory_produces_decodable_requests() {
        let mut f = YcsbRequestFactory::new(&YcsbConfig::small(), 11);
        for _ in 0..200 {
            let payload = f.next_request();
            assert!(codec::decode(&payload).is_some());
        }
    }

    #[test]
    fn end_to_end_through_harness() {
        use std::sync::Arc;
        use tailbench_core::config::BenchmarkConfig;

        let config = YcsbConfig::small();
        let app: Arc<dyn ServerApp> = Arc::new(MasstreeApp::new(&config));
        let mut factory = YcsbRequestFactory::new(&config, 3);
        let report = tailbench_core::runner::execute(
            &app,
            &mut factory,
            &BenchmarkConfig::new(2_000.0, 300).with_warmup(30),
            None,
        )
        .unwrap();
        assert_eq!(report.app, "masstree");
        assert!(report.requests > 250);
        assert!(report.service.p95_ns > 0);
    }
}
