//! Wrappers around the three calls the benchmark times from outside the program:
//! `ServerApp::handle`, `RequestFactory::next_request` and
//! `CostModel::service_time_ns`.  Each opens a trace span when tracing is on;
//! the app wrapper also hashes every response so outputs can be checked.

use crate::trace::{self, Layer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tailbench_core::app::{CostModel, RequestFactory, ServerApp};
use tailbench_core::request::{Response, WorkProfile};
use tailbench_kvstore::service::codec;
use tailbench_workloads::ycsb::KvOp;

/// Handle-span tag of a kv Get.
pub const TAG_GET: u8 = 1;
/// Handle-span tag of a kv Put.
pub const TAG_PUT: u8 = 2;
/// Responses kept per app for the isolated protocol rows.
const RESPONSE_SAMPLES: usize = 1024;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a benchmark thread panicked while holding a lock")
}

/// Hash of one request/response pair; word-at-a-time so the untraced run pays
/// tens of nanoseconds per request for its output check.
#[must_use]
pub fn response_hash(request: &[u8], response: &[u8]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for part in [request, response] {
        h = mix(h ^ part.len() as u64);
        let mut chunks = part.chunks_exact(8);
        for c in chunks.by_ref() {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            h = mix(h ^ u64::from_le_bytes(word));
        }
        for &b in chunks.remainder() {
            h = mix(h ^ u64::from(b));
        }
    }
    h
}

fn mix(mut h: u64) -> u64 {
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^ (h >> 29)
}

/// An order-independent digest of a multiset of hashes.
#[must_use]
pub fn multiset_digest(hashes: &[u64]) -> u64 {
    let mut sorted = hashes.to_vec();
    sorted.sort_unstable();
    sorted
        .iter()
        .fold(mix(sorted.len() as u64), |acc, &h| mix(acc ^ h))
}

/// How many entries of `got` have no partner in `want` (multiset difference).
#[must_use]
pub fn unmatched(got: &[u64], want: &[u64]) -> usize {
    let mut got = got.to_vec();
    let mut want = want.to_vec();
    got.sort_unstable();
    want.sort_unstable();
    let (mut i, mut j, mut matched) = (0, 0, 0);
    while i < got.len() && j < want.len() {
        match got[i].cmp(&want[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                matched += 1;
                i += 1;
                j += 1;
            }
        }
    }
    got.len() - matched
}

/// Rewrites a response into a canonical form before it is hashed.
pub type Canon = fn(&[u8]) -> Vec<u8>;

/// `ServerApp` wrapper: a handle span per call, a hash per response, and an
/// optional deliberate corruption of one response (for the output-check test).
pub struct TracedApp {
    inner: Arc<dyn ServerApp>,
    tag_kv_ops: bool,
    canon: Option<Canon>,
    corrupt_at: Option<u64>,
    served: AtomicU64,
    hashes: Mutex<Vec<u64>>,
    samples: Mutex<Vec<Vec<u8>>>,
}

impl TracedApp {
    /// Wraps `inner`; `tag_kv_ops` tags handle spans with the decoded kv op, and
    /// `corrupt_at` flips the first byte of that (0-based) response.
    #[must_use]
    pub fn new(inner: Arc<dyn ServerApp>, tag_kv_ops: bool, corrupt_at: Option<u64>) -> Self {
        TracedApp {
            inner,
            tag_kv_ops,
            canon: None,
            corrupt_at,
            served: AtomicU64::new(0),
            hashes: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Hashes responses in the form `canon` gives them.
    #[must_use]
    pub fn with_canon(mut self, canon: Canon) -> Self {
        self.canon = Some(canon);
        self
    }

    /// Hashes of every response served so far.
    #[must_use]
    pub fn hashes(&self) -> Vec<u64> {
        lock(&self.hashes).clone()
    }

    /// The first responses served, for the isolated protocol rows.
    #[must_use]
    pub fn samples(&self) -> Vec<Vec<u8>> {
        lock(&self.samples).clone()
    }
}

impl ServerApp for TracedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn prepare(&self) {
        self.inner.prepare();
    }

    fn handle(&self, payload: &[u8]) -> Response {
        let tag = if self.tag_kv_ops && trace::enabled() {
            match codec::decode(payload) {
                Some(KvOp::Get { .. }) => TAG_GET,
                Some(KvOp::Put { .. }) => TAG_PUT,
                _ => 0,
            }
        } else {
            0
        };
        let mut response = trace::tagged(Layer::Handle, tag, || self.inner.handle(payload));
        let n = self.served.fetch_add(1, Ordering::Relaxed);
        if self.corrupt_at == Some(n) {
            match response.payload.first_mut() {
                Some(b) => *b ^= 0xFF,
                None => response.payload.push(0xA5),
            }
        }
        let hash = match self.canon {
            Some(canon) => response_hash(payload, &canon(&response.payload)),
            None => response_hash(payload, &response.payload),
        };
        lock(&self.hashes).push(hash);
        if n < RESPONSE_SAMPLES as u64 {
            lock(&self.samples).push(response.payload.clone());
        }
        response
    }
}

/// `RequestFactory` wrapper: a factory span per call, and a copy of the first
/// `keep` payloads (all of them for the kv replay check).
pub struct TracedFactory {
    inner: Box<dyn RequestFactory>,
    keep: usize,
    /// Payloads produced so far, up to `keep`.
    pub log: Vec<Vec<u8>>,
    /// Payloads produced so far.
    pub produced: u64,
}

impl TracedFactory {
    /// Wraps `inner`, keeping copies of its first `keep` payloads.
    #[must_use]
    pub fn new(inner: Box<dyn RequestFactory>, keep: usize) -> Self {
        TracedFactory {
            inner,
            keep,
            log: Vec::new(),
            produced: 0,
        }
    }
}

impl RequestFactory for TracedFactory {
    fn next_request(&mut self) -> Vec<u8> {
        let payload = trace::span(Layer::Factory, || self.inner.next_request());
        self.produced += 1;
        if self.log.len() < self.keep {
            self.log.push(payload.clone());
        }
        payload
    }
}

/// `CostModel` wrapper: a cost-model span per call.
pub struct TracedCostModel(pub Box<dyn CostModel>);

impl CostModel for TracedCostModel {
    fn service_time_ns(&self, profile: &WorkProfile, active_threads: usize) -> u64 {
        trace::span(Layer::CostModel, || {
            self.0.service_time_ns(profile, active_threads)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_and_unmatched_counts_differences() {
        let a = [3, 1, 2, 2];
        let b = [2, 3, 2, 1];
        assert_eq!(multiset_digest(&a), multiset_digest(&b));
        assert_ne!(multiset_digest(&a), multiset_digest(&[3, 1, 2]));
        assert_eq!(unmatched(&a, &b), 0);
        assert_eq!(unmatched(&a, &[1, 2, 3, 9]), 1);
        assert_eq!(unmatched(&[5, 5], &[5]), 1);
    }

    #[test]
    fn hash_sees_every_byte_and_the_split() {
        let base = response_hash(b"0123456789", b"ok");
        assert_ne!(base, response_hash(b"0123456788", b"ok"));
        assert_ne!(base, response_hash(b"0123456789", b"oK"));
        assert_ne!(base, response_hash(b"0123456789o", b"k"));
    }
}
