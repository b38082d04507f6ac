//! Isolated per-operation rows for the harness' hot paths — the operations the
//! `harness_hotpaths` criterion benches cover — recorded in every traced run and
//! fed with the workload's own request and response payloads.

use std::hint::black_box;
use std::time::Instant;
use tailbench_core::collector::StatsCollector;
use tailbench_core::pool::BufferPool;
use tailbench_core::protocol;
use tailbench_core::queue::{Completion, PushOutcome, RequestQueue, ServerCompletion};
use tailbench_core::request::{Request, RequestId, RequestRecord, WorkProfile};
use tailbench_core::time::RunClock;
use tailbench_histogram::HdrHistogram;
use tailbench_workloads::interarrival::InterarrivalProcess;
use tailbench_workloads::rng::seeded_rng;

/// Request payloads a workload keeps for the rows.
pub const PAYLOADS: usize = 4_096;
/// Timed batches per row; each row reports the median batch.
const BATCHES: usize = 15;
/// Operations per timed batch.
const BATCH_OPS: usize = 2_000;
/// One-way hand-offs timed by [`queue_handoff_ns`].
const HANDOFFS: usize = 4_000;

/// The rows, in report order: (metric name, unit, value).
pub type Rows = Vec<(&'static str, &'static str, f64)>;

/// Runs every row.  `payloads` and `responses` must not be empty.
#[must_use]
pub fn run_all(payloads: &[Vec<u8>], responses: &[Vec<u8>], qps: f64, seed: u64) -> Rows {
    vec![
        (
            "queue.handoff_ns",
            "ns",
            queue_handoff_ns(payloads, qps, seed),
        ),
        (
            "protocol.req_roundtrip_ns",
            "ns",
            req_roundtrip_ns(payloads),
        ),
        (
            "protocol.resp_roundtrip_ns",
            "ns",
            resp_roundtrip_ns(responses),
        ),
        ("pool.take_recycle_ns", "ns", pool_take_recycle_ns(payloads)),
        ("collector.record_ns", "ns", collector_record_ns(seed)),
        ("collector.merge_us", "us", collector_merge_us(seed)),
        ("histogram.record_ns", "ns", histogram_record_ns(seed)),
    ]
}

/// Median over [`BATCHES`] of the per-operation time of `batch`, which performs
/// [`BATCH_OPS`] operations starting at the given operation index.
fn per_op_ns(mut batch: impl FnMut(usize)) -> f64 {
    batch(0);
    let samples: Vec<f64> = (1..=BATCHES)
        .map(|b| {
            let start = Instant::now();
            batch(b * BATCH_OPS);
            start.elapsed().as_nanos() as f64 / BATCH_OPS as f64
        })
        .collect();
    crate::host::median(&samples)
}

/// One-way `RequestQueue::push` → `QueueReceiver::recv` latency to a parked
/// consumer thread, with pushes spaced by Poisson gaps at the workload's rate.
fn queue_handoff_ns(payloads: &[Vec<u8>], qps: f64, seed: u64) -> f64 {
    let clock = RunClock::new();
    let queue = RequestQueue::new();
    let rx = queue.receiver();
    let consumer = std::thread::spawn(move || {
        let mut waits = Vec::with_capacity(HANDOFFS);
        while let Ok(item) = rx.recv() {
            waits.push(clock.now_ns().saturating_sub(item.enqueued_ns) as f64);
        }
        waits
    });
    let gaps = InterarrivalProcess::poisson(qps);
    let mut rng = seeded_rng(seed, 0xF00D);
    let mut due = clock.now_ns();
    for (i, payload) in payloads.iter().cycle().take(HANDOFFS).enumerate() {
        due += gaps.next_gap_ns(&mut rng);
        let now = clock.sleep_until_ns(due);
        let request = Request {
            id: RequestId(i as u64),
            payload: payload.clone(),
            issued_ns: now,
        };
        if queue.push(request, clock.now_ns(), Completion::Inline) != PushOutcome::Accepted {
            break;
        }
    }
    queue.close();
    let waits = consumer.join().expect("hand-off consumer panicked");
    crate::host::median(&waits)
}

/// `protocol::write_request` then `protocol::read_request` of each payload.
fn req_roundtrip_ns(payloads: &[Vec<u8>]) -> f64 {
    let requests: Vec<Request> = payloads
        .iter()
        .enumerate()
        .map(|(i, p)| Request {
            id: RequestId(i as u64),
            payload: p.clone(),
            issued_ns: i as u64,
        })
        .collect();
    let mut wire = Vec::new();
    per_op_ns(|first| {
        for request in requests
            .iter()
            .cycle()
            .skip(first % requests.len())
            .take(BATCH_OPS)
        {
            wire.clear();
            protocol::write_request(&mut wire, request).expect("writing to a Vec cannot fail");
            let decoded = protocol::read_request(&mut wire.as_slice());
            black_box(decoded.expect("frame was just written"));
        }
    })
}

/// `protocol::write_response` then the client's `read_response_header` of each
/// response.
fn resp_roundtrip_ns(responses: &[Vec<u8>]) -> f64 {
    let completions: Vec<ServerCompletion> = responses
        .iter()
        .enumerate()
        .map(|(i, r)| ServerCompletion {
            id: RequestId(i as u64),
            issued_ns: i as u64,
            enqueued_ns: i as u64 + 1,
            started_ns: i as u64 + 2,
            completed_ns: i as u64 + 3,
            work: WorkProfile::default(),
            response_payload: r.clone(),
        })
        .collect();
    let mut wire = Vec::new();
    let mut scratch = Vec::new();
    per_op_ns(|first| {
        let batch = completions
            .iter()
            .cycle()
            .skip(first % completions.len())
            .take(BATCH_OPS);
        for completion in batch {
            wire.clear();
            protocol::write_response(&mut wire, completion).expect("writing to a Vec cannot fail");
            let header = protocol::read_response_header(&mut wire.as_slice(), &mut scratch);
            black_box(header.expect("frame was just written"));
        }
    })
}

/// `BufferPool::take` sized for a payload, fill, `BufferPool::recycle`.
fn pool_take_recycle_ns(payloads: &[Vec<u8>]) -> f64 {
    let pool = BufferPool::default();
    per_op_ns(|first| {
        for payload in payloads
            .iter()
            .cycle()
            .skip(first % payloads.len())
            .take(BATCH_OPS)
        {
            let mut buf = pool.take(payload.len());
            buf.extend_from_slice(black_box(payload));
            pool.recycle(buf);
        }
    })
}

/// Request records with seeded, service-scale latencies.
fn records(seed: u64, n: usize) -> Vec<RequestRecord> {
    let gaps = InterarrivalProcess::poisson(100_000.0);
    let mut rng = seeded_rng(seed, 0xC011);
    (0..n as u64)
        .map(|i| {
            let issued = i * 50_000;
            let wait = gaps.next_gap_ns(&mut rng);
            let service = 1_000 + gaps.next_gap_ns(&mut rng);
            RequestRecord {
                id: RequestId(i),
                issued_ns: issued,
                enqueued_ns: issued + 100,
                started_ns: issued + 100 + wait,
                completed_ns: issued + 100 + wait + service,
                client_received_ns: issued + 200 + wait + service,
            }
        })
        .collect()
}

/// One `StatsCollector::record` into a worker's shard.
fn collector_record_ns(seed: u64) -> f64 {
    let records = records(seed, BATCH_OPS);
    let mut shard = StatsCollector::new(0);
    per_op_ns(|_| {
        for r in &records {
            shard.record(black_box(r));
        }
    })
}

/// One `StatsCollector::merge` of two 20k-record shards into an empty collector.
fn collector_merge_us(seed: u64) -> f64 {
    let mut shards = [StatsCollector::new(0), StatsCollector::new(0)];
    for (s, shard) in shards.iter_mut().enumerate() {
        for r in records(seed ^ s as u64, 20_000) {
            shard.record(&r);
        }
    }
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            let mut merged = StatsCollector::new(0);
            for shard in &shards {
                merged.merge(shard);
            }
            black_box(merged.measured());
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    crate::host::median(&samples)
}

/// One `HdrHistogram::record` of a latency-scale value.
fn histogram_record_ns(seed: u64) -> f64 {
    let gaps = InterarrivalProcess::poisson(50_000.0);
    let mut rng = seeded_rng(seed, 0x4D5);
    let values: Vec<u64> = (0..BATCH_OPS).map(|_| gaps.next_gap_ns(&mut rng)).collect();
    let mut histogram = HdrHistogram::for_latencies();
    per_op_ns(|_| {
        for &v in &values {
            histogram.record(black_box(v));
        }
    })
}
