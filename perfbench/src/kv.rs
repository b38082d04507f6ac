//! The `kv-integrated` and `kv-loopback` workloads: masstree at full scale
//! (1M records, 128 B values) under mYCSB-A with Zipf 0.99 keys, one worker,
//! an unbounded FIFO queue and open-loop Poisson arrivals at 20k QPS.

use crate::host::{cpu_seconds, median, peak_rss_mb, timed};
use crate::trace::{self, Layer};
use crate::wrap::{
    multiset_digest, response_hash, unmatched, TracedApp, TracedFactory, TAG_GET, TAG_PUT,
};
use crate::{handle_p50, micro, timed_builds, Opts, Pass, Put, TracedRows};
use std::sync::Arc;
use tailbench_core::app::ServerApp;
use tailbench_core::config::{BenchmarkConfig, HarnessMode};
use tailbench_core::report::RunReport;
use tailbench_core::runner::execute;
use tailbench_experiment::{BenchApp, Registry, Scale};
use tailbench_kvstore::KvStore;
use tailbench_workloads::rng::derive_seed;
use tailbench_workloads::ycsb::{YcsbConfig, YcsbGenerator};

/// Offered load, requests per second.
const QPS: f64 = 20_000.0;
/// Measured requests per sub-run: one second at the offered load.
const SUB_RUN_REQUESTS: usize = 20_000;
/// Warmup requests before each sub-run's measured ones.
const WARMUP: usize = 1_000;
/// Timed app builds before the run (the replay's build is one more sample).
const SETUP_BUILDS: usize = 3;
/// Requests per timed chunk of the replay (about a millisecond of work).
const REPLAY_CHUNK: usize = 500;

/// One pass over a kv workload; `loopback` selects TCP over one connection.
pub fn pass(opts: &Opts, loopback: bool) -> Result<Pass, String> {
    let registry = Registry::builtin();
    let builder = registry
        .get("masstree")
        .ok_or("masstree is not in the registry")?;
    let mut setup = Vec::new();
    let app = timed_builds(SETUP_BUILDS, &mut setup, || builder.build(Scale::Full));
    let mode = if loopback {
        HarnessMode::Loopback { connections: 1 }
    } else {
        HarnessMode::Integrated
    };
    let run = measure(&app, mode, opts)?;
    drop(app);

    // Replay the same payloads, single-threaded and in issue order, on a fresh
    // app, after the measured section.  Its build is one more set-up sample.
    let fresh = timed_builds(1, &mut setup, || builder.build(Scale::Full));
    let (replayed, replay_rate) = replay(&fresh, &run.factory.log);
    drop(fresh);

    let offered = run.factory.produced;
    let matched = run.served.len() - unmatched(&run.served, &replayed);
    let mut pass = Pass::new(offered, offered.saturating_sub(matched as u64));
    let per_run = (SUB_RUN_REQUESTS + WARMUP) as u64;
    for (i, r) in run.reports.iter().enumerate() {
        let q = &r.queue_depth;
        pass.check(
            q.accepted + q.dropped == per_run && r.requests == SUB_RUN_REQUESTS as u64,
            format!(
                "sub-run {i} ledger: offered {per_run} = accepted {} + dropped {}; \
                 measured {} of {SUB_RUN_REQUESTS}",
                q.accepted, q.dropped, r.requests
            ),
        );
    }
    let sub_runs = run.reports.len() as u64;
    pass.check(
        offered == per_run * sub_runs,
        format!("factory produced {offered} payloads for {sub_runs} sub-runs of {per_run}"),
    );
    let (run_digest, replay_digest) = (multiset_digest(&run.served), multiset_digest(&replayed));
    pass.check(
        run_digest == replay_digest,
        format!(
            "response digest {run_digest:016x}, replay {replay_digest:016x} \
             ({} of {} responses unmatched)",
            run.served.len() - matched,
            run.served.len()
        ),
    );

    let served = Some(run.served.len() as u64);
    let run_rate = run.served.len() as f64 / run.cpu_s.max(1e-3);
    pass.e2e
        .put("setup_s", "s", median(&setup), Some(setup.len() as u64));
    pass.extra.put("req_per_cpu_s", "1/s", run_rate, served);
    pass.e2e.put("peak_rss_mb", "MB", peak_rss_mb(), None);
    pass.extra
        .put("kvstore.replay_req_per_s", "1/s", replay_rate, served);
    pass.put_report_metrics(&run.reports.iter().collect::<Vec<_>>());

    pass.spans = run.spans;
    if trace::enabled() {
        for (name, tag) in [("kv.get_ns_p50", TAG_GET), ("kv.put_ns_p50", TAG_PUT)] {
            let (p50, n) = handle_p50(&pass.spans, Some(tag));
            pass.layers.put(name, "ns", p50, Some(n));
        }
        // No router on a single server: nothing is hedged, amplified or unmerged.
        for (name, unit) in [
            ("router.hedges_issued", "count"),
            ("router.hedge_win_ratio", "ratio"),
            ("router.p99_amplification", "x"),
            ("router.unmerged", "count"),
        ] {
            pass.layers.put(name, unit, 0.0, None);
        }
        let (dataset_s, index_s) = split_setup();
        let payloads = &run.factory.log[..run.factory.log.len().min(micro::PAYLOADS)];
        pass.put_traced_rows(&TracedRows {
            dataset_s,
            index_s,
            payloads,
            responses: &run.responses,
            qps: QPS,
            seed: opts.seed,
        });
    }
    Ok(pass)
}

/// What the measured section leaves behind.
struct Measured {
    reports: Vec<RunReport>,
    /// The request stream, every payload kept for the replay.
    factory: TracedFactory,
    /// Hash of every response served.
    served: Vec<u64>,
    /// The first responses served.
    responses: Vec<Vec<u8>>,
    /// Process CPU seconds of the sub-runs, every thread: client pacing,
    /// hand-off, transport, app and statistics.
    cpu_s: f64,
    spans: Vec<trace::Span>,
}

/// Runs the measured section: one-second sub-runs whose medians are reported,
/// so a burst of host interference moves one sample instead of the result.
/// One factory feeds them all, so the store sees one continuous request stream.
fn measure(app: &BenchApp, mode: HarnessMode, opts: &Opts) -> Result<Measured, String> {
    let traced = Arc::new(TracedApp::new(Arc::clone(&app.app), true, opts.corrupt_at));
    let server: Arc<dyn ServerApp> = traced.clone();
    let mut factory = TracedFactory::new(app.factory(opts.seed), usize::MAX);
    let mut reports = Vec::new();
    let cpu_before = cpu_seconds();
    for i in 0..opts.seconds {
        let config = BenchmarkConfig::new(QPS, SUB_RUN_REQUESTS)
            .with_warmup(WARMUP)
            .with_seed(derive_seed(opts.seed, i))
            .with_mode(mode.clone());
        let report = trace::span(Layer::Run, || execute(&server, &mut factory, &config, None))
            .map_err(|e| format!("run failed: {e}"))?;
        reports.push(report);
    }
    Ok(Measured {
        reports,
        factory,
        served: traced.hashes(),
        responses: traced.samples(),
        cpu_s: cpu_seconds() - cpu_before,
        spans: trace::drain(),
    })
}

/// Replays `log` on `app` in order, returning each response's hash and the
/// median rate over chunks of [`REPLAY_CHUNK`] requests: the store's own
/// throughput on the workload's request stream, brief interruptions filtered.
fn replay(app: &BenchApp, log: &[Vec<u8>]) -> (Vec<u64>, f64) {
    let mut hashes = Vec::with_capacity(log.len());
    let rates: Vec<f64> = log
        .chunks(REPLAY_CHUNK)
        .map(|chunk| {
            let (secs, ()) = timed(|| {
                for p in chunk {
                    hashes.push(response_hash(p, &app.app.handle(p).payload));
                }
            });
            chunk.len() as f64 / secs.max(1e-9)
        })
        .collect();
    (hashes, median(&rates))
}

/// The masstree build split into its two public steps, as `MasstreeApp::new`
/// performs them: generating the records, then inserting them into the store.
fn split_setup() -> (f64, f64) {
    let config = YcsbConfig::default();
    let generator = YcsbGenerator::new(config.clone());
    let (dataset_s, records) = timed(|| generator.load_keys().collect::<Vec<_>>());
    let (index_s, store) = timed(|| {
        let store = KvStore::new(16, config.records);
        for (key, value) in records {
            store.put(key, value);
        }
        store
    });
    std::hint::black_box(store.max_depth());
    (dataset_s, index_s)
}
