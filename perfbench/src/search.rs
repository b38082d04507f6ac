//! The `search-des-cluster` workload: xapian at the smoke index size (3,000
//! documents), document-partitioned into 2 shards × 2 replicas with broadcast
//! fan-out, the `p2c` replica selector and a hedge after a fixed 100 µs, with
//! instance 1 slowed 4× for the middle fifth of each run, discrete-event
//! simulated under Poisson arrivals at 3k QPS.

use crate::host::{median, peak_rss_mb, thread_cpu_timed, timed};
use crate::trace::{self, Layer};
use crate::wrap::{multiset_digest, response_hash, TracedApp, TracedCostModel, TracedFactory};
use crate::{handle_p50, micro, timed_builds, Opts, Pass, Put, TracedRows};
use std::sync::Arc;
use tailbench_core::app::ServerApp;
use tailbench_core::config::{
    BenchmarkConfig, ClusterConfig, FanoutPolicy, HarnessMode, HedgePolicy, ReplicaSelector,
};
use tailbench_core::interference::InterferencePlan;
use tailbench_core::report::{ClusterReport, HedgeStats};
use tailbench_core::runner::execute_cluster;
use tailbench_experiment::{Registry, Scale};
use tailbench_search::service::codec;
use tailbench_search::XapianApp;
use tailbench_workloads::rng::derive_seed;
use tailbench_workloads::text::{CorpusConfig, SyntheticCorpus};

/// Offered load, requests per simulated second.
const QPS: f64 = 3_000.0;
const SHARDS: usize = 2;
const REPLICAS: usize = 2;
const HEDGE_DELAY_NS: u64 = 100_000;
/// Measured requests per `execute_cluster` call.
const CALL_REQUESTS: usize = 8_000;
const CALL_WARMUP: usize = 800;
/// Calls whose simulated outputs are reported.  Every run makes at least this
/// many, so those outputs depend on the seed alone, never on host speed; later
/// calls only add host time to `req_per_cpu_s`, the simulated client requests
/// per CPU-second of the calls.
const REPORTED_CALLS: usize = 3;
/// Timed cluster builds.
const SETUP_BUILDS: usize = 9;

/// One pass over the workload.
pub fn pass(opts: &Opts) -> Result<Pass, String> {
    let registry = Registry::builtin();
    let builder = registry
        .get("xapian")
        .ok_or("xapian is not in the registry")?;
    let mut setup = Vec::new();
    let cluster = timed_builds(SETUP_BUILDS, &mut setup, || {
        builder.build_cluster(SHARDS, REPLICAS, Scale::Smoke)
    });
    let model = TracedCostModel(builder.cost_model());
    let topology = ClusterConfig::new(SHARDS, FanoutPolicy::Broadcast)
        .with_replication(REPLICAS)
        .with_selector(ReplicaSelector::PowerOfTwo)
        .with_hedge(HedgePolicy::after_ns(HEDGE_DELAY_NS));
    let offered_per_call = (CALL_REQUESTS + CALL_WARMUP) as u64;
    let span_ns = (offered_per_call as f64 / QPS * 1e9) as u64;
    let slowdown = InterferencePlan::none().slow_instance(1, span_ns * 2 / 5, span_ns * 3 / 5, 4.0);

    let mut calls: Vec<Call> = Vec::new();
    let mut payloads = Vec::new();
    let mut responses = Vec::new();
    let started = std::time::Instant::now();
    while calls.len() < REPORTED_CALLS || started.elapsed().as_secs_f64() < opts.seconds as f64 {
        let seed = derive_seed(opts.seed, calls.len() as u64);
        let apps: Vec<Arc<TracedApp>> = cluster
            .instances
            .iter()
            .map(|a| {
                Arc::new(TracedApp::new(Arc::clone(a), false, None).with_canon(canonical_hits))
            })
            .collect();
        let servers: Vec<Arc<dyn ServerApp>> = apps
            .iter()
            .map(|a| Arc::clone(a) as Arc<dyn ServerApp>)
            .collect();
        let config = BenchmarkConfig::new(QPS, CALL_REQUESTS)
            .with_warmup(CALL_WARMUP)
            .with_seed(seed)
            .with_mode(HarnessMode::Simulated)
            .with_interference(slowdown.clone());
        let mut factory = TracedFactory::new(cluster.factory(seed), micro::PAYLOADS);
        // The simulator runs on this thread, so its CPU time is the call's.
        let (cpu_s, (wall_s, report)) = thread_cpu_timed(|| {
            timed(|| {
                trace::span(Layer::Run, || {
                    execute_cluster(&servers, &mut factory, &config, &topology, Some(&model))
                })
            })
        });
        let report = report.map_err(|e| format!("simulated run failed: {e}"))?;
        let hashes: Vec<u64> = apps.iter().flat_map(|a| a.hashes()).collect();
        if calls.is_empty() {
            payloads = std::mem::take(&mut factory.log);
            responses = apps[0].samples();
        }
        calls.push(Call {
            offered: factory.produced,
            served: hashes.len() as u64,
            digest: output_digest(&report, &hashes),
            report,
            wall_s,
            cpu_s,
        });
    }
    drop(cluster);

    let offered: u64 = calls.iter().map(|c| c.offered).sum();
    let failed: u64 = calls
        .iter()
        .map(|c| {
            let missing = (CALL_REQUESTS as u64).saturating_sub(c.report.cluster.requests);
            c.report.cluster.queue_depth.dropped + c.report.unmerged + missing
        })
        .sum();
    let mut pass = Pass::new(offered, failed);
    for (i, c) in calls.iter().enumerate() {
        let q = &c.report.cluster.queue_depth;
        let legs = c.offered * SHARDS as u64 + c.report.hedge.map_or(0, |h| h.issued);
        pass.check(
            q.accepted + q.dropped == legs
                && c.served == q.accepted
                && c.offered == offered_per_call,
            format!(
                "call {i} ledger: legs offered {legs} = accepted {} + dropped {}, served {}",
                q.accepted, q.dropped, c.served
            ),
        );
        pass.check(
            c.report.unmerged == 0 && c.report.cluster.requests == CALL_REQUESTS as u64,
            format!(
                "call {i}: unmerged {}, measured {} of {CALL_REQUESTS}, output digest {:016x}",
                c.report.unmerged, c.report.cluster.requests, c.digest
            ),
        );
    }
    let reported = &calls[..REPORTED_CALLS];
    let combined = reported.iter().fold(0u64, |acc, c| {
        response_hash(&acc.to_le_bytes(), &c.digest.to_le_bytes())
    });
    pass.notes.push(format!(
        "simulated output digest of the first {REPORTED_CALLS} calls: {combined:016x}"
    ));

    let cpu_s: f64 = calls.iter().map(|c| c.cpu_s).sum();
    let wall_s: f64 = calls.iter().map(|c| c.wall_s).sum();
    let rate = offered as f64 / cpu_s.max(1e-6);
    pass.e2e
        .put("setup_s", "s", median(&setup), Some(setup.len() as u64));
    pass.extra.put("req_per_cpu_s", "1/s", rate, Some(offered));
    pass.e2e.put("peak_rss_mb", "MB", peak_rss_mb(), None);
    let sim_rate = offered as f64 / wall_s.max(1e-9);
    pass.extra
        .put("sim_req_per_s", "1/s", sim_rate, Some(calls.len() as u64));
    let sojourn: Vec<_> = reported.iter().map(|c| c.report.cluster.sojourn).collect();
    pass.extra
        .put_us("sim_sojourn_p50_us", &sojourn, |s| s.p50_ns as f64);
    pass.extra
        .put_us("sim_sojourn_p99_us", &sojourn, |s| s.p99_ns as f64);
    pass.put_report_metrics(
        &reported
            .iter()
            .map(|c| &c.report.cluster)
            .collect::<Vec<_>>(),
    );

    pass.spans = trace::drain();
    if trace::enabled() {
        let (p50, n) = handle_p50(&pass.spans, None);
        pass.layers.put("search.handle_ns_p50", "ns", p50, Some(n));
        let sim = |f: fn(&ClusterReport) -> f64| {
            median(&reported.iter().map(|c| f(&c.report)).collect::<Vec<_>>())
        };
        let l = &mut pass.layers;
        l.put(
            "router.hedges_issued",
            "count",
            sim(|r| hedges(r).issued as f64),
            None,
        );
        let win_ratio = sim(|r| hedges(r).wins as f64 / hedges(r).issued.max(1) as f64);
        l.put("router.hedge_win_ratio", "ratio", win_ratio, None);
        l.put(
            "router.p99_amplification",
            "x",
            sim(ClusterReport::p99_amplification),
            None,
        );
        l.put("router.unmerged", "count", sim(|r| r.unmerged as f64), None);
        let (dataset_s, index_s) = split_setup();
        pass.put_traced_rows(&TracedRows {
            dataset_s,
            index_s,
            payloads: &payloads,
            responses: &responses,
            qps: QPS,
            seed: opts.seed,
        });
    }
    Ok(pass)
}

fn hedges(report: &ClusterReport) -> HedgeStats {
    report.hedge.unwrap_or_default()
}

/// One `execute_cluster` call's results.
struct Call {
    report: ClusterReport,
    offered: u64,
    served: u64,
    digest: u64,
    wall_s: f64,
    cpu_s: f64,
}

/// Digest of a call's simulated outputs (every reported distribution, hedge and
/// ledger count) plus the multiset of its responses.
fn output_digest(report: &ClusterReport, response_hashes: &[u64]) -> u64 {
    let shards: Vec<_> = report.per_shard.iter().map(|s| s.sojourn).collect();
    let outputs = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}|{:?}|{}",
        report.cluster.sojourn,
        report.cluster.service,
        report.cluster.queue,
        shards,
        report.cluster.queue_depth,
        report.hedge,
        report.unmerged
    );
    response_hash(
        outputs.as_bytes(),
        &multiset_digest(response_hashes).to_le_bytes(),
    )
}

/// A leaf response with equal-score hits in document order.  The leaf orders
/// hits by score alone, and the order of equal scores follows a randomly seeded
/// `HashMap`, so it differs between processes; the hit set itself does not.
fn canonical_hits(response: &[u8]) -> Vec<u8> {
    match codec::decode_results(response) {
        Some(mut hits) => {
            hits.sort();
            codec::encode_results(&hits)
        }
        None => response.to_vec(),
    }
}

/// The cluster build split into its public steps: the corpus (with the
/// registry's smoke-scale configuration), then one index per instance.
fn split_setup() -> (f64, f64) {
    let (dataset_s, corpus) = timed(|| {
        SyntheticCorpus::generate(CorpusConfig {
            documents: 3_000,
            vocabulary: 10_000,
            ..CorpusConfig::default()
        })
    });
    let (index_s, leaves) = timed(|| {
        (0..SHARDS * REPLICAS)
            .map(|i| XapianApp::leaf(&corpus, i / REPLICAS, SHARDS))
            .collect::<Vec<_>>()
    });
    std::hint::black_box(leaves.len());
    (dataset_s, index_s)
}
