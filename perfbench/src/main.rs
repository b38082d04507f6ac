//! Layered TailBench-RS benchmark.
//!
//! ```text
//! perfbench --workload <kv-integrated|kv-loopback|search-des-cluster> --seed <n>
//!           --seconds <n> --trace <0|1> [--corrupt-response <k>]
//! ```
//!
//! Builds the workload's app through the experiment registry, runs it for the
//! given number of seconds with inputs generated from the seed, checks every
//! output, and prints each metric by name with its unit and sample count.  The
//! last line of standard output is one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`.  A traced run makes an
//! untraced pass and then a traced one, and reports the difference of each
//! end-to-end metric as the tracing overhead.  The exit code is 0 only when every
//! output check passed.  See README.md beside this file.

mod host;
mod kv;
mod micro;
mod search;
mod trace;
mod wrap;

use host::median;
use std::fmt::Write as _;
use std::process::ExitCode;
use tailbench_core::report::{LatencyStats, RunReport};
use trace::{Layer, Span};

/// End-to-end metrics: (name, unit).  Printed with `--trace 0`.  Only these
/// two hold steady on a shared 2-vCPU VM; latency and throughput follow host
/// steal and host speed there, so they are printed but not gated (README.md).
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Ungated headline metrics whose tracing overhead is also reported.
const HEADLINE: [&str; 2] = ["sojourn_p50_us", "req_per_cpu_s"];

/// Per-layer metrics measured on every workload: (name, unit).  Printed with
/// `--trace 1`.  The traced run's text lines add those that only some workloads
/// exercise or that read 0 by construction on some (queue-wait percentiles,
/// transport overhead, pacing, the kv Get/Put split, simulated-time overhead).
const PER_LAYER: [(&str, &str); 33] = [
    ("sojourn_p50_us", "us"),
    ("req_per_cpu_s", "1/s"),
    ("queue.wait_mean_us", "us"),
    ("queue.peak_depth", "count"),
    ("queue.dropped", "count"),
    ("queue.handoff_ns", "ns"),
    ("protocol.req_roundtrip_ns", "ns"),
    ("protocol.resp_roundtrip_ns", "ns"),
    ("pool.take_recycle_ns", "ns"),
    ("service.p50_us", "us"),
    ("service.p99_us", "us"),
    ("app.handle_ns_p50", "ns"),
    ("sim.handle_share", "share"),
    ("sim.costmodel_share", "share"),
    ("sim.gen_share", "share"),
    ("sim.loop_self_share", "share"),
    ("router.hedges_issued", "count"),
    ("router.hedge_win_ratio", "ratio"),
    ("router.p99_amplification", "x"),
    ("router.unmerged", "count"),
    ("collector.record_ns", "ns"),
    ("collector.merge_us", "us"),
    ("histogram.record_ns", "ns"),
    ("workloads.gen_ns_per_req", "ns"),
    ("setup.dataset_s", "s"),
    ("setup.index_s", "s"),
    ("tail.sojourn_p99_us", "us"),
    ("tail.sojourn_p999_us", "us"),
    ("fail_share", "share"),
    ("host.steal_share", "share"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.req_per_cpu_s", "1/s"),
    ("trace.overhead.peak_rss_mb", "MB"),
];

/// The workloads, in documentation order.
const WORKLOADS: [&str; 3] = ["kv-integrated", "kv-loopback", "search-des-cluster"];

/// Command-line options.
pub struct Opts {
    workload: String,
    /// Root of every random stream the run uses.
    pub seed: u64,
    /// Length of the measured section.
    pub seconds: u64,
    trace: bool,
    /// Flip the first byte of this (0-based) response, to prove the checks fire.
    pub corrupt_at: Option<u64>,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        corrupt_at: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => opts.workload.clone_from(value),
            "--seed" => opts.seed = number()?,
            "--seconds" => opts.seconds = number()?,
            "--trace" => opts.trace = number()? == 1,
            "--corrupt-response" => opts.corrupt_at = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if opts.corrupt_at.is_some() && !opts.workload.starts_with("kv-") {
        return Err(
            "--corrupt-response applies to the kv-* workloads, whose responses are replayed".into(),
        );
    }
    Ok(opts)
}

/// One named value with its unit and, for percentiles, its sample count.
pub struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    count: Option<u64>,
}

/// Metrics in the order they were put.
pub type Metrics = Vec<Metric>;

/// Adding to a metric list.
pub trait Put {
    /// Appends one metric.
    fn put(&mut self, name: &str, unit: &'static str, value: f64, count: Option<u64>);

    /// Appends the median over runs of one quantile of a latency distribution, in
    /// µs, with the runs' median sample count.
    fn put_us(&mut self, name: &str, runs: &[LatencyStats], quantile: fn(&LatencyStats) -> f64) {
        let values: Vec<f64> = runs.iter().map(|s| quantile(s) / 1e3).collect();
        let counts: Vec<f64> = runs.iter().map(|s| s.count as f64).collect();
        self.put(name, "us", median(&values), Some(median(&counts) as u64));
    }
}

impl Put for Metrics {
    fn put(&mut self, name: &str, unit: &'static str, value: f64, count: Option<u64>) {
        self.push(Metric {
            name: name.to_string(),
            unit,
            value,
            count,
        });
    }
}

/// The outcome of one pass over a workload.
pub struct Pass {
    /// Requests offered.
    pub attempted: u64,
    /// Offered requests dropped, unmerged, missing or answered wrongly.
    pub failed: u64,
    /// Whether every check held.
    pub correct: bool,
    /// End-to-end metrics.
    pub e2e: Metrics,
    /// Other metrics every pass reports.
    pub extra: Metrics,
    /// Per-layer metrics (traced passes only).
    pub layers: Metrics,
    /// Check results and digests.
    pub notes: Vec<String>,
    /// Spans recorded during the pass (traced passes only).
    pub spans: Vec<Span>,
}

impl Pass {
    /// An empty pass over `attempted` requests of which `failed` failed.
    #[must_use]
    pub fn new(attempted: u64, failed: u64) -> Pass {
        Pass {
            attempted,
            failed,
            correct: failed == 0,
            e2e: Metrics::new(),
            extra: Metrics::new(),
            layers: Metrics::new(),
            notes: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Records a check; a failed one makes the pass incorrect.
    pub fn check(&mut self, ok: bool, what: String) {
        self.correct &= ok;
        let verdict = if ok { "ok" } else { "FAILED" };
        self.notes.push(format!("check {verdict}: {what}"));
    }

    /// The metrics every workload reads from the harness's run reports, as
    /// medians over `runs`.  Distributions a workload's mode does not produce
    /// (pacing in the simulator, transport overhead outside TCP) are left out.
    pub fn put_report_metrics(&mut self, runs: &[&RunReport]) {
        let stats =
            |f: fn(&RunReport) -> LatencyStats| runs.iter().map(|r| f(r)).collect::<Vec<_>>();
        let (sojourn, queue, service) = (
            stats(|r| r.sojourn),
            stats(|r| r.queue),
            stats(|r| r.service),
        );
        let x = &mut self.extra;
        x.put_us("sojourn_p50_us", &sojourn, |s| s.p50_ns as f64);
        x.put_us("tail.sojourn_p99_us", &sojourn, |s| s.p99_ns as f64);
        x.put_us("tail.sojourn_p999_us", &sojourn, |s| s.p999_ns as f64);
        if !trace::enabled() {
            return;
        }
        let l = &mut self.layers;
        l.put_us("queue.wait_p50_us", &queue, |s| s.p50_ns as f64);
        l.put_us("queue.wait_p99_us", &queue, |s| s.p99_ns as f64);
        l.put_us("queue.wait_mean_us", &queue, |s| s.mean_ns);
        let depth = |f: fn(&RunReport) -> u64| {
            median(&runs.iter().map(|r| f(r) as f64).collect::<Vec<_>>())
        };
        l.put(
            "queue.peak_depth",
            "count",
            depth(|r| r.queue_depth.peak_depth),
            None,
        );
        l.put(
            "queue.dropped",
            "count",
            depth(|r| r.queue_depth.dropped),
            None,
        );
        l.put_us("service.p50_us", &service, |s| s.p50_ns as f64);
        l.put_us("service.p99_us", &service, |s| s.p99_ns as f64);
        let pacing = stats(|r| r.pacing);
        if pacing.iter().all(|s| s.count > 0) {
            l.put_us("traffic.pacing_p50_us", &pacing, |s| s.p50_ns as f64);
            l.put_us("traffic.pacing_p99_us", &pacing, |s| s.p99_ns as f64);
        }
        if runs.iter().all(|r| r.configuration == "loopback") {
            let overhead = stats(|r| r.overhead);
            l.put_us("net.overhead_p50_us", &overhead, |s| s.p50_ns as f64);
            l.put_us("net.overhead_p99_us", &overhead, |s| s.p99_ns as f64);
        }
    }

    /// The per-layer rows every traced pass measures the same way: handle
    /// latency and self-time shares from the spans, the dataset/index set-up
    /// split, and the isolated rows on the workload's payloads and responses.
    pub fn put_traced_rows(&mut self, rows: &TracedRows<'_>) {
        let l = &mut self.layers;
        let (p50, n) = handle_p50(&self.spans, None);
        l.put("app.handle_ns_p50", "ns", p50, Some(n));
        let run_ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Run)
            .map(Span::duration_ns)
            .sum();
        let self_ns = trace::self_time_ns(&self.spans);
        let share = |layer| self_ns.get(&layer).copied().unwrap_or(0) as f64 / run_ns.max(1) as f64;
        l.put("sim.handle_share", "share", share(Layer::Handle), None);
        l.put(
            "sim.costmodel_share",
            "share",
            share(Layer::CostModel),
            None,
        );
        l.put("sim.gen_share", "share", share(Layer::Factory), None);
        l.put("sim.loop_self_share", "share", share(Layer::Run), None);
        let gen: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == Layer::Factory)
            .map(|s| s.duration_ns() as f64)
            .collect();
        let mean = gen.iter().sum::<f64>() / gen.len().max(1) as f64;
        l.put(
            "workloads.gen_ns_per_req",
            "ns",
            mean,
            Some(gen.len() as u64),
        );
        l.put("setup.dataset_s", "s", rows.dataset_s, None);
        l.put("setup.index_s", "s", rows.index_s, None);
        for (name, unit, value) in
            micro::run_all(rows.payloads, rows.responses, rows.qps, rows.seed)
        {
            l.put(name, unit, value, None);
        }
    }
}

/// Inputs of [`Pass::put_traced_rows`].
pub struct TracedRows<'a> {
    /// Seconds to generate the dataset or corpus alone.
    pub dataset_s: f64,
    /// Seconds to build the store or indexes from it.
    pub index_s: f64,
    /// Request payloads the workload produced.
    pub payloads: &'a [Vec<u8>],
    /// Responses the app returned.
    pub responses: &'a [Vec<u8>],
    /// The workload's offered load.
    pub qps: f64,
    /// The run's seed.
    pub seed: u64,
}

/// Builds `n` times (at least once), timing each build into `samples`, and
/// returns the last build.  Each build is dropped before the next starts, so
/// only one is resident at a time.
pub fn timed_builds<T>(n: usize, samples: &mut Vec<f64>, build: impl Fn() -> T) -> T {
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let (secs, built) = host::timed(|| trace::span(Layer::Build, &build));
        samples.push(secs);
        last = Some(built);
    }
    last.expect("the loop builds at least once")
}

/// Median duration and count of handle spans carrying `tag` (all for `None`).
#[must_use]
pub fn handle_p50(spans: &[Span], tag: Option<u8>) -> (f64, u64) {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.layer == Layer::Handle && tag.is_none_or(|t| s.tag == t))
        .map(|s| s.duration_ns() as f64)
        .collect();
    (median(&durations), durations.len() as u64)
}

fn run_pass(opts: &Opts, traced: bool) -> Result<Pass, String> {
    trace::set_enabled(traced);
    let pass = match opts.workload.as_str() {
        "kv-integrated" => kv::pass(opts, false),
        "kv-loopback" => kv::pass(opts, true),
        _ => search::pass(opts),
    };
    trace::set_enabled(false);
    pass
}

/// The value of metric `name` in `metrics`, if it was put.
fn value(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Folds the untraced pass into the traced one: tracing overhead per
/// end-to-end and headline metric, the joint ledger, both passes' check notes,
/// and a per-layer summary of the spans.
fn merge_traced(untraced: Pass, mut traced: Pass) -> Pass {
    let compared = untraced.e2e.iter().chain(
        untraced
            .extra
            .iter()
            .filter(|m| HEADLINE.contains(&m.name.as_str())),
    );
    for m in compared {
        let after = value(&traced.e2e, &m.name).or_else(|| value(&traced.extra, &m.name));
        let name = format!("trace.overhead.{}", m.name);
        traced
            .layers
            .put(&name, m.unit, after.unwrap_or(0.0) - m.value, None);
    }
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.correct &= untraced.correct;
    let mut notes = untraced.notes;
    notes.extend(traced.notes.drain(..).map(|n| format!("traced {n}")));
    let self_ns = trace::self_time_ns(&traced.spans);
    for layer in Layer::ALL {
        let (count, total_ns) = traced
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.duration_ns()));
        notes.push(format!(
            "spans {}: {count} spans, {:.3} ms, self {:.3} ms",
            layer.name(),
            total_ns as f64 / 1e6,
            self_ns.get(&layer).copied().unwrap_or(0) as f64 / 1e6
        ));
    }
    traced.notes = notes;
    traced
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Picks the contract's metrics out of `all`, in contract order.
fn contract<'a>(all: &'a [Metric], names: &[(&str, &str)]) -> Result<Vec<&'a Metric>, String> {
    names
        .iter()
        .map(|(name, unit)| {
            let m = all
                .iter()
                .find(|m| m.name == *name)
                .ok_or(format!("metric {name} was not measured"))?;
            if m.unit != *unit || !m.value.is_finite() {
                return Err(format!(
                    "metric {name} = {} {} is malformed",
                    m.value, m.unit
                ));
            }
            Ok(m)
        })
        .collect()
}

fn run(opts: &Opts) -> Result<bool, String> {
    let steal = host::StealMeter::start();
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host::nproc()
    );
    let mut pass = run_pass(opts, false)?;
    if opts.trace {
        pass = merge_traced(pass, run_pass(opts, true)?);
    }
    let fail_share = pass.failed as f64 / pass.attempted.max(1) as f64;
    pass.extra
        .put("fail_share", "share", fail_share, Some(pass.attempted));
    pass.extra
        .put("host.steal_share", "share", steal.share(), None);

    let mut out = String::new();
    for note in &pass.notes {
        let _ = writeln!(out, "{note}");
    }
    for (section, metrics) in [
        ("e2e", &pass.e2e),
        ("extra", &pass.extra),
        ("layer", &pass.layers),
    ] {
        for m in metrics {
            let count = m.count.map_or(String::new(), |n| format!(" (n={n})"));
            let value = json_number(m.value);
            let _ = writeln!(out, "{section} {} = {value} {}{count}", m.name, m.unit);
        }
    }
    print!("{out}");

    let all: Vec<Metric> = if opts.trace {
        pass.layers.into_iter().chain(pass.extra).collect()
    } else {
        pass.e2e
    };
    let chosen = contract(&all, if opts.trace { &PER_LAYER } else { &END_TO_END })?;
    let metrics: Vec<String> = chosen
        .iter()
        .map(|m| {
            let value = json_number(m.value);
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        pass.correct,
        pass.attempted,
        pass.failed,
        metrics.join(", ")
    );
    Ok(pass.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args).and_then(|opts| run(&opts)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("perfbench: an output check failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
