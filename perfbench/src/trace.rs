//! Span tracing around calls into the harness' layers.
//!
//! A span records a layer name, a start and end time, its parent span and an
//! operation tag.  Spans are pushed into per-thread buffers (no lock on the
//! recording path) that move into a global sink when their thread exits or when
//! [`drain`] is called, so they are written out once, at the end of a run.  The
//! recorder is off unless [`set_enabled`] turns it on; an untraced run pays one
//! relaxed atomic load per wrapped call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// The layer boundaries the benchmark wraps, named after the repository's modules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `experiment::registry` app/dataset/index builders.
    Build,
    /// One `runner::execute` / `runner::execute_cluster` call.
    Run,
    /// `ServerApp::handle` (kvstore or search).
    Handle,
    /// `RequestFactory::next_request` (workloads).
    Factory,
    /// `CostModel::service_time_ns` (simarch).
    CostModel,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 5] = [
        Layer::Build,
        Layer::Run,
        Layer::Handle,
        Layer::Factory,
        Layer::CostModel,
    ];

    /// The module the span covers.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Build => "experiment::registry",
            Layer::Run => "core::runner",
            Layer::Handle => "app::handle",
            Layer::Factory => "workloads::factory",
            Layer::CostModel => "simarch::cost_model",
        }
    }
}

/// One recorded span; times are nanoseconds since the process-wide trace epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span, 0 for a root.
    pub parent: u64,
    /// Layer the span covers.
    pub layer: Layer,
    /// Operation tag (the kv op kind for handle spans, 0 otherwise).
    pub tag: u8,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
}

impl Span {
    /// Span length in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
/// The open root span, adopted as parent by spans on threads with an empty stack
/// (the harness' worker threads).
static ROOT: AtomicU64 = AtomicU64::new(0);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Per-thread span buffer; flushed into the sink when the thread exits.
#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    stack: Vec<u64>,
}

impl Drop for Local {
    fn drop(&mut self) {
        flush(&mut self.spans);
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn flush(spans: &mut Vec<Span>) {
    if spans.is_empty() {
        return;
    }
    // A poisoned sink only means another thread panicked mid-append; the spans
    // already in it are whole, so keep collecting.
    let mut sink = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    sink.append(spans);
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` inside a span of `layer` (tag 0).
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    tagged(layer, 0, f)
}

/// Runs `f` inside a span of `layer` carrying `tag`.  A `Run` span becomes the
/// parent of spans opened on threads that have no open span of their own.
pub fn tagged<R>(layer: Layer, tag: u8, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l
            .stack
            .last()
            .copied()
            .unwrap_or_else(|| ROOT.load(Ordering::Relaxed));
        l.stack.push(id);
        parent
    });
    if layer == Layer::Run {
        ROOT.store(id, Ordering::Relaxed);
    }
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    if layer == Layer::Run {
        ROOT.store(0, Ordering::Relaxed);
    }
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        l.spans.push(Span {
            id,
            parent,
            layer,
            tag,
            start_ns,
            end_ns,
        });
    });
    out
}

/// Collects every span recorded so far: the calling thread's buffer plus those of
/// threads that have exited.  Threads still running keep their buffers.
#[must_use]
pub fn drain() -> Vec<Span> {
    LOCAL.with(|l| flush(&mut l.borrow_mut().spans));
    let mut sink = SINK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut spans = std::mem::take(&mut *sink);
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Per-layer self time: each span's duration minus the part of its interval that
/// its child spans cover (children's intervals are clipped to the parent and
/// merged, so overlapping children are not subtracted twice).
#[must_use]
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<Layer, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<Layer, u64> = Layer::ALL.iter().map(|&l| (l, 0)).collect();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        *out.entry(s.layer).or_default() += s.duration_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(cursor);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: u64, layer: Layer, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            tag: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_merged_children() {
        let spans = [
            mk(1, 0, Layer::Run, 0, 100),
            // Two overlapping children cover [10, 40]; one runs past the parent.
            mk(2, 1, Layer::Handle, 10, 30),
            mk(3, 1, Layer::Factory, 20, 40),
            mk(4, 1, Layer::CostModel, 90, 120),
            mk(5, 2, Layer::CostModel, 12, 14),
        ];
        let t = self_time_ns(&spans);
        assert_eq!(t[&Layer::Run], 100 - 30 - 10);
        assert_eq!(t[&Layer::Handle], 20 - 2);
        assert_eq!(t[&Layer::Factory], 20);
        assert_eq!(t[&Layer::CostModel], 30 + 2);
    }

    #[test]
    fn recorded_spans_nest_and_adopt_the_run_root() {
        set_enabled(true);
        let _ = drain();
        span(Layer::Run, || {
            span(Layer::Factory, || ());
            // Joining waits for the thread's exit, which flushes its buffer.
            std::thread::spawn(|| tagged(Layer::Handle, 7, || ()))
                .join()
                .unwrap();
        });
        set_enabled(false);
        let spans = drain();
        let run = spans.iter().find(|s| s.layer == Layer::Run).unwrap();
        for layer in [Layer::Factory, Layer::Handle] {
            let child = spans.iter().find(|s| s.layer == layer).unwrap();
            assert_eq!(child.parent, run.id, "{layer:?}");
        }
        assert!(spans.iter().any(|s| s.tag == 7));
        span(Layer::Build, || ());
        assert!(drain().is_empty(), "nothing is recorded while disabled");
    }
}
