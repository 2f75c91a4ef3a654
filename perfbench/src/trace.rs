//! In-memory spans recorded around the public calls the benchmark makes.
//!
//! Each span carries its name (`layer.call`), start and end in
//! nanoseconds since the recorder was created, the index of its parent
//! span, and the id of the op it belongs to. Spans stay in memory until
//! the run ends; [`chrome_json`] then writes them in the Chrome
//! trace-event format, which Perfetto and `chrome://tracing` open.
//!
//! Recording is per thread and off unless [`set_enabled`] turns it on, so
//! an untraced run pays one thread-local flag read per call site.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// No parent: a root span.
pub const NO_PARENT: u32 = u32::MAX;
/// Op id of spans recorded while a workload sets up.
pub const SETUP_OP: u64 = u64::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer is the part of the name before the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        epoch: Instant::now(),
        spans: Vec::with_capacity(1 << 16),
        open: Vec::new(),
        op: 0,
    });
}

/// Turns recording on or off for this thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Sets the op id that spans opened from now on belong to.
pub fn set_op(op: u64) {
    REC.with(|r| r.borrow_mut().op = op);
}

/// Runs `f`, recording a span named `name` around it when enabled.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !ENABLED.with(Cell::get) {
        return f();
    }
    let idx = REC.with(|r| {
        let mut r = r.borrow_mut();
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let op = r.op;
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        r.open.push(idx);
        idx
    });
    let out = f();
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let end = r.epoch.elapsed().as_nanos() as u64;
        r.spans[idx as usize].end_ns = end;
        r.open.pop();
    });
    out
}

/// Takes every span this thread recorded.
pub fn take() -> Vec<Span> {
    REC.with(|r| std::mem::take(&mut r.borrow_mut().spans))
}

/// Per-name totals over `spans`: (calls, total ns).
pub fn totals<'a>(spans: impl IntoIterator<Item = &'a Span>) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for s in spans {
        let e = out.entry(s.name).or_insert((0u64, 0u64));
        e.0 += 1;
        e.1 += s.dur_ns();
    }
    out
}

/// Self time per layer over the spans of ops (set-up spans left out):
/// each span's duration minus the time its direct children cover
/// (children of one thread never overlap each other).
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns).filter(|(s, _)| s.op != SETUP_OP) {
        *out.entry(s.layer()).or_insert(0) += s.dur_ns().saturating_sub(c);
    }
    out
}

/// The spans as a Chrome trace-event JSON document.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 120 + 32);
    out.push_str("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.layer(),
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op
        ));
    }
    out.push_str("\n]}\n");
    out
}
