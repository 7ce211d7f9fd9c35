//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded only by the benchmark's own code, around calls into
//! each layer's public functions; the program itself is not instrumented.
//! Each thread buffers its spans locally and hands them to a global sink
//! when it finishes (or when the main thread collects a round), so the
//! hot path never takes a lock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One timed call: `parent` is the enclosing span (0 at the top) and
/// `op` the benchmark operation that caused it.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// (current op, stack of open span ids).
    static CONTEXT: RefCell<(u64, Vec<u64>)> = const { RefCell::new((0, Vec::new())) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Runs `f` inside a span named `name`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (op, parent) = CONTEXT.with(|c| {
        let mut c = c.borrow_mut();
        let parent = c.1.last().copied().unwrap_or(0);
        c.1.push(id);
        (c.0, parent)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    CONTEXT.with(|c| c.borrow_mut().1.pop());
    LOCAL.with(|l| {
        l.borrow_mut().push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns,
        })
    });
    out
}

/// The calling thread's (op, innermost open span) — hand it to worker
/// threads so their spans nest under the span that spawned them.
pub fn context() -> (u64, u64) {
    CONTEXT.with(|c| {
        let c = c.borrow();
        (c.0, c.1.last().copied().unwrap_or(0))
    })
}

/// Adopts a context captured with [`context`] on a worker thread; the
/// worker's spans are flushed to the sink when `f` returns.
pub fn in_context<T>(ctx: (u64, u64), f: impl FnOnce() -> T) -> T {
    CONTEXT.with(|c| *c.borrow_mut() = (ctx.0, vec![ctx.1]));
    let out = f();
    CONTEXT.with(|c| *c.borrow_mut() = (0, Vec::new()));
    flush_thread();
    out
}

/// Sets the operation id the calling thread's next spans belong to.
pub fn set_op(op: u64) {
    CONTEXT.with(|c| c.borrow_mut().0 = op);
}

fn flush_thread() {
    let spans = LOCAL.with(|l| std::mem::take(&mut *l.borrow_mut()));
    SINK.lock()
        .expect("span sink lock (a recording thread panicked)")
        .extend(spans);
}

/// Takes every span recorded so far (the caller's own included).
pub fn take() -> Vec<Span> {
    flush_thread();
    std::mem::take(&mut *SINK.lock().expect("span sink lock"))
}

/// Per-name totals over a set of spans: inclusive ms, self ms (minus
/// the time covered by direct children) and call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub ms: f64,
    pub self_ms: f64,
    pub calls: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ms: std::collections::HashMap<u64, f64> = std::collections::HashMap::new();
    for s in spans {
        *child_ms.entry(s.parent).or_default() += s.ms();
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.ms += s.ms();
        t.self_ms += s.ms() - child_ms.get(&s.id).copied().unwrap_or(0.0);
        t.calls += 1;
    }
    out
}

/// Inclusive ms of spans named `child` whose direct parent is named
/// `parent`.
pub fn ms_under(spans: &[Span], child: &str, parent: &str) -> f64 {
    let parents: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == parent)
        .map(|s| s.id)
        .collect();
    spans
        .iter()
        .filter(|s| s.name == child && parents.contains(&s.parent))
        .map(Span::ms)
        .sum()
}

/// Splits spans into those under a span named `root` (at any depth,
/// the root included) and the rest.
pub fn split_by_root(spans: &[Span], root: &str) -> (Vec<Span>, Vec<Span>) {
    let by_id: std::collections::HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    spans.iter().partition(|s| {
        let mut cur = Some(*s);
        while let Some(c) = cur {
            if c.name == root {
                return true;
            }
            cur = by_id.get(&c.parent).copied();
        }
        false
    })
}

/// Writes spans as tab-separated lines (id, parent, op, name, start,
/// end in ns) — the raw trace behind the per-layer metrics.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "id\tparent\top\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
