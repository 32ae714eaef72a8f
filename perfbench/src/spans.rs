//! In-memory span recorder for traced passes, and the decorators that
//! time calls into the simulator's layers from outside.
//!
//! A span is `(id, parent, name, start, end)` plus two kinds of
//! attachments:
//!
//! * **groups** — per-call timings of a hot layer boundary (one
//!   `Kernel::item`/`WorkItem::next` or `MemoryBackend` call, one
//!   `RaceDetector::analyze`) folded into `(calls, ns)` on the span
//!   that made the calls. Millions of such calls run per pass, so
//!   they are summed rather than kept one by one. The calls are
//!   sequential on the span's own thread, so their total is time the
//!   span's interval covers.
//! * **counters** — work counts read where the work happens
//!   (`ProtoStats`, `EnumStats`, NoC flit-hops).
//!
//! Spans live in memory until the pass ends; [`write_jsonl`] then
//! writes them out. A span's self time is its duration minus the
//! union of its child spans' intervals minus its groups' time.

use hsim_gpu::{Kernel, MemoryBackend, Op, WorkItem};
use std::cell::Cell;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span.
pub struct Span {
    pub id: u32,
    /// `0` for a root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub groups: Vec<(&'static str, u64, u64)>,
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn group(&self, name: &str) -> (u64, u64) {
        self.groups.iter().filter(|g| g.0 == name).fold((0, 0), |(c, n), g| (c + g.1, n + g.2))
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().filter(|c| c.0 == name).map(|c| c.1).sum()
    }
}

static CLOSED: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span being recorded; [`OpenSpan::close`] files it.
pub struct OpenSpan(Span);

impl OpenSpan {
    pub fn open(name: &'static str, parent: u32) -> OpenSpan {
        OpenSpan(Span {
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: now_ns(),
            end_ns: 0,
            groups: Vec::new(),
            counters: Vec::new(),
        })
    }

    pub fn id(&self) -> u32 {
        self.0.id
    }

    pub fn group(&mut self, name: &'static str, calls: u64, ns: u64) {
        self.0.groups.push((name, calls, ns));
    }

    pub fn counter(&mut self, name: &'static str, value: u64) {
        self.0.counters.push((name, value));
    }

    pub fn close(self) {
        self.close_at(now_ns());
    }

    /// File the span as having ended at `end_ns` (from [`now_ns`]).
    pub fn close_at(mut self, end_ns: u64) {
        self.0.end_ns = end_ns;
        CLOSED.lock().expect("span store poisoned").push(self.0);
    }
}

/// Run `f` inside a span named `name`.
pub fn in_span<R>(name: &'static str, parent: u32, f: impl FnOnce(u32) -> R) -> R {
    let s = OpenSpan::open(name, parent);
    let r = f(s.id());
    s.close();
    r
}

/// Every span closed so far, ordered by start time.
pub fn take() -> Vec<Span> {
    let mut v = std::mem::take(&mut *CLOSED.lock().expect("span store poisoned"));
    v.sort_by_key(|s| (s.start_ns, s.id));
    v
}

/// Self time of every span, indexed like `spans`: duration minus the
/// union of its children's intervals minus its groups' time.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut index = std::collections::HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert(s.id, i);
    }
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = index.get(&s.parent) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| {
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let grouped: u64 = s.groups.iter().map(|g| g.2).sum();
            s.dur_ns().saturating_sub(covered + grouped)
        })
        .collect()
}

/// Write spans as JSON lines: one object per span.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        write!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
        for (name, calls, ns) in &s.groups {
            write!(w, ",\"{name}.calls\":{calls},\"{name}.ns\":{ns}")?;
        }
        for (name, v) in &s.counters {
            write!(w, ",\"{name}\":{v}")?;
        }
        writeln!(w, "}}")?;
    }
    w.flush()
}

// ---------------------------------------------------------------------------
// Per-call decorators. Their accumulators are thread-local: a kernel
// run is single-threaded, and the engine span that reads them is
// opened and closed on the same thread as the calls.

thread_local! {
    static ITEM: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    static MEMSYS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

fn add(acc: &'static std::thread::LocalKey<Cell<(u64, u64)>>, ns: u64) {
    acc.with(|c| {
        let (n, t) = c.get();
        c.set((n + 1, t + ns));
    });
}

/// Take and reset this thread's `(calls, ns)` in `Kernel::item` +
/// `WorkItem::next`, and in `MemoryBackend` calls.
pub fn take_call_groups() -> ((u64, u64), (u64, u64)) {
    (ITEM.with(|c| c.replace((0, 0))), MEMSYS.with(|c| c.replace((0, 0))))
}

/// A `Kernel` that forwards every method to `inner` and times
/// `item` and the returned work items' `next`.
pub struct TimedKernel<'k>(pub &'k dyn Kernel);

impl Kernel for TimedKernel<'_> {
    fn name(&self) -> String {
        self.0.name()
    }
    fn blocks(&self) -> usize {
        self.0.blocks()
    }
    fn threads_per_block(&self) -> usize {
        self.0.threads_per_block()
    }
    fn scratch_words(&self) -> usize {
        self.0.scratch_words()
    }
    fn memory_words(&self) -> usize {
        self.0.memory_words()
    }
    fn init_memory(&self, mem: &mut [u64]) {
        self.0.init_memory(mem);
    }
    fn item(&self, block: usize, thread: usize) -> Box<dyn WorkItem> {
        let t = Instant::now();
        let inner = self.0.item(block, thread);
        add(&ITEM, t.elapsed().as_nanos() as u64);
        Box::new(TimedItem(inner))
    }
    fn validate(&self, mem: &[u64]) -> Result<(), String> {
        self.0.validate(mem)
    }
}

struct TimedItem(Box<dyn WorkItem>);

impl WorkItem for TimedItem {
    fn next(&mut self, last: Option<u64>) -> Op {
        let t = Instant::now();
        let op = self.0.next(last);
        add(&ITEM, t.elapsed().as_nanos() as u64);
        op
    }
}

/// A `MemoryBackend` that forwards to `inner` and times every call.
pub struct TimedBackend<B>(pub B);

macro_rules! timed {
    ($self:ident . $m:ident ( $($a:expr),* )) => {{
        let t = Instant::now();
        let r = $self.0.$m($($a),*);
        add(&MEMSYS, t.elapsed().as_nanos() as u64);
        r
    }};
}

impl<B: MemoryBackend> MemoryBackend for TimedBackend<B> {
    fn load(&mut self, now: u64, cu: usize, addr: u64, atomic: bool) -> u64 {
        timed!(self.load(now, cu, addr, atomic))
    }
    fn store(&mut self, now: u64, cu: usize, addr: u64, atomic: bool) -> u64 {
        timed!(self.store(now, cu, addr, atomic))
    }
    fn rmw(&mut self, now: u64, cu: usize, addr: u64) -> u64 {
        timed!(self.rmw(now, cu, addr))
    }
    fn acquire(&mut self, now: u64, cu: usize) -> u64 {
        timed!(self.acquire(now, cu))
    }
    fn release(&mut self, now: u64, cu: usize) -> u64 {
        timed!(self.release(now, cu))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns: start,
            end_ns: end,
            groups: Vec::new(),
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_and_groups() {
        let mut root = span(1, 0, 0, 100);
        root.groups.push(("g", 3, 5));
        // Two overlapping children (parallel workers) cover 10..60.
        let spans = vec![root, span(2, 1, 10, 50), span(3, 1, 20, 60), span(4, 2, 10, 20)];
        assert_eq!(self_times(&spans), vec![100 - 50 - 5, 40 - 10, 40, 10]);
    }
}
