//! Causal span-tree tracing with deterministic IDs.
//!
//! Aggregate counters say *how much*; traces say *where*. This module
//! is the per-request attribution layer for the serving stack: every
//! request owns one [`TraceBuilder`], stages open RAII [`Span`]s that
//! record themselves on drop, and the finished [`Trace`] is a flat span
//! table that renders as a tree.
//!
//! Two properties are load-bearing:
//!
//! * **Deterministic IDs.** A trace id is an FNV-1a digest of the
//!   workload seed and the request id ([`derive_trace_id`]); a span id
//!   is a digest of `(trace_id, parent span id, name, order)` where
//!   `order` is a *caller-supplied* structural index (round number,
//!   input point index, …) — never an arrival-order counter. Identical
//!   work therefore produces identical ids at any thread count, which
//!   is what lets `BENCH_trace.json` be byte-compared across
//!   `--threads 1` and `--threads 4`.
//! * **Closed exactly once.** A span records into its trace only from
//!   `Drop`, so unwinding (a poisoned eval panicking mid-batch) still
//!   closes it, and it cannot be recorded twice.
//!
//! What is deterministic: the span set, ids, names, parentage, sibling
//! order, and tags. What is not: wall-clock `start_s`/`end_s` and the
//! worker index a task landed on. [`Trace::deterministic_json`] renders
//! only the former; [`Trace::to_json`] includes everything.
//!
//! Recording is always on, so it must be cheap: span names and tag keys
//! are `&'static str`, tag values are the `Copy` [`TagValue`], and up to
//! [`INLINE_TAGS`] tags live inline in the span. Opening and closing a
//! span allocates nothing of its own; the conversion to [`Json`]
//! happens only when a trace is rendered.

use crate::clock::Clock;
use crate::json::Json;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Spans retained per trace before the builder starts counting drops
/// instead of recording — a runaway-query backstop, not a tuning knob.
pub const MAX_SPANS_PER_TRACE: usize = 8192;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The trace id for a request: FNV-1a over the workload seed and the
/// numeric request id. Never zero (zero means "untraced"). No
/// randomness anywhere, so the same seeded workload produces the same
/// ids on every run and at every thread count.
pub fn derive_trace_id(seed: u64, request_id: u64) -> u64 {
    let hash = fnv_bytes(
        fnv_bytes(FNV_OFFSET, &seed.to_le_bytes()),
        &request_id.to_le_bytes(),
    );
    if hash == 0 {
        1
    } else {
        hash
    }
}

/// The trace id for a request whose id is not a plain integer: digests
/// arbitrary bytes instead. Same non-zero guarantee.
pub fn derive_trace_id_bytes(seed: u64, id_bytes: &[u8]) -> u64 {
    let hash = fnv_bytes(fnv_bytes(FNV_OFFSET, &seed.to_le_bytes()), id_bytes);
    if hash == 0 {
        1
    } else {
        hash
    }
}

fn derive_span_id(trace_id: u64, parent_id: u64, name: &str, order: u64) -> u64 {
    let mut hash = fnv_bytes(FNV_OFFSET, &trace_id.to_le_bytes());
    hash = fnv_bytes(hash, &parent_id.to_le_bytes());
    hash = fnv_bytes(hash, name.as_bytes());
    hash = fnv_bytes(hash, &order.to_le_bytes());
    if hash == 0 {
        1
    } else {
        hash
    }
}

/// A tag value: what [`Span::tag`] stores. `Copy` and allocation-free;
/// renders as the matching [`Json`] scalar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TagValue {
    /// A static label (cache outcome, request outcome, strategy, …).
    Str(&'static str),
    /// A number (counts, cost units, round numbers).
    Num(f64),
    /// A flag (feasibility, coarse fidelity).
    Bool(bool),
}

impl TagValue {
    /// The label, if this is a string tag.
    pub fn as_str(self) -> Option<&'static str> {
        match self {
            TagValue::Str(s) => Some(s),
            _ => None,
        }
    }

    fn to_json(self) -> Json {
        match self {
            TagValue::Str(s) => Json::from(s),
            TagValue::Num(n) => Json::Num(n),
            TagValue::Bool(b) => Json::Bool(b),
        }
    }
}

impl From<&'static str> for TagValue {
    fn from(s: &'static str) -> TagValue {
        TagValue::Str(s)
    }
}

impl From<u64> for TagValue {
    /// Lossy above 2⁵³, like [`Json::from`].
    fn from(n: u64) -> TagValue {
        TagValue::Num(n as f64)
    }
}

impl From<usize> for TagValue {
    fn from(n: usize) -> TagValue {
        TagValue::Num(n as f64)
    }
}

impl From<bool> for TagValue {
    fn from(b: bool) -> TagValue {
        TagValue::Bool(b)
    }
}

/// Tags a span holds inline before spilling to the heap — the most any
/// call site sets today (an optimize request's root: `strategy`,
/// `outcome`, `cost_units`).
pub const INLINE_TAGS: usize = 3;

/// A span's tags in insertion order: the first [`INLINE_TAGS`] inline,
/// any beyond that in a heap spill (kept, never dropped). Slots fill in
/// order, so equal tag lists are equal representations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tags {
    inline: [Option<(&'static str, TagValue)>; INLINE_TAGS],
    spill: Vec<(&'static str, TagValue)>,
}

impl Tags {
    fn push(&mut self, key: &'static str, value: TagValue) {
        match self.inline.iter_mut().find(|slot| slot.is_none()) {
            Some(slot) => *slot = Some((key, value)),
            None => self.spill.push((key, value)),
        }
    }

    /// The tags in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, TagValue)> + '_ {
        self.inline
            .iter()
            .map_while(|slot| *slot)
            .chain(self.spill.iter().copied())
    }

    fn get(&self, key: &str) -> Option<TagValue> {
        self.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

/// A 64-bit id rendered the way it crosses the wire: 16 lower-case hex
/// characters. `Json::Num` is an `f64` and silently loses integer
/// precision above 2^53, so ids are *always* strings in JSON.
pub fn id_hex(id: u64) -> String {
    format!("{id:016x}")
}

/// Parses an id rendered by [`id_hex`]. Strict: exactly 16 lower-case
/// hex characters.
pub fn parse_id_hex(text: &str) -> Option<u64> {
    if text.len() != 16
        || !text
            .bytes()
            .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
    {
        return None;
    }
    u64::from_str_radix(text, 16).ok()
}

/// One closed span: an interval in the request's lifetime with a name,
/// a deterministic position in the tree, and deterministic tags.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Deterministic id ([`derive_trace_id`]-style digest).
    pub span_id: u64,
    /// Parent span id; 0 for the root.
    pub parent_id: u64,
    /// Caller-supplied sibling index — the deterministic sort key for
    /// children of one parent.
    pub order: u64,
    /// Stage name, e.g. `serve.request`, `explore.round`, `eval.power`.
    pub name: &'static str,
    /// Deterministic annotations in insertion order (cache outcome,
    /// feasibility, cost units, …).
    pub tags: Tags,
    /// Work-stealing worker the span ran on. Scheduling-dependent:
    /// excluded from the deterministic rendering.
    pub worker: Option<usize>,
    /// Clock seconds at open. Scheduling-dependent under a wall clock.
    pub start_s: f64,
    /// Clock seconds at close.
    pub end_s: f64,
}

struct TraceState {
    spans: Vec<SpanRecord>,
}

struct TraceCore {
    trace_id: u64,
    clock: Clock,
    capacity: usize,
    state: Mutex<TraceState>,
    open: AtomicU64,
    dropped: AtomicU64,
}

impl TraceCore {
    fn lock(&self) -> MutexGuard<'_, TraceState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn record(&self, record: SpanRecord) {
        let mut state = self.lock();
        if state.spans.len() < self.capacity {
            state.spans.push(record);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The per-request trace under construction. Cheap to share: spans hold
/// an `Arc` of the same core, so workers on other threads can open
/// children concurrently.
pub struct TraceBuilder {
    core: Arc<TraceCore>,
}

impl TraceBuilder {
    /// A builder for `trace_id`, timing spans on `clock`, retaining at
    /// most [`MAX_SPANS_PER_TRACE`] spans.
    pub fn new(trace_id: u64, clock: Clock) -> TraceBuilder {
        TraceBuilder::with_capacity(trace_id, clock, MAX_SPANS_PER_TRACE)
    }

    /// A builder with an explicit span capacity (tests shrink it to
    /// exercise the drop counter).
    pub fn with_capacity(trace_id: u64, clock: Clock, capacity: usize) -> TraceBuilder {
        TraceBuilder {
            core: Arc::new(TraceCore {
                trace_id,
                clock,
                capacity,
                state: Mutex::new(TraceState { spans: Vec::new() }),
                open: AtomicU64::new(0),
                dropped: AtomicU64::new(0),
            }),
        }
    }

    /// The id every span in this trace carries.
    pub fn trace_id(&self) -> u64 {
        self.core.trace_id
    }

    /// Opens the root span (parent 0, order 0).
    pub fn root(&self, name: &'static str) -> Span {
        Span::open(Arc::clone(&self.core), 0, name, 0)
    }

    /// Spans currently open (created and not yet dropped).
    pub fn open_spans(&self) -> u64 {
        self.core.open.load(Ordering::Acquire)
    }

    /// Closes the trace. Spans are sorted by span id — a deterministic
    /// order independent of which worker finished first. Spans still
    /// open at this point are *leaked guards*; they are counted in
    /// [`Trace::open_at_finish`] and never appear in the span table.
    pub fn finish(self) -> Trace {
        let mut spans = {
            let mut state = self.core.lock();
            std::mem::take(&mut state.spans)
        };
        spans.sort_by_key(|s| s.span_id);
        Trace {
            trace_id: self.core.trace_id,
            spans,
            dropped_spans: self.core.dropped.load(Ordering::Relaxed),
            open_at_finish: self.core.open.load(Ordering::Acquire),
        }
    }
}

/// An open span: an RAII guard that records itself into the trace on
/// drop — exactly once, even when unwinding from a panic.
#[must_use = "a span records on drop; binding it to _ closes it immediately"]
pub struct Span {
    core: Arc<TraceCore>,
    span_id: u64,
    parent_id: u64,
    order: u64,
    name: &'static str,
    tags: Tags,
    worker: Option<usize>,
    start_s: f64,
}

impl Span {
    fn open(core: Arc<TraceCore>, parent_id: u64, name: &'static str, order: u64) -> Span {
        let span_id = derive_span_id(core.trace_id, parent_id, name, order);
        let start_s = core.clock.now();
        core.open.fetch_add(1, Ordering::AcqRel);
        Span {
            core,
            span_id,
            parent_id,
            order,
            name,
            tags: Tags::default(),
            worker: None,
            start_s,
        }
    }

    /// This span's deterministic id.
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The id of the trace this span belongs to.
    pub fn trace_id(&self) -> u64 {
        self.core.trace_id
    }

    /// Opens a child span. `order` is the child's structural index
    /// under this parent (round number, point index, …) and is part of
    /// its id — two children of one parent must not share
    /// `(name, order)`.
    pub fn child(&self, name: &'static str, order: u64) -> Span {
        Span::open(Arc::clone(&self.core), self.span_id, name, order)
    }

    /// Attaches a deterministic annotation. Insertion order is
    /// preserved in the rendering, so tag in a deterministic order.
    pub fn tag(&mut self, key: &'static str, value: impl Into<TagValue>) {
        self.tags.push(key, value.into());
    }

    /// Notes which executor worker ran this span. Scheduling-dependent:
    /// kept out of the deterministic rendering.
    pub fn set_worker(&mut self, worker: usize) {
        self.worker = Some(worker);
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let record = SpanRecord {
            span_id: self.span_id,
            parent_id: self.parent_id,
            order: self.order,
            name: self.name,
            tags: std::mem::take(&mut self.tags),
            worker: self.worker,
            start_s: self.start_s,
            end_s: self.core.clock.now(),
        };
        self.core.record(record);
        self.core.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A finished trace: the flat span table plus bookkeeping. Renders as
/// a tree in two flavours — full ([`Trace::to_json`]) and
/// scheduling-independent ([`Trace::deterministic_json`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The deterministic request-derived id.
    pub trace_id: u64,
    /// Every recorded span, sorted by span id.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the trace hit its capacity.
    pub dropped_spans: u64,
    /// Guards still open when `finish()` ran — always 0 in a
    /// well-formed trace.
    pub open_at_finish: u64,
}

impl Trace {
    /// Number of recorded spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Depth of the rendered tree (root = 1; empty trace = 0).
    pub fn depth(&self) -> usize {
        fn node_depth(index: &TreeIndex<'_>, span_id: u64) -> usize {
            1 + index
                .children(span_id)
                .iter()
                .map(|s| node_depth(index, s.span_id))
                .max()
                .unwrap_or(0)
        }
        let index = TreeIndex::new(&self.spans);
        index
            .roots
            .iter()
            .map(|root| node_depth(&index, root.span_id))
            .max()
            .unwrap_or(0)
    }

    /// Spans tagged `key == value` (string tags only).
    pub fn count_tagged(&self, key: &str, value: &str) -> usize {
        self.spans
            .iter()
            .filter(|s| {
                s.tags
                    .iter()
                    .any(|(k, v)| k == key && v.as_str() == Some(value))
            })
            .count()
    }

    /// Spans with this name.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// The first tag value on the root span with this key.
    pub fn root_tag(&self, key: &str) -> Option<TagValue> {
        self.roots().first().and_then(|root| root.tags.get(key))
    }

    fn roots(&self) -> Vec<&SpanRecord> {
        TreeIndex::new(&self.spans).roots
    }

    fn node_json(index: &TreeIndex<'_>, span: &SpanRecord, scheduling: bool) -> Json {
        let mut tags = Json::obj();
        for (key, value) in span.tags.iter() {
            tags.insert(key, value.to_json());
        }
        let mut node = Json::obj()
            .with("span", id_hex(span.span_id))
            .with("name", span.name)
            .with("order", span.order)
            .with("tags", tags);
        if scheduling {
            if let Some(worker) = span.worker {
                node.insert("worker", worker);
            }
            node.insert("start_s", span.start_s);
            node.insert("end_s", span.end_s);
            node.insert("elapsed_s", span.end_s - span.start_s);
        }
        let mut arr = Json::arr();
        for child in index.children(span.span_id) {
            arr.push(Trace::node_json(index, child, scheduling));
        }
        node.insert("children", arr);
        node
    }

    fn tree_json(&self, scheduling: bool) -> Json {
        let index = TreeIndex::new(&self.spans);
        let mut roots = Json::arr();
        for root in &index.roots {
            roots.push(Trace::node_json(&index, root, scheduling));
        }
        Json::obj()
            .with("trace_id", id_hex(self.trace_id))
            .with("spans", self.span_count())
            .with("dropped_spans", self.dropped_spans)
            .with("open_at_finish", self.open_at_finish)
            .with("tree", roots)
    }

    /// The full rendering: tree shape, tags, worker indexes and wall
    /// timings. What the `trace` wire request returns.
    pub fn to_json(&self) -> Json {
        self.tree_json(true)
    }

    /// The scheduling-independent rendering: tree shape, names, orders
    /// and tags only — no timings, no worker indexes. Byte-stable
    /// across thread counts; what `BENCH_trace.json` embeds.
    pub fn deterministic_json(&self) -> Json {
        self.tree_json(false)
    }
}

/// A span table indexed for tree walks. One stable sort by
/// `(parent_id, order, span_id)` puts every node's children in one
/// contiguous run, already in render order, so a walk costs
/// O(n log n) instead of a rescan of the table per node.
struct TreeIndex<'a> {
    by_parent: Vec<&'a SpanRecord>,
    /// Roots proper, plus orphans whose parent was dropped over
    /// capacity — rendered at top level rather than lost. Sorted by
    /// `(order, span_id)`.
    roots: Vec<&'a SpanRecord>,
}

impl<'a> TreeIndex<'a> {
    fn new(spans: &'a [SpanRecord]) -> TreeIndex<'a> {
        let mut ids: Vec<u64> = spans.iter().map(|s| s.span_id).collect();
        ids.sort_unstable();
        // Both sorts are stable: exact key ties keep table order.
        let mut roots: Vec<&SpanRecord> = spans
            .iter()
            .filter(|s| s.parent_id == 0 || ids.binary_search(&s.parent_id).is_err())
            .collect();
        roots.sort_by_key(|s| (s.order, s.span_id));
        let mut by_parent: Vec<&SpanRecord> = spans.iter().collect();
        by_parent.sort_by_key(|s| (s.parent_id, s.order, s.span_id));
        TreeIndex { by_parent, roots }
    }

    /// The children of `span_id`, in render order.
    fn children(&self, span_id: u64) -> &[&'a SpanRecord] {
        let start = self.by_parent.partition_point(|s| s.parent_id < span_id);
        let len = self.by_parent[start..].partition_point(|s| s.parent_id == span_id);
        &self.by_parent[start..start + len]
    }
}

struct RingState {
    traces: VecDeque<Trace>,
    completed: u64,
    dropped_spans: u64,
}

/// A bounded ring of the last N completed traces — the storage behind
/// the server's `trace` introspection request. Push-side eviction, so
/// a long-lived server holds memory proportional to the capacity, not
/// the request count.
pub struct TraceRing {
    capacity: usize,
    state: Mutex<RingState>,
}

impl TraceRing {
    /// A ring retaining the newest `capacity` traces (minimum 1).
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                traces: VecDeque::new(),
                completed: 0,
                dropped_spans: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, RingState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds a completed trace, evicting the oldest beyond capacity.
    pub fn push(&self, trace: Trace) {
        let mut state = self.lock();
        state.completed += 1;
        state.dropped_spans += trace.dropped_spans;
        if state.traces.len() == self.capacity {
            state.traces.pop_front();
        }
        state.traces.push_back(trace);
    }

    /// The newest `n` traces, oldest first.
    pub fn last(&self, n: usize) -> Vec<Trace> {
        let state = self.lock();
        let skip = state.traces.len().saturating_sub(n);
        state.traces.iter().skip(skip).cloned().collect()
    }

    /// The retained trace with this id, if it has not been evicted.
    pub fn find(&self, trace_id: u64) -> Option<Trace> {
        let state = self.lock();
        state
            .traces
            .iter()
            .rev()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Traces pushed over the ring's lifetime (retained or evicted).
    pub fn completed(&self) -> u64 {
        self.lock().completed
    }

    /// Total spans dropped across every pushed trace — 0 in a healthy
    /// run.
    pub fn dropped_spans(&self) -> u64 {
        self.lock().dropped_spans
    }

    /// Retained trace count.
    pub fn len(&self) -> usize {
        self.lock().traces.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The retained window as JSONL, flight-recorder style: one header
    /// line with the ring's bookkeeping, then one compact line per
    /// trace, oldest first.
    pub fn dump_jsonl(&self) -> String {
        let state = self.lock();
        let header = Json::obj()
            .with("trace_dump", true)
            .with("retained", state.traces.len())
            .with("completed", state.completed)
            .with("dropped_spans", state.dropped_spans);
        let mut out = header.render();
        out.push('\n');
        for trace in &state.traces {
            out.push_str(&trace.to_json().render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_builder(trace_id: u64) -> TraceBuilder {
        TraceBuilder::new(trace_id, Clock::sim())
    }

    #[test]
    fn trace_ids_are_deterministic_and_nonzero() {
        let a = derive_trace_id(7, 1_000_001);
        let b = derive_trace_id(7, 1_000_001);
        let c = derive_trace_id(8, 1_000_001);
        let d = derive_trace_id(7, 1_000_002);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, 0);
        assert_ne!(derive_trace_id_bytes(7, b"\"alpha\""), 0);
    }

    #[test]
    fn id_hex_round_trips_and_is_strict() {
        for id in [0u64, 1, 0xdead_beef, u64::MAX, derive_trace_id(3, 9)] {
            assert_eq!(parse_id_hex(&id_hex(id)), Some(id));
        }
        assert_eq!(parse_id_hex("xyz"), None);
        assert_eq!(parse_id_hex("00000000000000"), None); // too short
        assert_eq!(parse_id_hex("00000000000000AB"), None); // upper case
        assert_eq!(parse_id_hex("000000000000001g"), None);
    }

    #[test]
    fn spans_record_on_drop_and_nest() {
        let builder = sim_builder(42);
        {
            let root = builder.root("serve.request");
            builder.core.clock.advance(0.5);
            {
                let mut child = root.child("explore.round", 0);
                child.tag("points", 15u64);
                builder.core.clock.advance(0.25);
            }
            assert_eq!(builder.open_spans(), 1);
        }
        assert_eq!(builder.open_spans(), 0);
        let trace = builder.finish();
        assert_eq!(trace.span_count(), 2);
        assert_eq!(trace.open_at_finish, 0);
        assert_eq!(trace.dropped_spans, 0);
        assert_eq!(trace.depth(), 2);
        let root = trace.roots()[0];
        assert_eq!(root.name, "serve.request");
        assert_eq!(root.end_s - root.start_s, 0.75);
        assert_eq!(trace.count_named("explore.round"), 1);
    }

    #[test]
    fn span_ids_do_not_depend_on_close_order() {
        // Same structure, children closed in opposite orders.
        let collect = |reverse: bool| {
            let builder = sim_builder(99);
            let root = builder.root("r");
            let a = root.child("p", 0);
            let b = root.child("p", 1);
            if reverse {
                drop(a);
                drop(b);
            } else {
                drop(b);
                drop(a);
            }
            drop(root);
            let trace = builder.finish();
            trace.spans.iter().map(|s| s.span_id).collect::<Vec<_>>()
        };
        assert_eq!(collect(false), collect(true));
    }

    #[test]
    fn deterministic_json_hides_scheduling_facts() {
        let builder = sim_builder(7);
        {
            let root = builder.root("serve.request");
            let mut child = root.child("point", 3);
            child.set_worker(2);
            child.tag("cache", "miss");
        }
        let trace = builder.finish();
        let full = trace.to_json().render();
        let det = trace.deterministic_json().render();
        assert!(full.contains("worker"));
        assert!(full.contains("start_s"));
        assert!(!det.contains("worker"));
        assert!(!det.contains("start_s"));
        assert!(det.contains("\"cache\":\"miss\""));
        assert_eq!(trace.count_tagged("cache", "miss"), 1);
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let builder = TraceBuilder::with_capacity(5, Clock::sim(), 2);
        {
            let root = builder.root("r");
            for i in 0..4 {
                let _ = root.child("p", i);
            }
        }
        let trace = builder.finish();
        assert_eq!(trace.span_count(), 2);
        assert_eq!(trace.dropped_spans, 3); // 2 children + the root
        assert_eq!(trace.open_at_finish, 0);
    }

    #[test]
    fn ring_retains_newest_and_finds_by_id() {
        let ring = TraceRing::new(2);
        for id in 1..=3u64 {
            let builder = sim_builder(id);
            let _ = builder.root("r");
            ring.push(builder.finish());
        }
        assert_eq!(ring.completed(), 3);
        assert_eq!(ring.len(), 2);
        assert!(ring.find(1).is_none(), "oldest must be evicted");
        assert!(ring.find(3).is_some());
        let last = ring.last(8);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].trace_id, 2);
        assert_eq!(last[1].trace_id, 3);
        let dump = ring.dump_jsonl();
        assert_eq!(dump.lines().count(), 3); // header + 2 traces
        for line in dump.lines() {
            assert!(Json::parse(line).is_ok());
        }
    }

    #[test]
    fn tags_past_the_inline_slots_spill_instead_of_dropping() {
        let builder = sim_builder(3);
        {
            let mut root = builder.root("serve.request");
            root.tag("strategy", "sobol");
            root.tag("outcome", "ok");
            root.tag("cost_units", 12u64);
            root.tag("coarse", false);
            root.tag("points", 4usize);
            root.tag("outcome", "shadowed");
        }
        let trace = builder.finish();
        let keys: Vec<&str> = trace.spans[0].tags.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                "strategy",
                "outcome",
                "cost_units",
                "coarse",
                "points",
                "outcome"
            ]
        );
        // The first value wins a lookup; the rendering keeps the key's
        // first position with its last value, as `Json::insert` does.
        assert_eq!(trace.root_tag("outcome"), Some(TagValue::Str("ok")));
        assert_eq!(trace.root_tag("points"), Some(TagValue::Num(4.0)));
        assert_eq!(
            trace
                .deterministic_json()
                .get("tree")
                .unwrap()
                .as_arr()
                .unwrap()[0]
                .get("tags")
                .unwrap()
                .render(),
            r#"{"strategy":"sobol","outcome":"shadowed","cost_units":12,"coarse":false,"points":4}"#
        );
    }

    /// The tree renderer before [`TreeIndex`]: a table rescan per node
    /// and per orphan check. Kept as the byte-for-byte reference.
    fn naive_tree_json(trace: &Trace, scheduling: bool) -> Json {
        fn roots(trace: &Trace) -> Vec<&SpanRecord> {
            let mut roots: Vec<&SpanRecord> = trace
                .spans
                .iter()
                .filter(|s| {
                    s.parent_id == 0 || !trace.spans.iter().any(|p| p.span_id == s.parent_id)
                })
                .collect();
            roots.sort_by_key(|s| (s.order, s.span_id));
            roots
        }
        fn node_json(trace: &Trace, span: &SpanRecord, scheduling: bool) -> Json {
            let mut tags = Json::obj();
            for (key, value) in span.tags.iter() {
                tags.insert(key, value.to_json());
            }
            let mut node = Json::obj()
                .with("span", id_hex(span.span_id))
                .with("name", span.name)
                .with("order", span.order)
                .with("tags", tags);
            if scheduling {
                if let Some(worker) = span.worker {
                    node.insert("worker", worker);
                }
                node.insert("start_s", span.start_s);
                node.insert("end_s", span.end_s);
                node.insert("elapsed_s", span.end_s - span.start_s);
            }
            let mut children: Vec<&SpanRecord> = trace
                .spans
                .iter()
                .filter(|s| s.parent_id == span.span_id)
                .collect();
            children.sort_by_key(|s| (s.order, s.span_id));
            let mut arr = Json::arr();
            for child in children {
                arr.push(node_json(trace, child, scheduling));
            }
            node.insert("children", arr);
            node
        }
        let mut tree = Json::arr();
        for root in roots(trace) {
            tree.push(node_json(trace, root, scheduling));
        }
        Json::obj()
            .with("trace_id", id_hex(trace.trace_id))
            .with("spans", trace.span_count())
            .with("dropped_spans", trace.dropped_spans)
            .with("open_at_finish", trace.open_at_finish)
            .with("tree", tree)
    }

    fn naive_depth(trace: &Trace) -> usize {
        fn node_depth(trace: &Trace, span_id: u64) -> usize {
            1 + trace
                .spans
                .iter()
                .filter(|s| s.parent_id == span_id)
                .map(|s| node_depth(trace, s.span_id))
                .max()
                .unwrap_or(0)
        }
        let doc = naive_tree_json(trace, false);
        doc.get("tree")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|root| {
                let id = parse_id_hex(root.get("span").unwrap().as_str().unwrap()).unwrap();
                node_depth(trace, id)
            })
            .max()
            .unwrap_or(0)
    }

    /// A seeded random span tree. Sibling orders come from a small
    /// range, so siblings tie on `order` (and, sharing a name too, on
    /// span id); a small `capacity` drops parents, which close after
    /// their children, leaving orphans.
    fn random_trace(seed: u64, capacity: usize) -> Trace {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        const NAMES: [&str; 3] = ["point", "eval.size", "eval.power"];
        let builder = TraceBuilder::with_capacity(seed, Clock::sim(), capacity);
        {
            let mut root = builder.root("serve.request");
            root.tag("outcome", "ok");
            for round in 0..1 + next(3) {
                let mut round_span = root.child("explore.round", round);
                round_span.tag("round", round);
                for _ in 0..next(10) {
                    let mut point = round_span.child(NAMES[next(3) as usize], next(4));
                    point.set_worker(next(2) as usize);
                    point.tag("cache", if next(2) == 0 { "hit" } else { "miss" });
                    if next(2) == 0 {
                        let mut leaf = point.child(NAMES[next(3) as usize], next(2));
                        leaf.tag("feasible", next(2) == 0);
                    }
                }
            }
        }
        builder.finish()
    }

    #[test]
    fn indexed_rendering_matches_the_naive_renderer_byte_for_byte() {
        let mut orphans = 0;
        let mut ties = 0;
        for seed in 1..300u64 {
            for capacity in [MAX_SPANS_PER_TRACE, 3, 7, 16] {
                let trace = random_trace(seed, capacity);
                for scheduling in [false, true] {
                    assert_eq!(
                        trace.tree_json(scheduling).render(),
                        naive_tree_json(&trace, scheduling).render(),
                        "seed {seed}, capacity {capacity}"
                    );
                }
                assert_eq!(trace.depth(), naive_depth(&trace), "seed {seed}");
                orphans += trace
                    .spans
                    .iter()
                    .filter(|s| s.parent_id != 0)
                    .filter(|s| !trace.spans.iter().any(|p| p.span_id == s.parent_id))
                    .count();
                ties += trace
                    .spans
                    .iter()
                    .enumerate()
                    .filter(|(i, s)| {
                        trace.spans[i + 1..]
                            .iter()
                            .any(|o| o.parent_id == s.parent_id && o.order == s.order)
                    })
                    .count();
            }
        }
        assert!(orphans > 100, "the cases must exercise orphans ({orphans})");
        assert!(ties > 100, "the cases must exercise order ties ({ties})");
    }

    #[test]
    fn exact_key_ties_keep_table_order_like_the_naive_renderer() {
        // Hand-built table: two children share (parent, order, span id)
        // but differ in tags, and one span's parent is absent.
        let record = |span_id, parent_id, order, tag: &'static str| {
            let mut tags = Tags::default();
            tags.push("k", TagValue::Str(tag));
            SpanRecord {
                span_id,
                parent_id,
                order,
                name: "s",
                tags,
                worker: None,
                start_s: 0.0,
                end_s: 0.0,
            }
        };
        let trace = Trace {
            trace_id: 1,
            spans: vec![
                record(9, 1, 0, "second-root-child"),
                record(1, 0, 0, "root"),
                record(5, 1, 0, "tie-a"),
                record(5, 1, 0, "tie-b"),
                record(7, 42, 0, "orphan"),
                record(3, 5, 1, "grandchild"),
            ],
            dropped_spans: 1,
            open_at_finish: 0,
        };
        for scheduling in [false, true] {
            assert_eq!(
                trace.tree_json(scheduling).render(),
                naive_tree_json(&trace, scheduling).render()
            );
        }
        assert_eq!(trace.depth(), naive_depth(&trace));
    }

    #[test]
    fn concurrent_children_from_workers_all_record() {
        let builder = TraceBuilder::new(11, Clock::wall());
        let root = builder.root("r");
        std::thread::scope(|scope| {
            for i in 0..8u64 {
                let child = root.child("p", i);
                scope.spawn(move || {
                    let mut child = child;
                    child.set_worker(i as usize % 3);
                    child.tag("cache", "miss");
                });
            }
        });
        drop(root);
        let trace = builder.finish();
        assert_eq!(trace.span_count(), 9);
        assert_eq!(trace.open_at_finish, 0);
        assert_eq!(trace.count_tagged("cache", "miss"), 8);
    }
}
