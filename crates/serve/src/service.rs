//! The engine-backed request service behind every [`ReactorServer`]:
//! complete request lines in, one newline-terminated reply per line
//! out.
//!
//! [`EngineService`] owns everything above the socket — the engine,
//! validation limits, the cost-deadline policy, causal tracing, the
//! introspection plane and the `serve.*` metric family — so the
//! reactor owns only sockets, framing and deadlines. It is the
//! [`LineHandler`] the reactor drives for a plain engine front-end;
//! the scatter/gather router front is the other one.
//!
//! [`ReactorServer`]: crate::ReactorServer

use crate::protocol::{
    self, AdminRequest, BatchOutcome, BatchPolicy, BatchTracing, ErrorKind, ReplySlot, RequestError,
};
use crate::reactor::{LineHandler, ReactorConfig};
use drone_explorer::{Explorer, QueryLimits};
use drone_telemetry::{Clock, Counter, Json, Registry, SharedHistogram, TraceRing};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The `serve.*` metric family. Every engine front-end in a process
/// registers against the same names, so the registry reports
/// aggregates.
struct Metrics {
    requests: Arc<Counter>,
    batches: Arc<Counter>,
    sheds: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    query_errors: Arc<Counter>,
    panics_caught: Arc<Counter>,
    deadline_sheds: Arc<Counter>,
    idle_timeouts: Arc<Counter>,
    admin_requests: Arc<Counter>,
    optimize_requests: Arc<Counter>,
    batch_size: Arc<SharedHistogram>,
    cost_units: Arc<SharedHistogram>,
    latency_s: Arc<SharedHistogram>,
}

impl Metrics {
    fn new(registry: &Registry) -> Metrics {
        Metrics {
            requests: registry.counter("serve.requests"),
            batches: registry.counter("serve.batches"),
            sheds: registry.counter("serve.sheds"),
            protocol_errors: registry.counter("serve.errors.protocol"),
            query_errors: registry.counter("serve.errors.query"),
            panics_caught: registry.counter("serve.panics_caught"),
            deadline_sheds: registry.counter("serve.deadline_sheds"),
            idle_timeouts: registry.counter("serve.idle_timeouts"),
            admin_requests: registry.counter("serve.admin_requests"),
            optimize_requests: registry.counter("serve.optimize_requests"),
            batch_size: registry.histogram("serve.batch.size"),
            cost_units: registry.histogram("serve.request.cost_units"),
            latency_s: registry.histogram("serve.request.latency_s"),
        }
    }

    /// Accounts one completed batch. Runs *before* introspection slots
    /// resolve, so a `stats` reply observes the batch it rode in on.
    fn account(&self, batch_len: usize, outcome: &BatchOutcome, elapsed: f64) {
        self.batches.inc();
        self.requests.add(batch_len as u64);
        self.protocol_errors.add(outcome.protocol_errors as u64);
        self.query_errors.add(outcome.query_errors as u64);
        self.panics_caught.add(outcome.internal_errors as u64);
        self.deadline_sheds.add(outcome.deadline_sheds as u64);
        self.admin_requests.add(outcome.admin_requests as u64);
        self.optimize_requests.add(outcome.optimize_requests as u64);
        self.batch_size.record(batch_len as f64);
        self.cost_units.record(outcome.cost_units as f64);
        if batch_len > 0 {
            self.latency_s.record(elapsed / batch_len as f64);
        }
    }
}

/// Everything needed to answer a batch of complete request lines:
/// engine, limits, tracing, metric accounting, and the reactor's
/// open-connection count for `stats` replies.
pub(crate) struct EngineService {
    engine: Explorer,
    limits: QueryLimits,
    max_batch: usize,
    policy: BatchPolicy,
    trace_seed: u64,
    clock: Clock,
    metrics: Metrics,
    registry: Registry,
    traces: TraceRing,
    /// Connections registered across the reactors. A `stats` reply
    /// reports it as `queue_depth`: the reactor has no admission
    /// queue, so its backlog *is* its open connections.
    live: Arc<AtomicUsize>,
}

impl EngineService {
    /// An engine service configured from the reactor's knobs, counting
    /// into `registry`. `live` is the gauge the reactors maintain.
    pub(crate) fn new(
        engine: Explorer,
        config: &ReactorConfig,
        registry: &Registry,
        live: Arc<AtomicUsize>,
    ) -> EngineService {
        EngineService {
            engine,
            limits: config.limits,
            max_batch: config.max_batch,
            policy: BatchPolicy {
                cost_deadline: config.cost_deadline,
            },
            trace_seed: config.trace_seed,
            clock: registry.clock().clone(),
            metrics: Metrics::new(registry),
            registry: registry.clone(),
            traces: TraceRing::new(config.trace_capacity),
            live,
        }
    }

    /// Answers `lines` in input order, `max_batch` at a time, appending
    /// one newline-terminated reply per line to `out`.
    fn run_lines(&self, lines: &[String], out: &mut String) {
        for chunk in lines.chunks(self.max_batch.max(1)) {
            let batch: Vec<&str> = chunk.iter().map(String::as_str).collect();
            let started = self.clock.now();
            // handle_batch_traced already converts evaluation panics
            // into per-request internal_error replies; this second
            // layer covers the protocol code itself, answering the
            // whole batch with typed errors rather than dropping the
            // connection.
            let (slots, outcome) = catch_unwind(AssertUnwindSafe(|| {
                let tracing = BatchTracing {
                    ring: &self.traces,
                    clock: self.clock.clone(),
                    seed: self.trace_seed,
                };
                protocol::handle_batch_traced(
                    &self.engine,
                    &batch,
                    &self.limits,
                    self.policy,
                    &tracing,
                )
            }))
            .unwrap_or_else(|_| {
                let line = uncorrelated_error(ErrorKind::Internal, "batch processing panicked");
                let slots = batch
                    .iter()
                    .map(|_| ReplySlot::Line(line.clone()))
                    .collect();
                let outcome = BatchOutcome {
                    internal_errors: batch.len(),
                    ..BatchOutcome::default()
                };
                (slots, outcome)
            });
            let elapsed = self.clock.now() - started;
            self.metrics.account(batch.len(), &outcome, elapsed);
            for slot in &slots {
                match slot {
                    ReplySlot::Line(line) => out.push_str(line),
                    ReplySlot::Admin { id, request } => {
                        out.push_str(&self.admin_reply(id, request).render());
                    }
                }
                out.push('\n');
            }
        }
    }

    /// Resolves one introspection slot against live server state.
    fn admin_reply(&self, id: &Json, request: &AdminRequest) -> Json {
        let reply = Json::obj().with("id", id.clone()).with("ok", true);
        match request {
            AdminRequest::Stats => {
                let traces = Json::obj()
                    .with("completed", self.traces.completed() as f64)
                    .with("retained", self.traces.len() as f64)
                    .with("dropped_spans", self.traces.dropped_spans() as f64);
                let stats = Json::obj()
                    .with("registry", self.registry.snapshot())
                    .with("queue_depth", self.live.load(Ordering::SeqCst) as f64)
                    .with("traces", traces);
                reply.with("stats", stats)
            }
            AdminRequest::Trace(fetch) => {
                let traces = match fetch.trace_id {
                    Some(trace_id) => self.traces.find(trace_id).into_iter().collect(),
                    None => self.traces.last(fetch.last),
                };
                let mut arr = Json::arr();
                for trace in &traces {
                    arr.push(trace.to_json());
                }
                reply.with("traces", arr)
            }
        }
    }

    /// One refusal line for a connection-level fault (oversized line,
    /// progress deadline), charged to the matching counter.
    fn refusal_line(&self, kind: ErrorKind, message: &str) -> String {
        let counter = match kind {
            ErrorKind::DeadlineExceeded => &self.metrics.idle_timeouts,
            _ => &self.metrics.protocol_errors,
        };
        counter.inc();
        uncorrelated_error(kind, message)
    }

    /// One structured overload line for a connection shed at the door.
    fn overload_line(&self) -> String {
        self.metrics.sheds.inc();
        uncorrelated_error(ErrorKind::Overloaded, "queue full; retry later")
    }
}

impl LineHandler for EngineService {
    fn handle_lines(&self, lines: &[String], out: &mut String) {
        self.run_lines(lines, out);
    }

    fn refusal(&self, kind: ErrorKind, message: &str) -> String {
        self.refusal_line(kind, message)
    }

    fn overloaded(&self) -> String {
        self.overload_line()
    }
}

/// An error reply with a `null` id: the fault belongs to no request
/// the client could correlate.
fn uncorrelated_error(kind: ErrorKind, message: &str) -> String {
    let error = RequestError {
        kind,
        message: message.into(),
    };
    protocol::error_reply(&Json::Null, &error).render()
}
