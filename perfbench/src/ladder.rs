//! The traced run: per-layer metrics, timed from outside the program.
//!
//! Three wire passes send the same lines: the workload's own untraced
//! deployment (cache counters), a direct server on the identical lines
//! (untraced rate; the router's own hop is the difference), and a
//! direct server whose handler is [`TracingHandler`] (handler spans
//! under each client round-trip span, so the reactor's share is the
//! difference). A fixed prefix of lines is then replayed in-process
//! through the public call of each layer. Spans stay in memory and are
//! written to `perfbench/traces/` at the end; end-to-end metrics never
//! come from this run.

use crate::e2e::{set_up, CacheCounts, Ready};
use crate::gen::LineStream;
use crate::report::{quote, Metric};
use crate::wire::{drive, engine, reactor_config, Stop};
use crate::{since_epoch_ns, Workload};
use drone_dse::eval::{EvalBatch, OBJECTIVE_SENSES};
use drone_dse::power::PowerModel;
use drone_explorer::{Explorer, ParetoFrontier, QueryLimits};
use drone_serve::{
    error_reply, handle_batch, handle_batch_traced, ok_reply, parse_request, BatchPolicy,
    BatchTracing, ErrorKind, LineFramer, LineHandler, ReactorServer, ReplySlot, RequestError,
};
use drone_telemetry::{Clock, Json, Registry, TraceRing};
use std::fmt::Write as _;
use std::sync::atomic::AtomicUsize;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Lines per client replayed through the in-process ladder. Fixed, so
/// the exact counts it reports repeat for a seed.
fn ladder_lines(workload: Workload) -> usize {
    match workload {
        Workload::SweepCold => 40,
        Workload::InteractiveWarm | Workload::RoutedWarm => 1000,
    }
}

/// One recorded span. `trace` is the request id, so the spans of one
/// request share it; `parent` is 0 for a root.
#[derive(Debug, Clone, Copy)]
struct SpanRec {
    trace: u64,
    span: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// Spans kept in memory until the run ends; ids are sequential.
#[derive(Default)]
pub struct Spans(Vec<SpanRec>);

impl Spans {
    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let span = self.0.len() as u64 + 1;
        self.0.push(SpanRec {
            trace,
            span,
            parent,
            name,
            start_ns,
            end_ns,
        });
        span
    }

    fn write(&self, path: &str, header: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.0.len() * 120 + header.len() + 1);
        out.push_str(header);
        out.push('\n');
        for s in &self.0 {
            let _ = writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.trace,
                s.span,
                s.parent,
                quote(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// The request id a wire line leads with (`{"id":N,...`).
fn line_id(line: &str) -> u64 {
    line.strip_prefix("{\"id\":")
        .map(|rest| {
            rest.bytes()
                .take_while(u8::is_ascii_digit)
                .fold(0u64, |n, d| n * 10 + u64::from(d - b'0'))
        })
        .unwrap_or(0)
}

/// A [`LineHandler`] that answers like the engine service (through
/// `handle_batch_traced`) and records one handler span per line.
pub struct TracingHandler {
    engine: Explorer,
    limits: QueryLimits,
    ring: TraceRing,
    clock: Clock,
    spans: Mutex<Vec<(u64, Instant, Instant)>>,
}

impl TracingHandler {
    fn new(registry: &Registry) -> TracingHandler {
        TracingHandler {
            engine: engine(registry),
            limits: QueryLimits::default(),
            ring: TraceRing::new(64),
            clock: Clock::wall(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn take_spans(&self) -> Vec<(u64, Instant, Instant)> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

impl LineHandler for TracingHandler {
    fn handle_lines(&self, lines: &[String], out: &mut String) {
        let start = Instant::now();
        let batch: Vec<&str> = lines.iter().map(String::as_str).collect();
        let tracing = BatchTracing {
            ring: &self.ring,
            clock: self.clock.clone(),
            seed: 0,
        };
        let (slots, _) = handle_batch_traced(
            &self.engine,
            &batch,
            &self.limits,
            BatchPolicy::default(),
            &tracing,
        );
        for slot in slots {
            match slot {
                ReplySlot::Line(line) => out.push_str(&line),
                ReplySlot::Admin { id, .. } => out.push_str(
                    &error_reply(&id, &refusal(ErrorKind::BadRequest, "no introspection")).render(),
                ),
            }
            out.push('\n');
        }
        let end = Instant::now();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.extend(lines.iter().map(|l| (line_id(l), start, end)));
    }

    fn refusal(&self, kind: ErrorKind, message: &str) -> String {
        error_reply(&Json::Null, &refusal(kind, message)).render()
    }

    fn overloaded(&self) -> String {
        self.refusal(ErrorKind::Overloaded, "queue full; retry later")
    }
}

fn refusal(kind: ErrorKind, message: &str) -> RequestError {
    RequestError {
        kind,
        message: message.into(),
    }
}

/// What the traced run measured.
pub struct Traced {
    pub correct: bool,
    pub requests: usize,
    pub failed: usize,
    pub ladder_lines: usize,
    pub spans_file: String,
    pub metrics: Vec<Metric>,
}

/// Runs the traced passes and the ladder for `seconds` of wire time.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let share = seconds / 3.0;
    let mut spans = Spans::default();

    // Pass 1: the workload's own deployment, untraced.
    let Ready {
        deployment,
        registry,
        mut streams,
        ..
    } = set_up(workload, seed)?;
    let before = CacheCounts::read(&registry);
    let errors_before = registry.counter("router.errors").get();
    let stops = vec![
        Stop::For {
            seconds: share,
            min: 1
        };
        streams.len()
    ];
    let own = drive(deployment.addr(), &mut streams, &stops);
    let cache = CacheCounts::read(&registry).since(before);
    let router_errors = registry.counter("router.errors").get() - errors_before;
    deployment.drain();
    let counts = own.counts();
    let count_stops: Vec<Stop> = counts.iter().map(|&n| Stop::Count(n)).collect();

    // Pass 2: a direct server on the identical lines. On routed_warm
    // the difference to pass 1 is the router's own hop; on a direct
    // workload both passes are direct, so it is that difference's noise.
    let direct_workload = if workload.routed() {
        Workload::InteractiveWarm
    } else {
        workload
    };
    let Ready {
        deployment,
        mut streams,
        ..
    } = set_up(direct_workload, seed)?;
    let direct = drive(deployment.addr(), &mut streams, &count_stops);
    deployment.drain();

    // Pass 3: a direct server whose handler records spans.
    let registry = Registry::with_wall_clock();
    let handler = Arc::new(TracingHandler::new(&registry));
    let server = ReactorServer::start_with_handler(
        Arc::clone(&handler) as Arc<dyn LineHandler>,
        reactor_config(),
        Arc::new(AtomicUsize::new(0)),
    )
    .map_err(|e| format!("traced server start: {e}"))?;
    let mut streams: Vec<LineStream> = (0..workload.clients())
        .map(|c| LineStream::new(workload, seed, c as u64))
        .collect();
    let warm_stops = vec![Stop::Count(workload.warmup_lines()); streams.len()];
    let warm = drive(server.addr(), &mut streams, &warm_stops);
    let wakeups_before = server.wakeups();
    let throttles_before = server.throttles();
    handler.take_spans();
    let traced = drive(server.addr(), &mut streams, &count_stops);
    let wakeups = server.wakeups() - wakeups_before;
    let throttles = server.throttles() - throttles_before;
    server.drain();
    let handler_spans = handler.take_spans();

    // The reactor's share: each round trip minus its handler span.
    let mut handler_ns = std::collections::HashMap::with_capacity(handler_spans.len());
    for &(id, start, end) in &handler_spans {
        handler_ns.insert(id, (start, end));
    }
    let mut reactor_ns = 0u64;
    let mut paired = 0usize;
    for (client, log) in traced.logs.iter().enumerate() {
        let mut ids = LineStream::new(workload, seed, client as u64);
        ids.skip(workload.warmup_lines());
        for exchange in &log.exchanges {
            let id = line_id(&ids.next_line());
            let root = spans.push(
                id,
                0,
                "client.round_trip",
                u64::from(exchange.start_us) * 1000,
                exchange.end_ns(),
            );
            if let Some(&(start, end)) = handler_ns.get(&id) {
                spans.push(
                    id,
                    root,
                    "serve.handler.handle_batch_traced",
                    since_epoch_ns(start),
                    since_epoch_ns(end),
                );
                let inner = (end - start).as_nanos() as u64;
                reactor_ns += u64::from(exchange.rtt_ns).saturating_sub(inner);
                paired += 1;
            }
        }
    }

    // Correctness: the traced server must give the untraced direct
    // server's bytes; the router may differ only in the counts.
    let mut failed = own.failures() + direct.failures() + traced.failures() + warm.failures();
    let reference = direct.digests();
    for (a, b) in reference.iter().zip(traced.digests()) {
        failed += a.iter().zip(&b).filter(|(x, y)| x != y).count();
    }
    for (a, b) in reference.iter().zip(own.digests()) {
        failed += a
            .iter()
            .zip(&b)
            .filter(|(x, y)| x.body != y.body || (!workload.routed() && x != y))
            .count();
    }
    failed += paired.abs_diff(traced.requests());

    let ladder = Ladder::run(workload, seed, &mut spans);

    let requests = own.requests() + direct.requests() + traced.requests();
    let per = |x: f64, n: usize| x / n.max(1) as f64;
    let router_self_us = own.mean_rtt_us() - direct.mean_rtt_us();
    let (untraced_rps, traced_rps) = (direct.rate(), traced.rate());
    let mut metrics = ladder.metrics();
    metrics.extend([
        Metric::new("explorer.cache.hit_ratio", "ratio", cache.hit_ratio()),
        Metric::new(
            "explorer.cache.misses_per_req",
            "count",
            per(cache.misses as f64, own.requests()),
        ),
        Metric::new(
            "explorer.cache.evictions_per_req",
            "count",
            per(cache.evictions as f64, own.requests()),
        ),
        Metric::new(
            "serve.reactor.self_us_per_req",
            "us",
            per(reactor_ns as f64 / 1e3, paired),
        ),
        Metric::new(
            "serve.reactor.wakeups_per_req",
            "count",
            per(wakeups as f64, traced.requests()),
        ),
        Metric::new("serve.reactor.throttles", "count", throttles as f64),
        Metric::new("serve.router.self_us_per_req", "us", router_self_us),
        Metric::new("serve.router.errors", "count", router_errors as f64),
        Metric::new("trace.untraced_rps", "1/s", untraced_rps),
        Metric::new("trace.traced_rps", "1/s", traced_rps),
        Metric::new(
            "trace.overhead_frac",
            "ratio",
            1.0 - traced_rps / untraced_rps,
        ),
    ]);
    let spans_file = format!("perfbench/traces/{}-seed{seed}.jsonl", workload.name());
    let header = format!(
        "{{\"workload\":{},\"seed\":{seed},\"fingerprint\":{}}}",
        quote(workload.name()),
        crate::report::fingerprint(seed)
    );
    spans
        .write(&spans_file, &header)
        .map_err(|e| format!("writing {spans_file}: {e}"))?;
    Ok(Traced {
        correct: failed == 0,
        requests,
        failed,
        ladder_lines: ladder.lines,
        spans_file,
        metrics,
    })
}

/// Totals from the in-process replay, ns unless named otherwise.
#[derive(Debug, Default)]
pub struct Ladder {
    pub lines: usize,
    pub framer_ns: u64,
    pub framer_bytes: u64,
    pub parse_ns: u64,
    pub kernel_ns: u64,
    pub kernel_points: u64,
    pub sizing_iterations: u64,
    pub pareto_ns: u64,
    pub frontier_members: u64,
    pub engine_ns: u64,
    pub engine_misses: u64,
    pub evaluated: u64,
    pub render_ns: u64,
    pub reply_bytes: u64,
    pub handle_ns: u64,
    pub traced_ns: u64,
}

/// A fresh engine that has answered every client's warm-up lines.
fn warmed_engine(workload: Workload, seed: u64, registry: &Registry) -> Explorer {
    let engine = engine(registry);
    let limits = QueryLimits::default();
    for client in 0..workload.clients() {
        let mut stream = LineStream::new(workload, seed, client as u64);
        for _ in 0..workload.warmup_lines() {
            let line = stream.next_line();
            let _ = handle_batch(&engine, &[line.trim_end()], &limits);
        }
    }
    engine
}

impl Ladder {
    /// Replays the first [`ladder_lines`] timed lines of every client
    /// through each layer's public call, recording one span per call.
    pub fn run(workload: Workload, seed: u64, spans: &mut Spans) -> Ladder {
        let limits = QueryLimits::default();
        let mut lines: Vec<String> = Vec::new();
        for client in 0..workload.clients() {
            let mut stream = LineStream::new(workload, seed, client as u64);
            stream.skip(workload.warmup_lines());
            lines.extend((0..ladder_lines(workload)).map(|_| stream.next_line()));
        }
        let mut ladder = Ladder {
            lines: lines.len(),
            ..Ladder::default()
        };

        // serve.framer: the request bytes in reactor-sized reads,
        // repeated until the timing is long enough to resolve.
        let wire: Vec<u8> = lines.concat().into_bytes();
        let mut framer = LineFramer::new(64 * 1024);
        let mut events = Vec::new();
        let started = Instant::now();
        while ladder.framer_ns < 20_000_000 {
            let t = Instant::now();
            for chunk in wire.chunks(4096) {
                framer.push(chunk, &mut events);
                events.clear();
            }
            ladder.framer_ns += t.elapsed().as_nanos() as u64;
            ladder.framer_bytes += wire.len() as u64;
        }
        spans.push(
            0,
            0,
            "serve.framer.push",
            since_epoch_ns(started),
            since_epoch_ns(Instant::now()),
        );

        let model = PowerModel::paper_defaults();
        let registry = Registry::with_wall_clock();
        let eng = warmed_engine(workload, seed, &registry);
        let handle_engine = warmed_engine(workload, seed, &Registry::with_wall_clock());
        let traced_engine = warmed_engine(workload, seed, &Registry::with_wall_clock());
        let ring = TraceRing::new(64);
        let tracing = BatchTracing {
            ring: &ring,
            clock: Clock::wall(),
            seed: 0,
        };
        let misses_before = registry.counter("explorer.cache.misses").get();
        for line in &lines {
            let line = line.trim_end();
            let id = line_id(line);
            let Ok(request) = timed(
                spans,
                id,
                "serve.protocol.parse_request",
                &mut ladder.parse_ns,
                || parse_request(line, &limits),
            ) else {
                continue;
            };
            let Some(query) = request.query() else {
                continue;
            };

            // core.eval: the batched kernel over the round-0 grid.
            let grid = query.ranges.grid();
            let (results, profile) = timed(
                spans,
                id,
                "core.eval.run_profiled",
                &mut ladder.kernel_ns,
                || EvalBatch::new(&grid).run_profiled(&model),
            );
            ladder.kernel_points += profile.points as u64;
            ladder.sizing_iterations += profile.sizing_iterations;

            // explorer.pareto: the round-0 feasible pool, inserted in
            // grid order as the engine does.
            let feasible: Vec<[f64; 3]> = results
                .iter()
                .filter_map(|r| r.as_ref().ok())
                .filter(|e| query.constraints.admits(e))
                .map(|e| e.objectives())
                .collect();
            let members = timed(
                spans,
                id,
                "explorer.pareto.insert",
                &mut ladder.pareto_ns,
                || {
                    let mut frontier = ParetoFrontier::new(&OBJECTIVE_SENSES);
                    for (i, objectives) in feasible.iter().enumerate() {
                        frontier.insert(i, objectives);
                    }
                    frontier.len()
                },
            );
            ladder.frontier_members += members as u64;

            let Ok(answer) = timed(
                spans,
                id,
                "explorer.engine.try_run",
                &mut ladder.engine_ns,
                || eng.try_run(query),
            ) else {
                continue;
            };
            ladder.evaluated += answer.evaluated as u64;
            let reply = timed(
                spans,
                id,
                "serve.protocol.render",
                &mut ladder.render_ns,
                || ok_reply(&request.id, &answer).render(),
            );
            ladder.reply_bytes += reply.len() as u64;

            let handled = timed(
                spans,
                id,
                "serve.protocol.handle_batch",
                &mut ladder.handle_ns,
                || handle_batch(&handle_engine, &[line], &limits),
            );
            std::hint::black_box(handled);
            let traced = timed(
                spans,
                id,
                "serve.protocol.handle_batch_traced",
                &mut ladder.traced_ns,
                || {
                    handle_batch_traced(
                        &traced_engine,
                        &[line],
                        &limits,
                        BatchPolicy::default(),
                        &tracing,
                    )
                },
            );
            std::hint::black_box(traced);
        }
        ladder.engine_misses = registry.counter("explorer.cache.misses").get() - misses_before;
        ladder
    }

    /// The ladder's per-layer metrics.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.lines.max(1) as f64;
        let us = |ns: u64| ns as f64 / 1e3 / n;
        let ns_per_point = self.kernel_ns as f64 / self.kernel_points.max(1) as f64;
        // Kernel time the engine spent: its fresh points at the
        // replayed per-point cost.
        let engine_kernel_us = ns_per_point * self.engine_misses as f64 / 1e3 / n;
        let handle_us = us(self.handle_ns);
        vec![
            Metric::new("core.eval.ns_per_point", "ns", ns_per_point),
            Metric::new(
                "core.eval.sizing_iters_per_point",
                "count",
                self.sizing_iterations as f64 / self.kernel_points.max(1) as f64,
            ),
            Metric::new(
                "core.eval.share_of_handle",
                "ratio",
                engine_kernel_us / handle_us.max(f64::MIN_POSITIVE),
            ),
            Metric::new("explorer.engine.us_per_req", "us", us(self.engine_ns)),
            Metric::new(
                "explorer.engine.self_us_per_req",
                "us",
                us(self.engine_ns) - engine_kernel_us - us(self.pareto_ns),
            ),
            Metric::new(
                "explorer.engine.evaluated_per_req",
                "count",
                self.evaluated as f64 / n,
            ),
            Metric::new("explorer.pareto.us_per_req", "us", us(self.pareto_ns)),
            Metric::new(
                "explorer.pareto.frontier_size",
                "count",
                self.frontier_members as f64 / n,
            ),
            Metric::new(
                "serve.framer.ns_per_byte",
                "ns",
                self.framer_ns as f64 / self.framer_bytes.max(1) as f64,
            ),
            Metric::new("serve.protocol.parse_us_per_req", "us", us(self.parse_ns)),
            Metric::new("serve.protocol.render_us_per_req", "us", us(self.render_ns)),
            Metric::new(
                "serve.protocol.reply_bytes",
                "bytes",
                self.reply_bytes as f64 / n,
            ),
            Metric::new("serve.protocol.handle_us_per_req", "us", handle_us),
            Metric::new(
                "serve.protocol.tracing_us_per_req",
                "us",
                us(self.traced_ns) - handle_us,
            ),
        ]
    }
}

/// Runs `f` as a root span of `trace`, adding its duration to `total`.
fn timed<R>(
    spans: &mut Spans,
    trace: u64,
    name: &'static str,
    total: &mut u64,
    f: impl FnOnce() -> R,
) -> R {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    let end = Instant::now();
    *total += (end - start).as_nanos() as u64;
    spans.push(trace, 0, name, since_epoch_ns(start), since_epoch_ns(end));
    out
}

#[cfg(test)]
mod tests {
    use super::line_id;

    #[test]
    fn line_ids_come_from_the_leading_field() {
        assert_eq!(line_id(r#"{"id":1000123,"query":{}}"#), 1_000_123);
        assert_eq!(line_id("garbage"), 0);
    }
}
