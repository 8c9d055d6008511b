//! Sharded scatter/gather serving: the memo cache's FNV shard scheme
//! lifted to the request level.
//!
//! A [`Router`] owns N shard-local engines, each answering only its
//! quantized-coordinate partition of any query's grid (see
//! [`drone_explorer::shard_of`]), behind one front reactor speaking the
//! ordinary wire protocol. A client query is **scattered** — one
//! sub-query per shard, `shard: {index, count}` set, refinement
//! stripped — as direct [`Explorer::try_run`] calls on the front's
//! reactor thread, and the per-shard answers are **gather-merged** into
//! a single reply. Each engine fans its own uncached points out over
//! its executor, so the shards run one after another.
//!
//! Every sub-query passes the checks an engine front-end applies to a
//! wire request, in the same order: [`Query::validate`] against the
//! front's limits (`invalid_query`), then the cost deadline
//! (`deadline_exceeded`); an evaluation panic becomes `internal_error`.
//! The first failing shard, in shard order, fails the whole request.
//!
//! The merge is deliberately order-pinned so the reply is
//! byte-deterministic in the shard count:
//!
//! * `evaluated`/`feasible`/`infeasible` are *sums* over shards, and
//!   the shard grids partition the full grid exactly, so the sums are
//!   shard-count invariant;
//! * frontier members are taken in reply order shard by shard,
//!   deduplicated by quantized design coordinates and re-reduced with
//!   [`drone_explorer::extract_frontier`] — the union of per-shard
//!   frontiers always contains the global frontier, and dominance is
//!   transitive, so the reduced set equals the single-shard frontier
//!   whatever N was;
//! * the reply is encoded by [`protocol::encode_ok_reply`], which sorts
//!   members by (flight time desc, weight asc) exactly as a single
//!   engine's reply does;
//! * the incumbent for refinement re-centring is the best of the shard
//!   bests, ties broken by canonical grid order (cells position in the
//!   query's cell list, then each axis ascending). An exact f64
//!   objective tie between *different* designs is the one case where
//!   the router's incumbent may differ from a single engine's
//!   first-seen tie-break; coordinates, not floats, decide here so the
//!   choice is shard-count independent.
//!
//! Refinement rounds are driven *by the router*: each round scatters
//! the current ranges, gathers, picks the incumbent, and re-centres
//! via `QueryRanges::refined_around` — the same recurrence the engine
//! runs internally. Because every round is a fresh sub-query, the
//! engine's per-query `seen` dedup cannot span rounds, so a refined
//! query's `feasible`/`infeasible` count cross-round revisits that a
//! single engine counts once; `evaluated` and every other field agree,
//! and all of them are exactly shard-count invariant, which is the
//! property the benchmark artifact pins.

use crate::protocol::{self, BatchPolicy, ErrorKind, Request, RequestBody, RequestError};
use crate::reactor::{DrainStats, LineHandler, ReactorConfig, ReactorServer};
use drone_dse::eval::{DesignEval, OBJECTIVE_SENSES};
use drone_explorer::{
    extract_frontier, CacheKey, Explorer, Query, QueryAnswer, QueryLimits, ShardSpec,
};
use drone_math::Sense;
use drone_telemetry::{Counter, Json, Registry};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// Tuning knobs for [`Router::start`].
#[derive(Debug, Clone, Copy)]
pub struct RouterConfig {
    /// Engine shards behind the front (≥ 1).
    pub shards: usize,
    /// Reactor settings for the front. Its `limits` and
    /// `cost_deadline` also apply to every scattered sub-query.
    pub reactor: ReactorConfig,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            shards: 2,
            reactor: ReactorConfig::default(),
        }
    }
}

/// A running scatter/gather deployment: N shard-local engines behind
/// one routing front.
pub struct Router {
    front: ReactorServer,
}

impl Router {
    /// Builds `config.shards` engines (one fresh engine from
    /// `make_engine` each, so caches stay shard-local like the design
    /// intends) and starts the routing front, which counts its traffic
    /// into the `router.*` family of `registry`.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind, or on targets without the
    /// epoll shims (see [`crate::sys`]).
    pub fn start(
        make_engine: impl FnMut() -> Explorer,
        config: RouterConfig,
        registry: &Registry,
    ) -> std::io::Result<Router> {
        let service = RouterService {
            shards: std::iter::repeat_with(make_engine)
                .take(config.shards.max(1))
                .collect(),
            limits: config.reactor.limits,
            policy: BatchPolicy {
                cost_deadline: config.reactor.cost_deadline,
            },
            requests: registry.counter("router.requests"),
            errors: registry.counter("router.errors"),
            protocol_errors: registry.counter("router.errors.protocol"),
            idle_timeouts: registry.counter("router.idle_timeouts"),
            sheds: registry.counter("router.sheds"),
        };
        let front = ReactorServer::start_with_handler(
            Arc::new(service),
            config.reactor,
            Arc::new(AtomicUsize::new(0)),
        )?;
        Ok(Router { front })
    }

    /// The front-door address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// Stops admitting, closes every connection and joins the front's
    /// acceptor and reactor threads.
    pub fn drain(self) -> DrainStats {
        self.front.drain()
    }
}

/// The front-door [`LineHandler`]: parse, scatter, gather, merge.
struct RouterService {
    shards: Vec<Explorer>,
    limits: QueryLimits,
    policy: BatchPolicy,
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    idle_timeouts: Arc<Counter>,
    sheds: Arc<Counter>,
}

impl LineHandler for RouterService {
    fn handle_lines(&self, lines: &[String], out: &mut String) {
        for line in lines {
            self.requests.inc();
            let start = out.len();
            // Engine work runs on this reactor thread. `try_run`
            // already turns evaluation panics into typed replies; this
            // layer covers the router's own code, so a bug answers one
            // line instead of killing the reactor and its connections.
            let ok = catch_unwind(AssertUnwindSafe(|| self.answer_line(line, out))).unwrap_or_else(
                |_| {
                    out.truncate(start);
                    let error = RequestError {
                        kind: ErrorKind::Internal,
                        message: "request processing panicked".into(),
                    };
                    protocol::error_reply(&Json::Null, &error).render_into(out);
                    false
                },
            );
            if !ok {
                self.errors.inc();
            }
            out.push('\n');
        }
    }

    fn refusal(&self, kind: ErrorKind, message: &str) -> String {
        match kind {
            ErrorKind::DeadlineExceeded => self.idle_timeouts.inc(),
            _ => self.protocol_errors.inc(),
        }
        protocol::error_reply(
            &Json::Null,
            &RequestError {
                kind,
                message: message.into(),
            },
        )
        .render()
    }

    fn overloaded(&self) -> String {
        self.sheds.inc();
        protocol::error_reply(
            &Json::Null,
            &RequestError {
                kind: ErrorKind::Overloaded,
                message: "queue full; retry later".into(),
            },
        )
        .render()
    }
}

impl RouterService {
    /// Appends the reply to one request line (no newline) and reports
    /// whether it was `ok`.
    fn answer_line(&self, line: &str, out: &mut String) -> bool {
        let (id, result) = match protocol::parse_request_with_id(line, &self.limits) {
            // The router partitions every query itself, so it cannot
            // answer a client-chosen slice.
            Ok(Request {
                id,
                body: RequestBody::Query(query),
                ..
            }) if query.shard.is_some() => (
                id,
                Err(RequestError {
                    kind: ErrorKind::InvalidQuery,
                    message: "the router assigns shards; a routed query may not carry 'shard'"
                        .into(),
                }),
            ),
            Ok(Request {
                id,
                body: RequestBody::Query(query),
                ..
            }) => (id, self.scatter_gather(&query)),
            Ok(Request { id, .. }) => (
                id,
                Err(RequestError {
                    kind: ErrorKind::BadRequest,
                    message: "router serves query requests only".into(),
                }),
            ),
            Err((id, error)) => (id, Err(error)),
        };
        match result {
            Ok(answer) => {
                protocol::encode_ok_reply(out, &id, &answer);
                true
            }
            Err(error) => {
                protocol::error_reply(&id, &error).render_into(out);
                false
            }
        }
    }

    /// One shard's answer to one round's sub-query, through the same
    /// checks an engine front-end runs on a wire request.
    fn run_shard(&self, engine: &Explorer, sub: &Query) -> Result<QueryAnswer, RequestError> {
        sub.validate(&self.limits).map_err(|e| RequestError {
            kind: ErrorKind::InvalidQuery,
            message: e.to_string(),
        })?;
        self.policy.admit(sub.estimated_cost_units())?;
        engine.try_run(sub).map_err(|panic| RequestError {
            kind: ErrorKind::Internal,
            message: panic.to_string(),
        })
    }

    /// Drives one client query through every round of scatter/gather
    /// and returns the merged answer.
    fn scatter_gather(&self, query: &Query) -> Result<QueryAnswer, RequestError> {
        let count = self.shards.len() as u32;
        // The same region goes to every shard, each restricted to its
        // partition, refinement stripped (the router drives it).
        let mut sub = Query {
            name: query.name.clone(),
            ranges: query.ranges.clone(),
            constraints: query.constraints,
            objective: query.objective,
            refine_rounds: 0,
            refine_steps: 0,
            shard: None,
        };
        let mut evaluated = 0usize;
        let mut feasible = 0usize;
        let mut infeasible = 0usize;
        let mut rounds = 0usize;
        let mut seen: HashSet<CacheKey> = HashSet::new();
        let mut members: Vec<DesignEval> = Vec::new();
        let mut best: Option<DesignEval> = None;
        for round in 0..=query.refine_rounds {
            if round > 0 {
                // Refinement needs an incumbent to centre on — the same
                // early-out the engine takes, so `rounds` agrees.
                let Some(incumbent) = &best else { break };
                sub.ranges = query
                    .ranges
                    .refined_around(&incumbent.query, query.refine_steps);
            }
            // Merged in shard-index order.
            for (index, engine) in self.shards.iter().enumerate() {
                sub.shard = Some(ShardSpec {
                    index: index as u32,
                    count,
                });
                let answer = self.run_shard(engine, &sub)?;
                evaluated += answer.evaluated;
                feasible += answer.feasible;
                infeasible += answer.infeasible;
                for member in protocol::reply_order(&answer.frontier) {
                    if seen.insert(CacheKey::quantize(&member.query)) {
                        members.push(*member);
                    }
                }
                if let Some(candidate) = answer.best {
                    best = Some(match best {
                        None => candidate,
                        Some(current) => pick_best(current, candidate, query),
                    });
                }
            }
            rounds += 1;
        }
        // Re-reduce the union of shard frontiers: dominance is transitive,
        // so this equals the frontier a single shard would have produced.
        let vectors: Vec<[f64; 3]> = members.iter().map(DesignEval::objectives).collect();
        let frontier = extract_frontier(&vectors, &OBJECTIVE_SENSES)
            .into_iter()
            .map(|i| members[i])
            .collect();
        Ok(QueryAnswer {
            name: query.name.clone(),
            best,
            frontier,
            evaluated,
            feasible,
            infeasible,
            rounds,
        })
    }
}

/// Canonical grid-order key: cells position in the query's cell list,
/// then each axis ascending — the order `QueryRanges::grid` emits
/// points in, which is how the engine breaks objective ties ("earliest
/// evaluation wins").
fn grid_key(eval: &DesignEval, query: &Query) -> (usize, [f64; 5]) {
    let point = &eval.query;
    let cells_pos = query
        .ranges
        .cells
        .iter()
        .position(|&c| c == point.cells)
        .unwrap_or(usize::MAX);
    (
        cells_pos,
        [
            point.wheelbase_mm,
            point.capacity_mah,
            point.compute_power_w,
            point.twr,
            point.payload_g,
        ],
    )
}

fn grid_key_lt(a: &(usize, [f64; 5]), b: &(usize, [f64; 5])) -> bool {
    if a.0 != b.0 {
        return a.0 < b.0;
    }
    for (x, y) in a.1.iter().zip(b.1.iter()) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

/// The better of two incumbents under the query objective, exact ties
/// broken by canonical grid order (see the module docs).
fn pick_best(current: DesignEval, candidate: DesignEval, query: &Query) -> DesignEval {
    let (cur, cand) = (
        query.objective.value(&current),
        query.objective.value(&candidate),
    );
    let candidate_wins = match query.objective.sense() {
        _ if cur == cand => grid_key_lt(&grid_key(&candidate, query), &grid_key(&current, query)),
        Sense::Maximize => cand > cur,
        Sense::Minimize => cand < cur,
    };
    if candidate_wins {
        candidate
    } else {
        current
    }
}

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
#[cfg(test)]
mod tests {
    use super::*;
    use drone_explorer::{GridRange, Objective, QueryRanges};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn ranges() -> QueryRanges {
        QueryRanges {
            wheelbase_mm: GridRange::new(250.0, 450.0, 3),
            cells: vec![
                drone_components::battery::CellCount::S3,
                drone_components::battery::CellCount::S6,
            ],
            capacity_mah: GridRange::new(2000.0, 6000.0, 5),
            compute_power_w: GridRange::fixed(3.0),
            twr: GridRange::fixed(2.0),
            payload_g: GridRange::fixed(0.0),
        }
    }

    fn ask(addr: SocketAddr, line: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        reply.trim_end().to_owned()
    }

    fn router(shards: usize) -> (Router, Registry) {
        let registry = Registry::with_wall_clock();
        let config = RouterConfig {
            shards,
            ..RouterConfig::default()
        };
        let router = Router::start(|| Explorer::new(2), config, &registry).expect("start router");
        (router, registry)
    }

    fn error_kind(doc: &Json) -> Option<&str> {
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Json::as_str)
    }

    #[test]
    fn objective_ties_go_to_the_grid_earlier_design_in_either_order() {
        use drone_components::battery::CellCount::{S3, S6};
        let query = Query::new("tie", ranges(), Objective::MaxFlightTime);
        let design = |cells, wheelbase_mm| DesignEval {
            query: drone_dse::eval::DesignQuery {
                wheelbase_mm,
                cells,
                capacity_mah: 4000.0,
                compute_power_w: 3.0,
                twr: 2.0,
                payload_g: 0.0,
            },
            weight_g: 800.0,
            hover_power_w: 90.0,
            maneuver_power_w: 120.0,
            flight_time_min: 12.5,
            compute_share_hover: 0.03,
            compute_share_maneuver: 0.02,
        };
        // Cells position in the query's list decides before any axis...
        let (early, late) = (design(S3, 450.0), design(S6, 250.0));
        assert_eq!(pick_best(early, late, &query), early);
        assert_eq!(pick_best(late, early, &query), early);
        // ...then the axes, ascending.
        let (early, late) = (design(S3, 250.0), design(S3, 350.0));
        assert_eq!(pick_best(early, late, &query), early);
        assert_eq!(pick_best(late, early, &query), early);
    }

    #[test]
    fn single_shard_router_matches_the_direct_engine_byte_for_byte() {
        // refine_rounds = 0 so the engine's cross-round `seen` dedup
        // cannot kick in — with it, feasible counts legitimately differ
        // between the router's round-per-request recurrence and one
        // engine run (see the module docs); the grid sweep itself must
        // be byte-identical.
        let mut query = Query::new("parity", ranges(), Objective::MaxFlightTime);
        query.refine_rounds = 0;
        let line = protocol::request_to_json(7, &query).render();

        let direct = {
            let answer = Explorer::new(2).run(&query);
            protocol::ok_reply(&Json::Num(7.0), &answer).render()
        };
        let (router, _registry) = router(1);
        let via_router = ask(router.addr(), &line);
        assert_eq!(via_router, direct);
        let stats = router.drain();
        assert!(stats.clean);
    }

    #[test]
    fn shard_count_does_not_change_the_reply_bytes() {
        let mut query = Query::new("invariant", ranges(), Objective::MinWeight);
        query.refine_rounds = 1;
        query.refine_steps = 3;
        let line = protocol::request_to_json(3, &query).render();
        let replies: Vec<String> = [1usize, 3]
            .iter()
            .map(|&n| {
                let (router, _registry) = router(n);
                let reply = ask(router.addr(), &line);
                router.drain();
                reply
            })
            .collect();
        assert_eq!(replies[0], replies[1]);
        assert!(replies[0].contains("\"ok\":true"));
    }

    #[test]
    fn non_query_requests_are_refused_with_bad_request() {
        let (router, registry) = router(1);
        let reply = ask(router.addr(), r#"{"id":4,"stats":{}}"#);
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id"), Some(&Json::Num(4.0)));
        assert_eq!(error_kind(&doc), Some("bad_request"));
        assert_eq!(registry.counter("router.errors").get(), 1);
        router.drain();
    }

    #[test]
    fn a_client_shard_spec_is_refused_with_invalid_query() {
        let (router, registry) = router(2);
        let mut query = Query::new("slice", ranges(), Objective::MaxFlightTime).with_shard(0, 2);
        query.refine_rounds = 0;
        let reply = ask(
            router.addr(),
            &protocol::request_to_json(5, &query).render(),
        );
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)), "{reply}");
        assert_eq!(doc.get("id"), Some(&Json::Num(5.0)));
        assert_eq!(error_kind(&doc), Some("invalid_query"));
        assert_eq!(registry.counter("router.errors").get(), 1);
        assert_eq!(registry.counter("router.requests").get(), 1);
        assert!(router.drain().clean);
    }

    #[test]
    fn a_shed_round_leaves_the_router_answering() {
        let registry = Registry::with_wall_clock();
        let config = RouterConfig {
            shards: 2,
            reactor: ReactorConfig {
                cost_deadline: Some(10),
                ..ReactorConfig::default()
            },
        };
        let router = Router::start(|| Explorer::new(2), config, &registry).expect("start router");
        // 30-point sweep: over the 10-unit cost deadline, so the first
        // shard's sub-query is shed with a structured error.
        let mut big = Query::new("big", ranges(), Objective::MaxFlightTime);
        big.refine_rounds = 0;
        let reply = ask(router.addr(), &protocol::request_to_json(1, &big).render());
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id"), Some(&Json::Num(1.0)));
        assert_eq!(error_kind(&doc), Some("deadline_exceeded"));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str),
            Some("estimated 30 cost units exceeds the 10-unit deadline")
        );
        // A small query after the shed one must get *its* answer.
        let mut small_ranges = ranges();
        small_ranges.wheelbase_mm = GridRange::fixed(300.0);
        small_ranges.capacity_mah = GridRange::fixed(4000.0);
        let mut small = Query::new("small", small_ranges, Objective::MaxFlightTime);
        small.refine_rounds = 0;
        let reply = ask(
            router.addr(),
            &protocol::request_to_json(2, &small).render(),
        );
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{reply}");
        assert_eq!(doc.get("id"), Some(&Json::Num(2.0)));
        assert!(router.drain().clean);
    }

    #[test]
    fn shard_errors_propagate_with_the_client_id() {
        let (router, _registry) = router(2);
        // An invalid query dies at the router's own parse, still
        // echoing the id.
        let reply = ask(
            router.addr(),
            r#"{"id":9,"query":{"ranges":{"wheelbase_mm":{"min":450,"max":250,"steps":3},"cells":["3S"],"capacity_mah":2000},"objective":"max_flight_time"}}"#,
        );
        let doc = Json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(doc.get("id"), Some(&Json::Num(9.0)));
        assert_eq!(error_kind(&doc), Some("invalid_query"));
        let stats = router.drain();
        assert!(stats.clean);
        assert_eq!(
            stats.threads_joined,
            RouterConfig::default().reactor.reactors + 1,
            "the front's reactors plus its acceptor, and nothing else"
        );
    }
}
