//! A batched design-space-exploration query server.
//!
//! `drone-serve` puts the [`drone_explorer`] engine behind a TCP
//! socket speaking newline-delimited JSON: one request per line, one
//! reply per request, in order. It is the serving tier the
//! paper's methodology implies but never builds — once the
//! cycle-accurate model is replaced by closed-form sizing, a
//! design-space query is cheap enough to answer interactively, and the
//! interesting systems problems move to admission control, batching
//! and tail latency.
//!
//! The crate is layered, each layer usable on its own:
//!
//! - [`protocol`] — pure request/reply code: strict parsing into
//!   validated [`drone_explorer::Query`] values, typed
//!   [`protocol::RequestError`]s for every malformed shape, and
//!   [`protocol::handle_batch`], which coalesces a batch of request
//!   lines into **one** [`drone_explorer::Explorer::run_batch`] call
//!   so pipelined queries share the memoization cache.
//! - [`framer`] — incremental newline framing: linear-time watermark
//!   scanning, one copy per line, `too_large` resynchronization, and
//!   the `has_partial` ground truth the progress deadlines are armed
//!   on.
//! - [`reactor`] — the one TCP front-end: an acceptor dealing
//!   connections round-robin to reactor threads over raw readiness
//!   syscalls (no libc, no runtime crate), each owning a slab of
//!   nonblocking connections, with no idle busy-polling — an idle
//!   server makes zero `epoll_wait` returns. Structured `overloaded`
//!   sheds past each reactor's connection ceiling, and a graceful
//!   [`ReactorServer::drain`] that joins every thread.
//! - `service` — the engine-backed line handler the reactor drives:
//!   batching, panic isolation, the introspection plane and the
//!   `serve.*` metrics.
//! - [`router`] — request-level sharding: the memo cache's
//!   quantized-FNV scheme lifted to N shard-local engines that one
//!   front reactor calls directly, with an input-ordered merge that
//!   makes replies byte-identical at every shard count (DESIGN §14).
//! - [`client`] and [`chaos`] — a resilient retrying client and a
//!   seeded fault-injecting proxy, for driving the server end to end.
//! - [`workload`] — deterministic seeded client workloads, so the
//!   `repro serve` / `repro serve_scale` benchmarks replay the same
//!   byte stream every run and their artifacts stay byte-stable
//!   across thread counts.
//!
//! Nothing in the request path may panic on untrusted input;
//! `tests/properties.rs` feeds arbitrary bytes and adversarial grids
//! through both the pure batch handler and a live socket to keep that
//! true.
//!
//! On top of the request path sits the **introspection plane**: every
//! served request records a causal span tree (deterministic trace ids,
//! client-stamped or server-derived) into a bounded ring, and two
//! additional wire request kinds — `{"id":..,"stats":{}}` and
//! `{"id":..,"trace":{"last":N}}` — let a live client snapshot the
//! metrics registry, open-connection count and recent span trees
//! mid-workload.

pub mod chaos;
pub mod client;
pub mod framer;
pub mod protocol;
pub mod reactor;
pub mod router;
mod service;
pub(crate) mod sys;
pub mod workload;

/// Client-facing contract tests of the served front-end, run over real
/// sockets against an engine-backed [`ReactorServer`].
#[cfg(all(
    test,
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod server {
    mod tests;
}

pub use chaos::{ChaosProxy, Fault, FaultSchedule};
pub use client::{CallError, Client, ClientConfig};
pub use framer::LineFramer;
pub use protocol::{
    error_reply, handle_batch, handle_batch_traced, ok_reply, parse_request, request_to_json,
    BatchOutcome, BatchPolicy, BatchTracing, ErrorKind, ReplySlot, RequestError,
};
pub use reactor::{DrainStats, LineHandler, ReactorConfig, ReactorServer};
pub use router::{Router, RouterConfig};
pub use workload::Workload;
