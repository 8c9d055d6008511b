//! The serving deployments under test and the closed-loop clients that
//! drive them over loopback.

use crate::check::{digest, is_ok, Digest};
use crate::gen::LineStream;
use crate::Workload;
use drone_explorer::Explorer;
use drone_serve::{ReactorConfig, ReactorServer, Router, RouterConfig};
use drone_telemetry::Registry;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Longest wait for one reply before the request counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(4);

/// Worker threads for every engine: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// A fresh engine whose cache counters report into `registry`.
pub fn engine(registry: &Registry) -> Explorer {
    let mut engine = Explorer::new(nproc());
    engine.attach_telemetry(registry);
    engine
}

/// One reactor thread per tier: a second one made the warm workloads
/// unsteady on a 2-core machine.
pub fn reactor_config() -> ReactorConfig {
    ReactorConfig {
        reactors: 1,
        ..ReactorConfig::default()
    }
}

/// A running server, direct or routed.
pub enum Deployment {
    Direct(ReactorServer),
    Routed(Router),
}

impl Deployment {
    /// Starts the deployment `workload` is served by; every engine
    /// reports into `registry`.
    pub fn start(workload: Workload, registry: &Registry) -> std::io::Result<Deployment> {
        if workload.routed() {
            let config = RouterConfig {
                shards: 2,
                reactor: reactor_config(),
            };
            Ok(Deployment::Routed(Router::start(
                || engine(registry),
                config,
                registry,
            )?))
        } else {
            Ok(Deployment::Direct(ReactorServer::start(
                engine(registry),
                reactor_config(),
                registry,
            )?))
        }
    }

    pub fn addr(&self) -> SocketAddr {
        match self {
            Deployment::Direct(server) => server.addr(),
            Deployment::Routed(router) => router.addr(),
        }
    }

    /// Stops the deployment and joins all of its threads.
    pub fn drain(self) {
        match self {
            Deployment::Direct(server) => {
                server.drain();
            }
            Deployment::Routed(router) => {
                router.drain();
            }
        }
    }
}

/// One request/reply exchange as the client saw it, kept to 24 bytes:
/// a run logs hundreds of thousands of these, and they share the
/// process's peak RSS with the server.
#[derive(Debug, Clone, Copy)]
pub struct Exchange {
    body: u64,
    counts: u32,
    /// Send time, µs after the benchmark's epoch.
    pub start_us: u32,
    /// Send to complete reply line, ns (below [`REPLY_TIMEOUT`]).
    pub rtt_ns: u32,
    /// The reply carried `"ok":true`.
    pub ok: bool,
}

impl Exchange {
    pub fn digest(&self) -> Digest {
        Digest {
            body: self.body,
            counts: self.counts,
        }
    }

    /// Completion time, ns after the benchmark's epoch.
    pub fn end_ns(&self) -> u64 {
        u64::from(self.start_us) * 1000 + u64::from(self.rtt_ns)
    }
}

/// Everything one client did in a phase.
#[derive(Debug, Default)]
pub struct ClientLog {
    pub exchanges: Vec<Exchange>,
    /// The connection failed; the request in flight got no reply.
    pub io_error: bool,
}

impl ClientLog {
    /// Requests sent, including one lost to an IO error.
    pub fn attempted(&self) -> usize {
        self.exchanges.len() + usize::from(self.io_error)
    }
}

/// When a client stops sending.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After exactly this many requests.
    Count(usize),
    /// Once `seconds` have passed and at least `min` requests completed.
    For { seconds: f64, min: usize },
}

/// A finished phase: one log per client plus its wall time.
pub struct Phase {
    pub logs: Vec<ClientLog>,
    pub elapsed_s: f64,
}

impl Phase {
    pub fn attempted(&self) -> usize {
        self.logs.iter().map(ClientLog::attempted).sum()
    }

    /// Completed exchanges.
    pub fn requests(&self) -> usize {
        self.logs.iter().map(|l| l.exchanges.len()).sum()
    }

    /// Completed exchanges per client.
    pub fn counts(&self) -> Vec<usize> {
        self.logs.iter().map(|l| l.exchanges.len()).collect()
    }

    /// Completed exchanges per second of the phase.
    pub fn rate(&self) -> f64 {
        self.requests() as f64 / self.elapsed_s
    }

    pub fn mean_rtt_us(&self) -> f64 {
        let total: u64 = self
            .logs
            .iter()
            .flat_map(|l| l.exchanges.iter().map(|e| u64::from(e.rtt_ns)))
            .sum();
        total as f64 / self.requests().max(1) as f64 / 1e3
    }

    /// Reply digests per client.
    pub fn digests(&self) -> Vec<Vec<Digest>> {
        self.logs
            .iter()
            .map(|l| l.exchanges.iter().map(Exchange::digest).collect())
            .collect()
    }

    /// Requests without an ok reply.
    pub fn failures(&self) -> usize {
        self.logs
            .iter()
            .map(|l| usize::from(l.io_error) + l.exchanges.iter().filter(|e| !e.ok).count())
            .sum()
    }

    /// Resident bytes of the exchange logs themselves.
    pub fn log_bytes(&self) -> usize {
        let exchanges: usize = self.logs.iter().map(|l| l.exchanges.len()).sum();
        exchanges * std::mem::size_of::<Exchange>()
    }
}

/// Runs one closed-loop client per stream against `addr`: each sends a
/// line, waits for its reply, and only then sends the next. `stops`
/// gives each client its own stopping rule. Clients connect first and
/// start together.
pub fn drive(addr: SocketAddr, streams: &mut [LineStream], stops: &[Stop]) -> Phase {
    let barrier = Barrier::new(streams.len() + 1);
    let mut started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter_mut()
            .zip(stops)
            .map(|(stream, &stop)| {
                let barrier = &barrier;
                scope.spawn(move || client(addr, stream, stop, barrier))
            })
            .collect();
        barrier.wait();
        started = Instant::now();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    Phase {
        logs,
        elapsed_s: started.elapsed().as_secs_f64(),
    }
}

fn client(addr: SocketAddr, stream: &mut LineStream, stop: Stop, barrier: &Barrier) -> ClientLog {
    let mut log = ClientLog::default();
    let conn = TcpStream::connect(addr).and_then(|c| {
        c.set_nodelay(true)?;
        // A stalled server fails the run instead of hanging it.
        c.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(c)
    });
    barrier.wait();
    let Ok(conn) = conn else {
        log.io_error = true;
        return log;
    };
    let started = Instant::now();
    // Reserve the log up front so it never reallocates mid-phase (a
    // doubling would briefly hold two copies and move the peak RSS);
    // untouched capacity is not resident. No loopback round trip
    // completes in 4 µs.
    let capacity = match stop {
        Stop::Count(n) => n,
        Stop::For { seconds, min } => min.max((seconds * 250_000.0) as usize),
    };
    log.exchanges.reserve_exact(capacity);
    let mut reader = BufReader::with_capacity(256 * 1024, conn);
    let mut reply: Vec<u8> = Vec::with_capacity(256 * 1024);
    loop {
        let done = log.exchanges.len();
        let more = match stop {
            Stop::Count(n) => done < n,
            Stop::For { seconds, min } => {
                done < min || started.elapsed() < Duration::from_secs_f64(seconds)
            }
        };
        if !more {
            break;
        }
        let line = stream.next_line();
        reply.clear();
        let sent = Instant::now();
        let answered = reader
            .get_mut()
            .write_all(line.as_bytes())
            .and_then(|()| reader.read_until(b'\n', &mut reply));
        let rtt_ns = u32::try_from(sent.elapsed().as_nanos()).unwrap_or(u32::MAX);
        match answered {
            Ok(n) if n > 0 && reply.last() == Some(&b'\n') => {
                let body = &reply[..reply.len() - 1];
                let d = digest(body);
                log.exchanges.push(Exchange {
                    body: d.body,
                    counts: d.counts,
                    start_us: (crate::since_epoch_ns(sent) / 1000) as u32,
                    rtt_ns,
                    ok: is_ok(body),
                });
            }
            _ => {
                log.io_error = true;
                break;
            }
        }
    }
    log
}
