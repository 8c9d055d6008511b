//! End-to-end and per-layer benchmark of the DSE serving stack.
//!
//! Each workload runs against a live `ReactorServer` or `Router` over
//! loopback with closed-loop clients (each waits for its reply before
//! sending again). The untraced run ([`e2e::run`]) gives the
//! end-to-end metrics and checks every reply against the pure batch
//! handler; the traced run ([`ladder::run`]) times the public calls
//! into each layer from outside the program. See `README.md` for the
//! layer → metric → workload map.

pub mod check;
pub mod e2e;
pub mod gen;
pub mod ladder;
pub mod report;
pub mod wire;

use std::sync::OnceLock;
use std::time::Instant;

/// The traffic mixes the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One connection sending Figure-10-scale sweeps that never share a
    /// cache key.
    SweepCold,
    /// Two connections replaying the serving crate's palette workload
    /// against a warmed cache.
    InteractiveWarm,
    /// The same lines and clients as `InteractiveWarm`, through a
    /// two-shard router.
    RoutedWarm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SweepCold,
        Workload::InteractiveWarm,
        Workload::RoutedWarm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::InteractiveWarm => "interactive_warm",
            Workload::RoutedWarm => "routed_warm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop client connections, each with one request in flight.
    pub fn clients(self) -> usize {
        match self {
            Workload::SweepCold => 1,
            Workload::InteractiveWarm | Workload::RoutedWarm => 2,
        }
    }

    /// Lines each client sends before timing starts.
    pub fn warmup_lines(self) -> usize {
        match self {
            // Starts the engine's worker threads and the cache's first
            // allocations; the timed sweeps never reuse these keys.
            Workload::SweepCold => 8,
            Workload::InteractiveWarm | Workload::RoutedWarm => 2000,
        }
    }

    pub fn routed(self) -> bool {
        self == Workload::RoutedWarm
    }
}

/// Nanoseconds from the process's first timestamp to `at`; every span
/// and exchange shares this epoch.
pub fn since_epoch_ns(at: Instant) -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    at.saturating_duration_since(epoch).as_nanos() as u64
}

/// The `q`-quantile of `sorted` by nearest rank.
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a non-empty set of measurements.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
