//! The untraced run: set-up, a timed closed-loop phase, then the
//! reference check. Every end-to-end metric comes from here.

use crate::check::{verify, Verdict};
use crate::gen::LineStream;
use crate::report::Metric;
use crate::wire::{drive, Deployment, Phase, Stop};
use crate::{median, peak_rss_mb, quantile, Workload};
use drone_telemetry::Registry;
use std::time::Instant;

/// How long and how often a run measures.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Timed-phase length.
    pub seconds: f64,
    /// Fewest timed requests per block, across clients: the phase runs
    /// past `seconds` until it has `blocks × min_requests`, so each
    /// block's p99 has at least `min_requests / 100` samples beyond it.
    pub min_requests: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Fewest equal-count blocks the timed exchanges are split into;
    /// there are as many more, up to [`MAX_BLOCKS`], as `min_requests`
    /// allows. The rate and latency metrics are medians over blocks, so
    /// a burst of interference in a minority of blocks does not move
    /// them.
    pub blocks: usize,
}

/// Most blocks a timed phase is split into.
pub const MAX_BLOCKS: usize = 20;

/// One block of consecutive completed exchanges.
#[derive(Debug, Clone)]
pub struct Block {
    /// Round trips in the block, ns, sorted.
    pub latencies_ns: Vec<u64>,
    /// Ok replies in the block.
    pub ok: usize,
    /// From the previous block's last completion (or the first send)
    /// to this block's last completion, s.
    pub seconds: f64,
}

impl Block {
    pub fn rate(&self) -> f64 {
        self.ok as f64 / self.seconds
    }
}

/// Splits a phase's exchanges, in completion order, into `count`
/// blocks of equal size.
pub fn blocks(phase: &Phase, count: usize) -> Vec<Block> {
    let mut done: Vec<(u64, u64, bool)> = phase
        .logs
        .iter()
        .flat_map(|l| l.exchanges.iter())
        .map(|e| (e.end_ns(), u64::from(e.rtt_ns), e.ok))
        .collect();
    let Some(first_send) = phase
        .logs
        .iter()
        .filter_map(|l| l.exchanges.first())
        .map(|e| u64::from(e.start_us) * 1000)
        .min()
    else {
        return Vec::new();
    };
    done.sort_unstable();
    let count = count.clamp(1, done.len().max(1));
    let mut from = first_send;
    (0..count)
        .map(|k| {
            let part = &done[k * done.len() / count..(k + 1) * done.len() / count];
            let to = part.last().map_or(from, |d| d.0);
            let mut latencies_ns: Vec<u64> = part.iter().map(|d| d.1).collect();
            latencies_ns.sort_unstable();
            let block = Block {
                latencies_ns,
                ok: part.iter().filter(|d| d.2).count(),
                seconds: (to - from).max(1) as f64 / 1e9,
            };
            from = to;
            block
        })
        .collect()
}

/// A started deployment, warmed and ready for timing.
pub struct Ready {
    pub deployment: Deployment,
    pub registry: Registry,
    /// Each client's stream, positioned after its warm-up lines.
    pub streams: Vec<LineStream>,
    /// Server start through the end of warm-up, seconds.
    pub setup_s: f64,
}

/// Starts `workload`'s deployment and sends every client's warm-up
/// prefix. Fails if the server cannot start or any warm-up request
/// gets no ok reply.
pub fn set_up(workload: Workload, seed: u64) -> Result<Ready, String> {
    let started = Instant::now();
    let registry = Registry::with_wall_clock();
    let deployment =
        Deployment::start(workload, &registry).map_err(|e| format!("server start: {e}"))?;
    let mut streams: Vec<LineStream> = (0..workload.clients())
        .map(|c| LineStream::new(workload, seed, c as u64))
        .collect();
    let stops = vec![Stop::Count(workload.warmup_lines()); streams.len()];
    let warm = drive(deployment.addr(), &mut streams, &stops);
    let setup_s = started.elapsed().as_secs_f64();
    let all_ok = warm
        .logs
        .iter()
        .all(|l| !l.io_error && l.exchanges.iter().all(|e| e.ok));
    if !all_ok {
        deployment.drain();
        return Err("a warm-up request failed".into());
    }
    Ok(Ready {
        deployment,
        registry,
        streams,
        setup_s,
    })
}

/// The registry's cache counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheCounts {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl CacheCounts {
    pub fn read(registry: &Registry) -> CacheCounts {
        CacheCounts {
            hits: registry.counter("explorer.cache.hits").get(),
            misses: registry.counter("explorer.cache.misses").get(),
            evictions: registry.counter("explorer.cache.evictions").get(),
        }
    }

    /// Counts accumulated since `before`.
    pub fn since(self, before: CacheCounts) -> CacheCounts {
        CacheCounts {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }

    pub fn hit_ratio(self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

/// What one untraced run measured.
pub struct Outcome {
    pub verdict: Verdict,
    pub elapsed_s: f64,
    pub blocks: Vec<Block>,
    pub setups_s: Vec<f64>,
    pub peak_rss_mb: f64,
    /// Cache activity during the timed phase.
    pub cache: CacheCounts,
    /// Stopping the deployment after the timed phase, s.
    pub drain_s: f64,
    /// The reference check, s.
    pub verify_s: f64,
}

/// Sets up, runs the timed phase, sets up `opts.setups - 1` more times
/// for the `setup_s` median, and checks every reply. The timed phase
/// runs on the first deployment, so the peak RSS it reports has seen
/// one deployment only: drained earlier ones would leave a heap whose
/// size varies from run to run.
pub fn run(workload: Workload, seed: u64, opts: Opts) -> Result<Outcome, String> {
    let Ready {
        deployment,
        registry,
        mut streams,
        setup_s,
    } = set_up(workload, seed)?;
    let before = CacheCounts::read(&registry);
    let phase = timed(&deployment, &mut streams, opts);
    // Net of the exchange log, which grows with the request rate: a
    // faster server must not read as a bigger one.
    let peak_rss_mb = peak_rss_mb() - phase.log_bytes() as f64 / (1024.0 * 1024.0);
    let cache = CacheCounts::read(&registry).since(before);
    let drained = Instant::now();
    deployment.drain();
    let drain_s = drained.elapsed().as_secs_f64();
    let mut setups_s = vec![setup_s];
    for _ in 1..opts.setups {
        let again = set_up(workload, seed)?;
        setups_s.push(again.setup_s);
        again.deployment.drain();
    }
    let checked = Instant::now();
    let verdict = verify(workload, seed, workload.warmup_lines(), &phase);
    let verify_s = checked.elapsed().as_secs_f64();
    Ok(Outcome {
        verdict,
        elapsed_s: phase.elapsed_s,
        blocks: blocks(
            &phase,
            (phase.requests() / opts.min_requests.max(1)).clamp(opts.blocks.max(1), MAX_BLOCKS),
        ),
        setups_s,
        peak_rss_mb,
        cache,
        drain_s,
        verify_s,
    })
}

/// The timed closed-loop phase.
pub fn timed(deployment: &Deployment, streams: &mut [LineStream], opts: Opts) -> Phase {
    let min = (opts.min_requests * opts.blocks.max(1)).div_ceil(streams.len().max(1));
    let stops = vec![
        Stop::For {
            seconds: opts.seconds,
            min
        };
        streams.len()
    ];
    drive(deployment.addr(), streams, &stops)
}

impl Outcome {
    /// True when every request got an ok reply that matched the
    /// reference (or differed only as the router's known deviation).
    pub fn correct(&self) -> bool {
        self.verdict.attempted > 0 && self.verdict.failed() == 0
    }

    /// The end-to-end metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let v = &self.verdict;
        let attempted = v.attempted.max(1) as f64;
        let over_blocks =
            |f: &dyn Fn(&Block) -> f64| median(&self.blocks.iter().map(f).collect::<Vec<f64>>());
        let rps = over_blocks(&Block::rate);
        let points_per_ok = v.evaluated as f64 / v.ok.max(1) as f64;
        let ms = |b: &Block, q: f64| quantile(&b.latencies_ns, q) as f64 / 1e6;
        vec![
            Metric::new("throughput_rps", "1/s", rps),
            Metric::new("points_per_s", "1/s", rps * points_per_ok),
            Metric::new("latency_p50_ms", "ms", over_blocks(&|b| ms(b, 0.50))),
            Metric::new("latency_p99_ms", "ms", over_blocks(&|b| ms(b, 0.99))),
            Metric::new(
                "ok_frac",
                "ratio",
                (v.attempted - v.failed()) as f64 / attempted,
            ),
            Metric::new("reply_match_frac", "ratio", v.matched as f64 / attempted),
            Metric::new("setup_s", "s", median(&self.setups_s)),
            Metric::new("peak_rss_mb", "MiB", self.peak_rss_mb),
        ]
    }
}
