//! `drone-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! With `--trace 0` it prints the end-to-end metrics of an untraced
//! run; with `--trace 1` the per-layer metrics of a traced run. The
//! last stdout line is always one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is a
//! fingerprinted record with sample counts. Exits non-zero, printing
//! no result, when a run cannot complete.

use drone_perfbench::e2e::{self, Block, Opts};
use drone_perfbench::report::{fingerprint, metrics_json, quote, result_line};
use drone_perfbench::{ladder, quantile, Workload};

/// Set-ups per untraced run; `setup_s` reports their median.
const SETUPS: usize = 5;
/// Fewest blocks the timed phase is split into; rates and latencies are
/// medians over blocks.
const BLOCKS: usize = 3;
/// Fewest timed requests per block, so each block's p99 has at least
/// ten samples beyond it.
const MIN_REQUESTS: usize = 1000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("drone-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let record = |extra: &str, metrics: &str| {
        println!(
            "{{\"record\": {{\"workload\": {}, \"trace\": {}, \"fingerprint\": {}, {extra}, \"metrics\": {metrics}}}}}",
            quote(args.workload.name()),
            u8::from(args.trace),
            fingerprint(args.seed),
        );
    };
    if args.trace {
        match ladder::run(args.workload, args.seed, args.seconds) {
            Ok(traced) => {
                let metrics = &traced.metrics;
                record(
                    &format!(
                        "\"requests\": {}, \"ladder_lines\": {}, \"spans_file\": {}",
                        traced.requests,
                        traced.ladder_lines,
                        quote(&traced.spans_file)
                    ),
                    &metrics_json(metrics),
                );
                println!(
                    "{}",
                    result_line(traced.correct, traced.requests, traced.failed, metrics)
                );
            }
            Err(e) => {
                eprintln!("drone-perfbench: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let opts = Opts {
        seconds: args.seconds,
        min_requests: MIN_REQUESTS,
        setups: SETUPS,
        blocks: BLOCKS,
    };
    match e2e::run(args.workload, args.seed, opts) {
        Ok(outcome) => {
            let metrics = outcome.metrics();
            let v = &outcome.verdict;
            record(
                &format!(
                    "\"latency_samples_per_block\": {:?}, \"block_rps\": {:?}, \"block_p99_ms\": {:?}, \"elapsed_s\": {}, \"setups_s\": {:?}, \"drain_s\": {}, \"verify_s\": {}, \"ok\": {}, \"matched\": {}, \"known_router_deviation\": {}, \"io_errors\": {}, \"wrong\": {}, \"cache_hit_ratio\": {}, \"cache_misses\": {}, \"cache_evictions\": {}",
                    outcome.blocks.iter().map(|b| b.latencies_ns.len()).collect::<Vec<_>>(),
                    outcome.blocks.iter().map(Block::rate).collect::<Vec<_>>(),
                    outcome
                        .blocks
                        .iter()
                        .map(|b| quantile(&b.latencies_ns, 0.99) as f64 / 1e6)
                        .collect::<Vec<_>>(),
                    outcome.elapsed_s,
                    outcome.setups_s,
                    outcome.drain_s,
                    outcome.verify_s,
                    v.ok,
                    v.matched,
                    v.known_deviation,
                    v.io_errors,
                    v.wrong,
                    outcome.cache.hit_ratio(),
                    outcome.cache.misses,
                    outcome.cache.evictions,
                ),
                &metrics_json(&metrics),
            );
            println!(
                "{}",
                result_line(outcome.correct(), v.attempted, v.failed(), &metrics)
            );
        }
        Err(e) => {
            eprintln!("drone-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
