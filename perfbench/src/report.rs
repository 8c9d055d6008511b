//! Result lines: a fingerprinted record for people, then the one-line
//! result object the benchmark contract asks for.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Where a result came from: the machine, the toolchain, the source
/// revision and the seed.
pub fn fingerprint(seed: u64) -> String {
    let nproc = crate::wire::nproc();
    let rustc = command_line("rustc", &["-V"]);
    let rev = command_line("git", &["rev-parse", "--short", "HEAD"]);
    format!(
        "{{\"nproc\":{nproc},\"rustc\":{},\"git_rev\":{},\"seed\":{seed}}}",
        quote(&rustc),
        quote(&rev)
    )
}

/// First stdout line of a command, or `"unknown"` when it cannot run
/// (the benchmark may run from a source tree that is not a git
/// checkout).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (never expected) render as 0.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// `{"name": {"value": .., "unit": ..}, ..}`.
pub fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(m.name),
            number(m.value),
            quote(m.unit)
        );
    }
    out.push('}');
    out
}

/// The contract's last line.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    )
}
