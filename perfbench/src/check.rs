//! The reference check: every wire reply is compared with the reply the
//! pure in-process batch handler gives for the same line on a fresh
//! engine.
//!
//! Replies are not kept: each is reduced on receipt to a [`Digest`]
//! that separates the two unique-point counts (`feasible`,
//! `infeasible`) from the rest of the bytes. A reply whose bytes differ
//! only in those two counts, on a refined query, is the router's known
//! deviation: it sums the counts over the rounds it drives itself,
//! where the engine counts each unique design once.

use crate::gen::LineStream;
use crate::wire::{nproc, Phase};
use crate::Workload;
use drone_explorer::{Explorer, QueryLimits};
use drone_serve::{handle_batch, parse_request};

/// A reply reduced for comparison. Every hashed segment is
/// length-terminated, so equal digests mean equal bytes up to hash
/// collisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Hash of every byte except the two count values.
    pub body: u64,
    /// Hash of the `feasible` and `infeasible` values.
    pub counts: u32,
}

/// Digests one reply line (without its newline).
pub fn digest(reply: &[u8]) -> Digest {
    let Some((f0, f1)) = number_after(reply, 0, b",\"feasible\":") else {
        return Digest {
            body: hash(SEED, reply),
            counts: 0,
        };
    };
    let (i0, i1) = number_after(reply, f1, b",\"infeasible\":").unwrap_or((f1, f1));
    let mut body = hash(SEED, &reply[..f0]);
    body = hash(body, &reply[f1..i0]);
    body = hash(body, &reply[i1..]);
    let counts = hash(hash(SEED, &reply[f0..f1]), &reply[i0..i1]) as u32;
    Digest { body, counts }
}

/// True when the reply line carries `"ok":true` (it leads the reply,
/// right after the echoed id).
pub fn is_ok(reply: &[u8]) -> bool {
    let head = &reply[..reply.len().min(48)];
    head.windows(9).any(|w| w == b"\"ok\":true")
}

/// The digit run following the first `key` at or after `from`.
fn number_after(bytes: &[u8], from: usize, key: &[u8]) -> Option<(usize, usize)> {
    let at = bytes[from..].windows(key.len()).position(|w| w == key)? + from + key.len();
    let end = bytes[at..]
        .iter()
        .position(|b| !b.is_ascii_digit())
        .map_or(bytes.len(), |n| at + n);
    Some((at, end))
}

const SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Word-at-a-time multiply–xorshift hash, length-terminated.
fn hash(mut h: u64, bytes: &[u8]) -> u64 {
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        h = mix(
            h,
            u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")),
        );
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    h = mix(h, u64::from_le_bytes(tail));
    mix(h, bytes.len() as u64)
}

fn mix(h: u64, w: u64) -> u64 {
    let x = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^ (x >> 29)
}

/// What the reference check found over one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Verdict {
    pub attempted: usize,
    /// Replies with `"ok":true`.
    pub ok: usize,
    /// Byte-identical to the reference.
    pub matched: usize,
    /// Differing only as the router's documented deviation.
    pub known_deviation: usize,
    /// Requests lost to a connection error.
    pub io_errors: usize,
    /// Replies that are not ok, or differ in any other way.
    pub wrong: usize,
    /// Sum of the reference replies' `evaluated` over ok replies.
    pub evaluated: u64,
}

impl Verdict {
    /// Requests that did not get a correct answer.
    pub fn failed(&self) -> usize {
        self.io_errors + self.wrong
    }
}

/// Regenerates each client's lines (after `skip` warm-up lines), answers
/// them with `handle_batch` on a fresh engine per client, and compares
/// every reply `phase` logged.
pub fn verify(workload: Workload, seed: u64, skip: usize, phase: &Phase) -> Verdict {
    let threads = (nproc() / phase.logs.len().max(1)).max(1);
    let verdicts: Vec<Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = phase
            .logs
            .iter()
            .enumerate()
            .map(|(client, log)| {
                scope.spawn(move || {
                    let engine = Explorer::new(threads);
                    let limits = QueryLimits::default();
                    let mut stream = LineStream::new(workload, seed, client as u64);
                    stream.skip(skip);
                    let mut verdict = Verdict {
                        attempted: log.attempted(),
                        io_errors: usize::from(log.io_error),
                        ..Verdict::default()
                    };
                    for exchange in &log.exchanges {
                        let line = stream.next_line();
                        let line = line.trim_end();
                        let (replies, _) = handle_batch(&engine, &[line], &limits);
                        let reference = replies[0].as_bytes();
                        let expected = digest(reference);
                        if !exchange.ok {
                            verdict.wrong += 1;
                            continue;
                        }
                        verdict.ok += 1;
                        verdict.evaluated += number_after(reference, 0, b"\"evaluated\":")
                            .and_then(|(a, b)| std::str::from_utf8(&reference[a..b]).ok())
                            .and_then(|n| n.parse::<u64>().ok())
                            .unwrap_or(0);
                        let got = exchange.digest();
                        if got == expected {
                            verdict.matched += 1;
                        } else if workload.routed()
                            && got.body == expected.body
                            && refined(line, &limits)
                        {
                            verdict.known_deviation += 1;
                        } else {
                            verdict.wrong += 1;
                        }
                    }
                    verdict
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    verdicts
        .into_iter()
        .fold(Verdict::default(), |a, b| Verdict {
            attempted: a.attempted + b.attempted,
            ok: a.ok + b.ok,
            matched: a.matched + b.matched,
            known_deviation: a.known_deviation + b.known_deviation,
            io_errors: a.io_errors + b.io_errors,
            wrong: a.wrong + b.wrong,
            evaluated: a.evaluated + b.evaluated,
        })
}

fn refined(line: &str, limits: &QueryLimits) -> bool {
    parse_request(line, limits)
        .ok()
        .and_then(|r| r.query().map(|q| q.refine_rounds > 0))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_separate_the_unique_point_counts() {
        let a = br#"{"id":1,"ok":true,"answer":{"name":"q","evaluated":60,"feasible":12,"infeasible":48,"rounds":2,"best":null}}"#;
        let b = br#"{"id":1,"ok":true,"answer":{"name":"q","evaluated":60,"feasible":19,"infeasible":71,"rounds":2,"best":null}}"#;
        let c = br#"{"id":1,"ok":true,"answer":{"name":"q","evaluated":61,"feasible":12,"infeasible":48,"rounds":2,"best":null}}"#;
        assert_eq!(digest(a), digest(a));
        assert_eq!(digest(a).body, digest(b).body);
        assert_ne!(digest(a).counts, digest(b).counts);
        assert_ne!(digest(a).body, digest(c).body);
        assert!(is_ok(a));
        assert!(!is_ok(br#"{"id":1,"ok":false,"error":{}}"#));
    }
}
