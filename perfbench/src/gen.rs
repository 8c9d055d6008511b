//! Seeded request-line generation. The server only ever sees the lines
//! produced here; the same `(workload, seed, client)` always yields the
//! same byte stream, so a run's lines can be regenerated for the
//! reference check instead of being kept in memory.

use crate::Workload;
use drone_components::battery::CellCount;
use drone_components::paper::PAPER_TWR;
use drone_explorer::{GridRange, Objective, Query, QueryRanges};
use drone_serve::protocol::request_to_json_traced;
use drone_telemetry::derive_trace_id;

/// Distinct wheelbase origins (0.1 mm granules). Kept below half a grid
/// step (700 mm / 23 / 2 ≈ 15.2 mm) so that no two origins, nor any of
/// the half-step points refinement samples, quantize onto one key.
const WHEELBASE_OFFSETS: u64 = 150;
/// Distinct capacity origins (1 mAh granules), below half a step
/// (7000 mAh / 23 / 2 ≈ 152 mAh) for the same reason.
const CAPACITY_OFFSETS: u64 = 150;
/// Compute-power origins (0.01 W granules).
const COMPUTE_OFFSETS: u64 = 100;

/// One client's request stream.
pub enum LineStream {
    /// Figure-10-scale sweeps whose axis origins move by whole cache
    /// granules from request to request.
    Sweep { seed: u64, next: u64 },
    /// The serving crate's interactive palette workload.
    Palette(drone_serve::Workload),
}

impl LineStream {
    /// The stream client `client` of `workload` sends under `seed`.
    pub fn new(workload: Workload, seed: u64, client: u64) -> LineStream {
        match workload {
            Workload::SweepCold => LineStream::Sweep { seed, next: 0 },
            Workload::InteractiveWarm | Workload::RoutedWarm => {
                LineStream::Palette(drone_serve::Workload::new(seed, client))
            }
        }
    }

    /// The next request line, newline included.
    pub fn next_line(&mut self) -> String {
        match self {
            LineStream::Sweep { seed, next } => {
                let id = *next;
                *next += 1;
                let mut line =
                    request_to_json_traced(id, derive_trace_id(*seed, id), &sweep_query(*seed, id))
                        .render();
                line.push('\n');
                line
            }
            LineStream::Palette(workload) => workload.next_request_line(),
        }
    }

    /// Discards the next `n` lines.
    pub fn skip(&mut self, n: usize) {
        for _ in 0..n {
            self.next_line();
        }
    }
}

/// Sweep request `index` under `seed`: 24 wheelbases × {1S,3S,6S} × 24
/// capacities × 3 compute powers at the paper TWR, zero payload and
/// the default refinement. Consecutive indices walk a seeded
/// permutation of (wheelbase, capacity) origins, so the first
/// 150 × 150 requests of a stream never share a cache key.
pub fn sweep_query(seed: u64, index: u64) -> Query {
    let base = splitmix(seed);
    let wheelbase = (base + index) % WHEELBASE_OFFSETS;
    let capacity = (splitmix(base) + index / WHEELBASE_OFFSETS) % CAPACITY_OFFSETS;
    let compute = splitmix(seed ^ index.wrapping_mul(0x9e37_79b9)) % COMPUTE_OFFSETS;
    let wb = 100.0 + 0.1 * wheelbase as f64;
    let cap = 1000.0 + capacity as f64;
    let cw = 2.0 + 0.01 * compute as f64;
    Query::new(
        &format!("sweep{index}"),
        QueryRanges {
            wheelbase_mm: GridRange::new(wb, wb + 700.0, 24),
            cells: vec![CellCount::S1, CellCount::S3, CellCount::S6],
            capacity_mah: GridRange::new(cap, cap + 7000.0, 24),
            compute_power_w: GridRange::new(cw, cw + 18.0, 3),
            twr: GridRange::fixed(PAPER_TWR),
            payload_g: GridRange::fixed(0.0),
        },
        Objective::MaxFlightTime,
    )
}

/// SplitMix64 finalizer: a fixed, well-mixed map from seed to offset.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use drone_explorer::CacheKey;
    use std::collections::HashSet;

    #[test]
    fn sweep_requests_never_share_a_round_zero_key() {
        let mut seen = HashSet::new();
        for index in 0..40 {
            let query = sweep_query(5, index);
            assert_eq!(query.ranges.point_count(), 24 * 3 * 24 * 3);
            let mut own = HashSet::new();
            for point in query.ranges.grid() {
                own.insert(CacheKey::quantize(&point));
            }
            assert!(own.iter().all(|k| !seen.contains(k)), "request {index}");
            seen.extend(own);
        }
    }

    #[test]
    fn streams_replay_for_the_same_seed() {
        for workload in [Workload::SweepCold, Workload::InteractiveWarm] {
            let mut a = LineStream::new(workload, 9, 1);
            let mut b = LineStream::new(workload, 9, 1);
            a.skip(3);
            b.skip(3);
            assert_eq!(a.next_line(), b.next_line());
        }
    }
}
