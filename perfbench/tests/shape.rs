//! Shape guards: each workload exercises the mechanism it was chosen
//! for, and the ladder's exact counts repeat for a seed.

use drone_perfbench::e2e::{run, Opts};
use drone_perfbench::ladder::{Ladder, Spans};
use drone_perfbench::Workload;

fn short() -> Opts {
    Opts {
        seconds: 1.0,
        min_requests: 50,
        setups: 1,
        blocks: 1,
    }
}

#[test]
fn sweep_cold_misses_the_cache() {
    let out = run(Workload::SweepCold, 3, short()).expect("run completes");
    assert!(out.correct(), "{:?}", out.verdict);
    let ratio = out.cache.hit_ratio();
    assert!(ratio <= 0.05, "sweep_cold hit ratio {ratio}");
    assert!(out.cache.misses > 0);
}

#[test]
fn warm_workloads_hit_the_cache() {
    for workload in [Workload::InteractiveWarm, Workload::RoutedWarm] {
        let out = run(workload, 3, short()).expect("run completes");
        assert!(out.correct(), "{workload:?}: {:?}", out.verdict);
        let ratio = out.cache.hit_ratio();
        assert!(ratio >= 0.99, "{workload:?} hit ratio {ratio}");
    }
}

#[test]
fn the_router_deviation_shows_and_nothing_else_differs() {
    let direct = run(Workload::InteractiveWarm, 4, short()).expect("run completes");
    assert_eq!(direct.verdict.matched, direct.verdict.attempted);
    let routed = run(Workload::RoutedWarm, 4, short()).expect("run completes");
    assert!(routed.correct());
    assert!(routed.verdict.known_deviation > 0);
    assert_eq!(
        routed.verdict.matched + routed.verdict.known_deviation,
        routed.verdict.attempted
    );
}

#[test]
fn exact_counts_repeat_for_a_seed() {
    for workload in Workload::ALL {
        let a = Ladder::run(workload, 7, &mut Spans::default());
        let b = Ladder::run(workload, 7, &mut Spans::default());
        assert!(a.evaluated > 0 && a.reply_bytes > 0 && a.sizing_iterations > 0);
        assert_eq!(a.evaluated, b.evaluated, "{workload:?} evaluated");
        assert_eq!(a.reply_bytes, b.reply_bytes, "{workload:?} reply_bytes");
        assert_eq!(a.kernel_points, b.kernel_points, "{workload:?} points");
        assert_eq!(
            a.sizing_iterations, b.sizing_iterations,
            "{workload:?} sizing iterations"
        );
    }
}
