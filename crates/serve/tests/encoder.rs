//! The streaming reply encoder against the `Json` reference builders:
//! for any answer, `encode_ok_reply` must write exactly the bytes of
//! `ok_reply(..).render()` (and likewise for optimize answers), since
//! the batch handler serves only the streamed bytes.

use drone_components::battery::CellCount;
use drone_dse::eval::{DesignEval, DesignQuery};
use drone_explorer::{OptimizeAnswer, QueryAnswer, Strategy as SearchStrategy};
use drone_serve::protocol::{
    encode_ok_optimize_reply, encode_ok_reply, ok_optimize_reply, ok_reply,
};
use drone_telemetry::Json;
use proptest::prelude::*;

/// Finite values of every magnitude and sign, the non-finite ones
/// (rendered as `null`) and signed zeros.
fn float() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        -1.0e4..1.0e4,
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(0.0),
        Just(-0.0),
        Just(1.0e300),
        Just(5.0e-324),
    ]
}

/// Text with quotes, backslashes, every control character and
/// non-ASCII (multi-byte) characters.
fn text() -> impl Strategy<Value = String> {
    let mut chars: Vec<char> = (0u8..0x20).map(char::from).collect();
    chars.extend([
        '"', '\\', '/', '\u{7f}', 'a', 'Z', '0', ' ', 'é', '→', '✈', '🚁',
    ]);
    prop::collection::vec(prop::sample::select(chars), 0..24)
        .prop_map(|chars| chars.into_iter().collect())
}

/// Ids of every `Json` kind, nested containers included.
fn id() -> impl Strategy<Value = Json> {
    let scalar = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        float().prop_map(Json::Num),
        text().prop_map(Json::Str),
    ]
    .boxed();
    prop_oneof![
        scalar.clone(),
        prop::collection::vec(scalar.clone(), 0..4).prop_map(Json::Arr),
        prop::collection::vec((text(), scalar), 0..4).prop_map(Json::Obj),
        Just(Json::obj().with("nested", Json::arr())),
    ]
}

fn count() -> impl Strategy<Value = usize> {
    prop_oneof![0usize..100, Just(usize::MAX), 0usize..1_000_000_000]
}

/// A design. Flight time and weight come from a few values, so members
/// tie on the reply sort key often; `payload_g` carries the admission
/// index so the test can see the tie order.
fn eval() -> impl Strategy<Value = DesignEval> {
    let tie_prone = prop_oneof![
        prop::sample::select(vec![1.5, 12.25, f64::NAN, -0.0]),
        float()
    ]
    .boxed();
    (
        (
            float(),
            prop::sample::select(CellCount::ALL.to_vec()),
            float(),
        ),
        (float(), float()),
        (tie_prone.clone(), tie_prone),
        (float(), float(), float(), float()),
    )
        .prop_map(
            |(
                (wheelbase_mm, cells, capacity_mah),
                (compute_power_w, twr),
                (flight_time_min, weight_g),
                (hover_power_w, maneuver_power_w, compute_share_hover, compute_share_maneuver),
            )| DesignEval {
                query: DesignQuery {
                    wheelbase_mm,
                    cells,
                    capacity_mah,
                    compute_power_w,
                    twr,
                    payload_g: 0.0,
                },
                weight_g,
                hover_power_w,
                maneuver_power_w,
                flight_time_min,
                compute_share_hover,
                compute_share_maneuver,
            },
        )
}

/// A frontier (possibly empty) whose members are tagged with their
/// admission index in `payload_g`.
fn frontier() -> impl Strategy<Value = Vec<DesignEval>> {
    prop::collection::vec(eval(), 0..10).prop_map(|mut members| {
        for (i, m) in members.iter_mut().enumerate() {
            m.query.payload_g = i as f64;
        }
        members
    })
}

fn best() -> impl Strategy<Value = Option<DesignEval>> {
    prop_oneof![Just(None), eval().prop_map(Some)]
}

/// Members that tie on (flight time, weight) must appear in admission
/// order in the reply; `payload_g` leads back to the admitted member.
fn assert_ties_keep_admission_order(reply: &str, admitted: &[DesignEval]) {
    let doc = Json::parse(reply).expect("reply parses");
    let order: Vec<usize> = doc
        .get("answer")
        .and_then(|a| a.get("frontier"))
        .and_then(Json::as_arr)
        .expect("frontier array")
        .iter()
        .map(|m| m.get("payload_g").and_then(Json::as_f64).unwrap() as usize)
        .collect();
    assert_eq!(order.len(), admitted.len());
    for pair in order.windows(2) {
        let (a, b) = (&admitted[pair[0]], &admitted[pair[1]]);
        let tied = a.flight_time_min.total_cmp(&b.flight_time_min).is_eq()
            && a.weight_g.total_cmp(&b.weight_g).is_eq();
        if tied {
            assert!(pair[0] < pair[1], "tie reordered: {reply}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn query_replies_stream_the_reference_bytes(
        id in id(),
        name in text(),
        counts in (count(), count(), count(), count()),
        best in best(),
        frontier in frontier(),
    ) {
        let (evaluated, feasible, infeasible, rounds) = counts;
        let answer = QueryAnswer {
            name,
            best,
            frontier,
            evaluated,
            feasible,
            infeasible,
            rounds,
        };
        let mut streamed = String::from("earlier reply bytes\n");
        encode_ok_reply(&mut streamed, &id, &answer);
        let reference = format!("earlier reply bytes\n{}", ok_reply(&id, &answer).render());
        prop_assert_eq!(&streamed, &reference);
        assert_ties_keep_admission_order(streamed.lines().last().unwrap(), &answer.frontier);
    }

    #[test]
    fn optimize_replies_stream_the_reference_bytes(
        id in id(),
        name in text(),
        strategy in prop::sample::select(SearchStrategy::ALL.to_vec()),
        counts in (count(), count(), count(), count()),
        more in (count(), count(), count(), count(), count()),
        pool_sizes in prop::collection::vec(count(), 0..5),
        best in best(),
        frontier in frontier(),
    ) {
        let (sampled, evaluated, coarse_evals, prefiltered) = counts;
        let (feasible, infeasible, rounds, refine_waves, budget) = more;
        let answer = OptimizeAnswer {
            name,
            strategy,
            best,
            frontier,
            sampled,
            evaluated,
            coarse_evals,
            prefiltered,
            feasible,
            infeasible,
            rounds,
            refine_waves,
            pool_sizes,
            budget,
        };
        let mut streamed = String::new();
        encode_ok_optimize_reply(&mut streamed, &id, &answer);
        prop_assert_eq!(&streamed, &ok_optimize_reply(&id, &answer).render());
        assert_ties_keep_admission_order(&streamed, &answer.frontier);
    }
}
