//! The stand-ins in `vendor/` are this repository's code: these tests pin the
//! behaviour the tree relies on (see README.md "Stand-in fidelity").

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Wire {
    features: Vec<f64>,
    class: usize,
    note: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
enum Property {
    Performance,
    Fairness,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Event {
    Retrain,
    Reading(Wire),
    Pair(u8, i64),
    Adjust { sensor: String, max_degradation: f64 },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Score {
    weights: HashMap<Property, f64>,
    per_property: Vec<(Property, f64, f64)>,
}

#[test]
fn every_finite_f64_round_trips_bit_for_bit() {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let mut features: Vec<f64> = (0..20_000)
        .map(|_| f64::from_bits(rng.random::<u64>()))
        .filter(|v| v.is_finite())
        .collect();
    features.extend([
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::MIN,
        5e-324,
        0.1 + 0.2,
        1e16,
        1e-7,
    ]);
    let sent = Wire { features, class: 1, note: None };
    let back: Wire = serde_json::from_slice(&serde_json::to_vec(&sent).unwrap()).unwrap();
    let bits = |w: &Wire| w.features.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&back), bits(&sent));
}

#[test]
fn structs_write_fields_in_declaration_order_and_read_them_in_any() {
    let wire = Wire { features: vec![1.0, -2.5], class: 3, note: Some("a\"b\n".into()) };
    let text = serde_json::to_string(&wire).unwrap();
    assert_eq!(text, r#"{"features":[1.0,-2.5],"class":3,"note":"a\"b\n"}"#);
    let shuffled = r#" { "note" : "a\"b\n", "extra": {"nested": [1, {"x": null}]}, "class": 3,
                        "features": [1, -25e-1] } "#;
    assert_eq!(serde_json::from_str::<Wire>(shuffled).unwrap(), wire, "unknown fields are skipped");
    let absent: Wire = serde_json::from_str(r#"{"features":[],"class":0}"#).unwrap();
    assert_eq!(absent.note, None, "an absent Option field reads as None");
}

#[test]
fn malformed_or_mistyped_input_is_an_error_not_a_panic() {
    for bad in [
        r#"{"features":[1.0],"class":0} trailing"#,
        r#"{"features":[1.0,],"class":0}"#,
        r#"{"features":[1.0],"class":-1}"#,
        r#"{"features":[1.0],"class":1.5}"#,
        r#"{"features":["x"],"class":0}"#,
        r#"{"features":[1.0]}"#,
        r#"{"features":[1.0],"class":0,"class":1}"#,
        r#"{"features":[01],"class":0}"#,
        r#"{"features":[1.0],"class":0"#,
        "",
    ] {
        assert!(serde_json::from_str::<Wire>(bad).is_err(), "accepted {bad:?}");
    }
    assert!(serde_json::from_slice::<Wire>(b"\xff\xfe").is_err());
    // Nesting is bounded even inside a field that is only being skipped.
    let deep = format!(r#"{{"features":[],"class":0,"deep":{}}}"#, "[".repeat(10_000));
    assert!(serde_json::from_str::<Wire>(&deep).is_err());
}

#[test]
fn enums_are_externally_tagged() {
    let events = vec![
        Event::Retrain,
        Event::Reading(Wire { features: vec![0.5], class: 0, note: None }),
        Event::Pair(7, -9),
        Event::Adjust { sensor: "shap".into(), max_degradation: 0.25 },
    ];
    let text = serde_json::to_string(&events).unwrap();
    assert_eq!(
        text,
        r#"["Retrain",{"Reading":{"features":[0.5],"class":0,"note":null}},{"Pair":[7,-9]},{"Adjust":{"sensor":"shap","max_degradation":0.25}}]"#
    );
    assert_eq!(serde_json::from_str::<Vec<Event>>(&text).unwrap(), events);
    assert!(serde_json::from_str::<Event>(r#""Rollback""#).is_err(), "unknown variant");
    assert!(serde_json::from_str::<Event>(r#"{"Pair":[7]}"#).is_err(), "short tuple");
}

#[test]
fn maps_keyed_by_unit_enums_and_tuples_round_trip() {
    let score = Score {
        weights: HashMap::from([(Property::Performance, 1.0), (Property::Fairness, 0.5)]),
        per_property: vec![(Property::Fairness, 0.25, 2.0)],
    };
    let text = serde_json::to_string(&score).unwrap();
    assert!(text.contains(r#""Fairness":0.5"#), "{text}");
    assert!(text.contains(r#""per_property":[["Fairness",0.25,2.0]]"#), "{text}");
    assert_eq!(serde_json::from_str::<Score>(&text).unwrap(), score);
    let by_number: HashMap<u32, bool> = serde_json::from_str(r#"{"7":true}"#).unwrap();
    assert_eq!(by_number, HashMap::from([(7, true)]));
}

#[test]
fn pretty_output_is_two_space_indented() {
    let wire = Wire { features: vec![1.0], class: 2, note: None };
    let expected = "{\n  \"features\": [\n    1.0\n  ],\n  \"class\": 2,\n  \"note\": null\n}";
    assert_eq!(serde_json::to_string_pretty(&wire).unwrap(), expected);
    assert_eq!(serde_json::to_string_pretty(&Vec::<f64>::new()).unwrap(), "[]");
}

#[test]
fn array_queue_is_bounded_fifo_even_at_capacity_one() {
    let queue = crossbeam::queue::ArrayQueue::new(1);
    for lap in 0..5 {
        assert_eq!(queue.push(lap), Ok(()));
        assert!(queue.is_full());
        assert_eq!(queue.push(99), Err(99), "a full queue hands the value back");
        assert_eq!(queue.pop(), Some(lap));
        assert_eq!(queue.pop(), None);
    }
    let queue = crossbeam::queue::ArrayQueue::new(3);
    (0..3).for_each(|i| queue.push(i).unwrap());
    assert_eq!((queue.len(), queue.capacity()), (3, 3));
    assert_eq!(
        [queue.pop(), queue.pop(), queue.pop(), queue.pop()],
        [Some(0), Some(1), Some(2), None]
    );
}

#[test]
fn array_queue_loses_and_duplicates_nothing_under_mpmc_contention() {
    const PER_PRODUCER: u64 = 50_000;
    let queue = crossbeam::queue::ArrayQueue::new(16);
    let (taken, sum) = (AtomicU64::new(0), AtomicU64::new(0));
    let start = Barrier::new(4);
    std::thread::scope(|scope| {
        for producer in 0..2u64 {
            let (queue, start) = (&queue, &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..PER_PRODUCER {
                    let mut value = producer * PER_PRODUCER + i + 1;
                    while let Err(back) = queue.push(value) {
                        value = back;
                        std::thread::yield_now();
                    }
                }
            });
        }
        for _ in 0..2 {
            scope.spawn(|| {
                start.wait();
                while taken.load(Ordering::SeqCst) < 2 * PER_PRODUCER {
                    match queue.pop() {
                        Some(value) => {
                            sum.fetch_add(value, Ordering::SeqCst);
                            taken.fetch_add(1, Ordering::SeqCst);
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
    });
    let n = 2 * PER_PRODUCER;
    assert_eq!(taken.load(Ordering::SeqCst), n);
    assert_eq!(sum.load(Ordering::SeqCst), n * (n + 1) / 2, "every value exactly once");
}

#[test]
fn rendezvous_channel_admits_a_message_only_to_a_waiting_receiver() {
    use crossbeam::channel::{bounded, TrySendError};
    let (tx, rx) = bounded::<u32>(0);
    assert!(matches!(tx.try_send(1), Err(TrySendError::Full(1))), "nobody is receiving");
    let receiver = std::thread::spawn(move || rx.recv());
    // The receiver counts as waiting only once it is blocked in recv: retry
    // until the hand-off is admitted (bounded, so a broken channel fails the test).
    let deadline = Instant::now() + Duration::from_secs(10);
    while let Err(TrySendError::Full(_)) = tx.try_send(2) {
        assert!(Instant::now() < deadline, "receiver never became visible");
        std::thread::yield_now();
    }
    assert_eq!(receiver.join().unwrap(), Ok(2));
    assert!(matches!(tx.try_send(3), Err(TrySendError::Disconnected(3))));
}

#[test]
fn bounded_channel_is_full_at_capacity_and_reports_disconnects() {
    use crossbeam::channel::{bounded, unbounded, RecvTimeoutError, TrySendError};
    let (tx, rx) = bounded(2);
    tx.try_send('a').unwrap();
    tx.try_send('b').unwrap();
    assert!(matches!(tx.try_send('c'), Err(TrySendError::Full('c'))));
    assert_eq!(rx.recv(), Ok('a'));
    tx.try_send('c').unwrap();
    let rx2 = rx.clone();
    drop(tx);
    assert_eq!([rx.recv().ok(), rx2.recv().ok(), rx.recv().ok()], [Some('b'), Some('c'), None]);

    let (tx, rx) = unbounded::<u8>();
    assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
    assert!(rx.is_empty());
    drop(tx);
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Err(RecvTimeoutError::Disconnected));
}

#[test]
fn condvar_wakes_on_notify_and_times_out_otherwise() {
    use parking_lot::{Condvar, Mutex};
    let pair = Arc::new((Mutex::new(false), Condvar::new()));
    let mut guard = pair.0.lock();
    assert!(pair.1.wait_until(&mut guard, Instant::now() + Duration::from_millis(5)).timed_out());
    assert!(!*guard, "the guard is usable again after the wait");
    let setter = {
        let pair = Arc::clone(&pair);
        std::thread::spawn(move || {
            *pair.0.lock() = true;
            pair.1.notify_all();
        })
    };
    while !*guard {
        pair.1.wait(&mut guard);
    }
    drop(guard);
    setter.join().unwrap();
    assert!(pair.0.try_lock().is_some());
}

#[test]
fn seeded_rng_is_reproducible_and_respects_ranges() {
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let mut a = rand::rngs::StdRng::seed_from_u64(5);
    let mut b = rand::rngs::StdRng::seed_from_u64(5);
    let mut c = rand::rngs::StdRng::seed_from_u64(6);
    assert_eq!(a.random::<u64>(), b.random::<u64>());
    assert_ne!(a.random::<u64>(), c.random::<u64>());
    let mut seen = [false; 7];
    for _ in 0..2_000 {
        seen[a.random_range(0..7usize)] = true;
        assert!((2..=4).contains(&a.random_range(2..=4u8)));
        assert!((-3..3).contains(&a.random_range(-3..3i64)));
        let x = a.random_range(-1.5..2.5f64);
        assert!((-1.5..2.5).contains(&x));
        assert!((0.0..1.0).contains(&a.random::<f64>()));
    }
    assert!(seen.iter().all(|&s| s), "every value of a small range turns up");
    assert!(!a.random_bool(0.0) && a.random_bool(1.0));
    let mut deck: Vec<u32> = (0..100).collect();
    deck.shuffle(&mut a);
    assert_ne!(deck, (0..100).collect::<Vec<_>>());
    deck.sort_unstable();
    assert_eq!(deck, (0..100).collect::<Vec<_>>());
}

#[test]
fn standard_normal_has_zero_mean_and_unit_variance() {
    use rand::SeedableRng;
    use rand_distr::{Distribution, StandardNormal};
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let draws: Vec<f64> = (0..50_000).map(|_| StandardNormal.sample(&mut rng)).collect();
    let mean = draws.iter().sum::<f64>() / draws.len() as f64;
    let variance = draws.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / draws.len() as f64;
    assert!(mean.abs() < 0.02, "mean {mean}");
    assert!((variance - 1.0).abs() < 0.03, "variance {variance}");
}
