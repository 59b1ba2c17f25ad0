//! The sample statistics every reported number goes through.

use ftr_ledger::stats::{median, percentile, quartiles, spread, Fnv, Hot};

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[3.0]), 3.0);
    assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&ten), (2.75, 8.25));
    // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
    assert_eq!(quartiles(&[30.0, 10.0, 20.0]), (10.0, 30.0));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: extrapolated
    assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    assert!((spread(&ten) - 5.5 / 5.5).abs() < 1e-12);
}

#[test]
fn percentile_is_nearest_rank() {
    let xs: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 50.0), 50.0);
    assert_eq!(percentile(&xs, 99.0), 99.0);
    assert_eq!(percentile(&xs, 100.0), 100.0);
    assert_eq!(percentile(&xs, 0.0), 1.0);
    assert_eq!(percentile(&[4.0, 2.0], 99.0), 4.0);
}

#[test]
fn hot_histogram_buckets_by_log2() {
    let mut h = Hot::default();
    for ns in [0, 1, 2, 3, 1000, 1023, 1024] {
        h.add(ns);
    }
    assert_eq!(h.calls, 7);
    assert_eq!(h.ns, 3053);
    assert_eq!((h.hist[0], h.hist[1], h.hist[9], h.hist[10]), (2, 2, 2, 1));
    // 4th of 7 samples sits in bucket 1: [2, 4) ns
    assert!((2.0..4.0).contains(&h.percentile_ns(50.0)));
    assert!((1024.0..2048.0).contains(&h.percentile_ns(100.0)));
    assert_eq!(Hot::default().percentile_ns(50.0), 0.0);
}

#[test]
fn fnv_digest_depends_on_order_and_value() {
    let digest = |ws: &[u64]| {
        let mut h = Fnv::default();
        ws.iter().for_each(|&w| h.word(w));
        h.0
    };
    assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
    assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
    assert_ne!(digest(&[1, 2]), digest(&[1, 3]));
}
