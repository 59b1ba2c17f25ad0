//! Cross-validation of the offline reconstruction against the engine:
//! on a deterministic traced run, the journey book's counts, latency
//! tally, hop tally and step tally must equal `SimStats` *exactly* —
//! field for field, not approximately. Any divergence means either the
//! trace stream or the reconstruction rules drifted from the engine's
//! accounting, which is precisely what this test is here to catch.

use ftr_algos::Nafta;
use ftr_obs::RingSink;
use ftr_sim::{FaultPlan, Network, Pattern, RetryPolicy, TrafficSource};
use ftr_topo::Mesh2D;
use ftr_trace::{JourneyBook, Outcome, TraceReport};
use std::sync::Arc;

/// A 6x6 NAFTA run with transient link faults, repairs and source
/// retransmission — every dynamic-lifecycle path the tracer must get
/// right (kills, retries, abandonment, misrouting).
fn faulty_traced_run(seed: u64) -> (Network, Arc<RingSink>) {
    let mesh = Mesh2D::new(6, 6);
    let plan = FaultPlan::random_transient_links(&mesh, 10, 200..900, 150, seed);
    let sink = Arc::new(RingSink::new(1 << 22));
    let mut net = Network::builder(Arc::new(mesh.clone()))
        .trace(sink.clone())
        .fault_plan(plan)
        .retry(RetryPolicy { max_attempts: 2, backoff_cycles: 64 })
        .build(&Nafta::new(mesh.clone()))
        .expect("valid config");
    // measure from the first injection: the trace sees every message, so
    // the stats must too for the tallies to be comparable
    net.set_measuring(true);
    let mut tf = TrafficSource::new(Pattern::Uniform, 0.2, 16, seed ^ 0xabcd);
    for _ in 0..1_200u64 {
        for (s, d, l) in tf.tick(&mesh, net.faults()) {
            let _ = net.send(s, d, l); // endpoint faults reject, not panic
        }
        net.step();
    }
    assert!(net.drain(60_000), "run must drain");
    (net, sink)
}

#[test]
fn reconstruction_equals_engine_stats_exactly() {
    let (net, sink) = faulty_traced_run(977);
    assert_eq!(sink.dropped(), 0, "ring must hold the full trace");

    let mut book = JourneyBook::new();
    let events = sink.events();
    book.fold_all(&events);

    assert_eq!(book.orphans(), 0, "complete trace has no orphans");
    assert!(book.anomalies().is_empty(), "anomalies: {:?}", book.anomalies());

    let s = book.summary();
    let st = &net.stats;
    // the run must actually exercise the interesting paths
    assert!(st.killed_msgs + st.unroutable_msgs > 0, "faults had casualties");
    assert!(st.retried_msgs > 0, "retries happened");

    assert_eq!(s.injected, st.injected_msgs, "injected");
    assert_eq!(s.delivered, st.delivered_msgs, "delivered");
    assert_eq!(s.killed, st.killed_msgs, "killed (final, incl. abandoned)");
    assert_eq!(s.unroutable, st.unroutable_msgs, "unroutable (final)");
    assert_eq!(s.retried, st.retried_msgs, "retry events");
    assert_eq!(s.rejected_sends, st.rejected_sends, "rejected sends");
    assert_eq!(s.in_flight, 0, "drained run leaves nothing open");

    // exact tally equality: count, sum, min, max
    assert_eq!(
        (s.latency.count, s.latency.sum, s.latency.min, s.latency.max),
        (st.latency.count, st.latency.sum, st.latency.min, st.latency.max),
        "latency tally"
    );
    assert_eq!(
        (s.hops.count, s.hops.sum, s.hops.min, s.hops.max),
        (st.hops.count, st.hops.sum, st.hops.min, st.hops.max),
        "hops tally"
    );
    assert_eq!(
        (s.steps.count, s.steps.sum, s.steps.min, s.steps.max),
        (
            st.decision_steps.count,
            st.decision_steps.sum,
            st.decision_steps.min,
            st.decision_steps.max
        ),
        "decision-steps tally"
    );

    // attribution is a true partition of total latency, in aggregate and
    // per journey
    let a = &s.attribution;
    assert_eq!(a.total, st.latency.sum, "attributed cycles == total latency");
    assert_eq!(
        a.src_queue + a.retry_backoff + a.blocked + a.transit,
        a.total,
        "buckets partition the total"
    );
    for j in book.journeys() {
        if let Some(at) = j.attribution() {
            assert_eq!(
                at.src_queue + at.retry_backoff + at.blocked + at.transit,
                at.total,
                "msg {}: per-journey partition",
                j.msg
            );
            assert!(
                at.transit >= j.hops().unwrap_or(0),
                "msg {}: transit covers at least one cycle per hop",
                j.msg
            );
        }
    }

    // faults and repairs from the plan all show up
    assert_eq!(book.fault_events(), 10);
    assert_eq!(book.repair_events(), 10);
}

#[test]
fn retried_journeys_carry_their_attempt_history() {
    let (net, sink) = faulty_traced_run(977);
    assert_eq!(sink.dropped(), 0);
    let mut book = JourneyBook::new();
    book.fold_all(&sink.events());
    assert!(net.stats.retried_msgs > 0);

    let mut retried_then_delivered = 0u64;
    let mut backoff_total = 0u64;
    for j in book.journeys() {
        if j.retries() == 0 {
            continue;
        }
        // attempt numbers are consecutive from 1
        for (i, a) in j.attempts.iter().enumerate() {
            assert_eq!(a.number as usize, i + 1, "msg {}: attempt numbering", j.msg);
        }
        if let (Outcome::Delivered { .. }, Some(at)) = (j.outcome, j.attribution()) {
            retried_then_delivered += 1;
            // a retry waits out the configured backoff, so the bucket
            // grows by >= backoff_cycles per re-injection
            assert!(
                at.retry_backoff >= 64 * j.retries() as u64,
                "msg {}: backoff {} < 64 * {}",
                j.msg,
                at.retry_backoff,
                j.retries()
            );
            backoff_total += at.retry_backoff;
        }
    }
    assert!(retried_then_delivered > 0, "some retried messages must deliver");
    assert!(backoff_total > 0);
}

#[test]
fn report_over_live_trace_validates_and_matches_stats() {
    let (net, sink) = faulty_traced_run(31);
    let mut book = JourneyBook::new();
    book.fold_all(&sink.events());
    let report = TraceReport::build(&book, None, 8);

    let payload = report.to_json();
    ftr_obs::json::validate(&payload).expect("report JSON is valid");
    let v = ftr_obs::json::parse(&payload).expect("report JSON parses");
    let field = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or_else(|| panic!("field {k}"));
    assert_eq!(field("injected"), net.stats.injected_msgs);
    assert_eq!(field("delivered"), net.stats.delivered_msgs);
    assert_eq!(field("killed"), net.stats.killed_msgs);
    assert_eq!(field("retried"), net.stats.retried_msgs);
    let lat = v.get("latency").expect("latency object");
    assert_eq!(lat.get("sum").and_then(|x| x.as_u64()), Some(net.stats.latency.sum));

    // channel utilization is physically bounded by the wall clock
    let (first, last) = book.span().expect("non-empty trace");
    for (key, ch) in book.channels() {
        assert!(ch.busy_cycles <= last - first, "channel {key:?} busy longer than the run");
    }
    let text = report.human_summary();
    assert!(text.contains("deadlock: none suspected"), "{text}");
}
