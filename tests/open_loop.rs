//! Open-loop overload: Poisson callers offer load at a configured rate
//! regardless of how many calls are already outstanding, which is what
//! lets offered load exceed capacity and the goodput-vs-offered curve
//! bend. Closed-loop callers cannot produce a cliff — their arrival rate
//! self-throttles to the completion rate — so these shapes only exist in
//! open-loop mode.
//!
//! Goodput here is deadline-scored, the way the overload-control
//! literature counts it: a call whose INVITE transaction exceeds the
//! setup budget completes (the retransmission machinery eventually gets
//! through) but scores zero.

use siperf::overload::OverloadConfig;
use siperf::proxy::config::Transport;
use siperf::simcore::time::SimDuration;
use siperf::workload::{Scenario, ScenarioReport};

/// Saturation for this topology (300 callees, four server cores) sits
/// near 16k calls/s ≈ 32k ops/s; 18k is just past the knee and 30k is
/// roughly 2× it.
const NEAR_KNEE: f64 = 18_000.0;
const TWICE_KNEE: f64 = 30_000.0;

fn run_open(transport: Transport, policy: OverloadConfig, rate: f64, seed: u64) -> ScenarioReport {
    let mut s = Scenario::builder(format!("open-{transport:?}-{}-{rate}", policy.token()))
        .transport(transport)
        .overload_policy(policy)
        .client_pairs(300)
        .arrival_rate(rate)
        .setup_deadline(SimDuration::from_millis(200))
        .seed(seed)
        .build();
    s.call_start = SimDuration::from_millis(700);
    s.measure_from = SimDuration::from_millis(2000);
    s.measure = SimDuration::from_millis(1500);
    s.run()
}

#[test]
fn open_loop_offers_the_configured_rate_below_saturation() {
    let r = run_open(Transport::Udp, OverloadConfig::NoControl, 6_000.0, 42);
    // The offered rate tracks the Poisson parameter, not the completion
    // rate — the defining property of an open loop.
    let offered = r.offered.per_sec();
    assert!(
        (offered - 6_000.0).abs() < 600.0,
        "offered {offered:.0}/s strays from the configured 6000/s"
    );
    // Below the knee everything completes: goodput is two transactions
    // (INVITE + BYE) per offered call.
    let goodput = r.throughput.per_sec();
    assert!(
        (goodput - 2.0 * offered).abs() < 0.1 * goodput,
        "goodput {goodput:.0}/s is not ~2x offered {offered:.0}/s"
    );
    assert_eq!(r.call_failures, 0);
    assert_eq!(r.calls_late, 0);
    assert!(r.open_calls_peak > 0, "open-loop pool never held a call");
}

#[test]
fn goodput_collapses_past_saturation_without_control() {
    let peak = run_open(Transport::Udp, OverloadConfig::NoControl, NEAR_KNEE, 42);
    let over = run_open(Transport::Udp, OverloadConfig::NoControl, TWICE_KNEE, 42);
    // The uncontrolled proxy still answers every INVITE eventually, but
    // past the knee the socket-buffer backlog pushes setup delay through
    // the deadline: offered load nearly doubles while goodput falls.
    assert!(
        over.offered.per_sec() > 1.5 * peak.offered.per_sec(),
        "overload run did not actually offer more load"
    );
    assert!(
        over.throughput.per_sec() < 0.75 * peak.throughput.per_sec(),
        "no cliff: goodput {:.0}/s at ~2x saturation vs {:.0}/s at the knee",
        over.throughput.per_sec(),
        peak.throughput.per_sec()
    );
    assert!(
        over.calls_late > 10 * peak.calls_late.max(1),
        "the cliff should be made of late calls: {} late at 2x vs {} near the knee",
        over.calls_late,
        peak.calls_late
    );
    // The backlog is visible where it lives: the callers' pools.
    assert!(over.open_calls_peak > 4 * peak.open_calls_peak);
}

#[test]
fn queue_threshold_holds_goodput_past_saturation() {
    let peak = run_open(
        Transport::Udp,
        OverloadConfig::queue_threshold_default(),
        NEAR_KNEE,
        42,
    );
    let over = run_open(
        Transport::Udp,
        OverloadConfig::queue_threshold_default(),
        TWICE_KNEE,
        42,
    );
    // Admission control converts the excess into cheap fast-path 503s
    // instead of queueing delay, so goodput holds near the peak…
    assert!(over.calls_rejected > 0, "no shedding at 2x saturation");
    assert!(
        over.throughput.per_sec() >= 0.85 * peak.throughput.per_sec(),
        "controlled goodput {:.0}/s fell >15% below its peak {:.0}/s",
        over.throughput.per_sec(),
        peak.throughput.per_sec()
    );
    // …and admitted calls still meet their setup deadline.
    assert!(
        over.calls_late * 100 < over.call_attempts,
        "{} of {} admitted calls blew the setup budget",
        over.calls_late,
        over.call_attempts
    );
    // Shed callers retry after their jittered Retry-After backoff.
    assert!(over.rejection_retries > 0, "no retries after 503 backoff");
}

#[test]
fn open_loop_runs_are_seed_deterministic() {
    // Past saturation with shedding active, every subsystem is exercised:
    // Poisson arrivals, retransmissions, fast-path 503s, jittered retry
    // backoff. Two same-seed runs must still agree byte for byte.
    let a = run_open(
        Transport::Udp,
        OverloadConfig::queue_threshold_default(),
        24_000.0,
        7,
    );
    let b = run_open(
        Transport::Udp,
        OverloadConfig::queue_threshold_default(),
        24_000.0,
        7,
    );
    assert_eq!(a.fingerprint(), b.fingerprint());

    // A different seed reshuffles arrivals and jitter: the digest moves.
    let c = run_open(
        Transport::Udp,
        OverloadConfig::queue_threshold_default(),
        24_000.0,
        8,
    );
    assert_ne!(a.fingerprint(), c.fingerprint());
}

#[test]
fn open_loop_works_over_reliable_transports() {
    for transport in [Transport::Tcp, Transport::Sctp] {
        let r = run_open(transport, OverloadConfig::NoControl, 3_000.0, 42);
        let offered = r.offered.per_sec();
        assert!(
            (offered - 3_000.0).abs() < 450.0,
            "{transport:?}: offered {offered:.0}/s strays from the configured 3000/s"
        );
        assert!(
            r.throughput.per_sec() > 1.5 * offered,
            "{transport:?}: goodput {:.0}/s under open loop",
            r.throughput.per_sec()
        );
        assert_eq!(r.call_failures, 0, "{transport:?}: open-loop calls failed");
    }
}

#[test]
fn tcp_caller_handles_every_response_of_a_read_that_reconnects() {
    // An open-loop caller holds many calls, so one read often frames
    // several responses. When one of them completes the operation that
    // trips the reconnect policy, the rest of the read must still be
    // handled: a dropped 200 strands its call until Timer B (32 s).
    const RATE: f64 = 2_000.0;
    let mut s = Scenario::builder("open-tcp-reconnect-every-op")
        .transport(Transport::Tcp)
        .client_pairs(20)
        .arrival_rate(RATE)
        .ops_per_conn(1)
        .seed(42)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(800);
    s.measure = SimDuration::from_millis(500);
    let mut world = s.build_world();
    s.drive(&mut world);
    let w = world.stats.borrow();
    assert!(w.reconnects > 1_000, "only {} reconnects", w.reconnects);
    // A reconnect is counted once, however many responses of the read
    // want it: each count is one connection beside every phone's first
    // and the proxy's own.
    let first = (s.pairs + s.client_hosts) as u64;
    let outbound = world.proxy.stats().outbound_connects;
    assert_eq!(
        world.kernel.net().stats().tcp_established,
        first + w.reconnects + outbound
    );
    let ended = w.bye_ok + w.call_failures + w.calls_cancelled + w.calls_rejected;
    let open = w.call_attempts - ended;
    // A call takes a few ms here, so only the last 10 ms of arrivals may
    // still be open when the run stops.
    assert!(
        open as f64 <= RATE * 0.010,
        "{open} of {} calls are still open",
        w.call_attempts
    );
}
