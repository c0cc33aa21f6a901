//! Chaos suite: scripted fault storms against every transport.
//!
//! Each storm is the canonical trio from [`FaultSchedule::storm`] — a
//! Gilbert–Elliott burst-loss episode, one worker crash, and one TCP
//! connection reset — applied mid-window with enough clean tail for the
//! system to heal. The assertions encode the robustness contract:
//!
//! 1. the run *completes* with a call-failure ratio under 20%,
//! 2. nothing leaks — server descriptors return to the healthy baseline,
//! 3. the whole ordeal is deterministic — two same-seed runs produce
//!    byte-identical reports (modulo wall-clock time).

use siperf::faults::{Fault, FaultSchedule};
use siperf::proxy::config::{ProxyConfig, Transport};
use siperf::simcore::time::SimDuration;
use siperf::simnet::HostId;
use siperf::workload::{Scenario, ScenarioReport};

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

/// A short paper-shaped run with the measurement window at [1.2 s, 8.2 s).
fn chaos_scenario(transport: Transport, seed: u64, faults: FaultSchedule) -> Scenario {
    let mut s = Scenario::builder(format!("chaos-{transport:?}"))
        .transport(transport)
        .client_pairs(6)
        .seed(seed)
        .fault_schedule(faults)
        .build();
    s.call_start = ms(600);
    s.measure_from = ms(1200);
    s.measure = SimDuration::from_secs(7);
    s
}

/// The canonical storm, scattered over [2.5 s, 5.5 s): heals no later than
/// ~7 s, leaving over a second of clean tail before the window closes.
fn storm(transport: Transport, seed: u64) -> FaultSchedule {
    let workers = ProxyConfig::paper(transport).worker_count();
    FaultSchedule::storm(seed, ms(2500), ms(3000), workers, HostId(0))
}

fn run_storm(transport: Transport, seed: u64) -> ScenarioReport {
    chaos_scenario(transport, seed, storm(transport, seed)).run()
}

fn assert_storm_survived(report: &ScenarioReport, transport: Transport) {
    assert!(
        report.ops_total > 0,
        "{transport:?}: no operations completed"
    );
    let ratio = report.call_failures as f64 / report.call_attempts.max(1) as f64;
    assert!(
        ratio < 0.2,
        "{transport:?}: {:.0}% of calls failed under the storm \
         ({} of {})",
        ratio * 100.0,
        report.call_failures,
        report.call_attempts
    );
    // Burst loss and the worker crash always apply; the connection reset
    // only finds a victim on connection-oriented transports.
    let expected_faults = if transport == Transport::Tcp { 3 } else { 2 };
    assert_eq!(
        report.faults_injected, expected_faults,
        "{transport:?}: wrong number of faults applied"
    );
    assert_eq!(
        report.workers_respawned, 1,
        "{transport:?}: crash not applied"
    );
    assert_eq!(report.proxy.workers_respawned, 1);
    if transport == Transport::Tcp {
        assert_eq!(
            report.connections_reset, 1,
            "{transport:?}: reset not applied"
        );
        assert!(report.net.tcp_resets >= 1);
    }
    assert!(
        report.net.fault_drops + report.net.fault_delays > 0,
        "burst had no effect"
    );
}

/// After the heal the server must hold no more descriptors than a healthy
/// same-seed run, give or take reconnect timing — nothing leaks.
fn assert_no_leaks(report: &ScenarioReport, transport: Transport, seed: u64) {
    let clean = chaos_scenario(transport, seed, FaultSchedule::new()).run();
    assert!(
        report.server_endpoints <= clean.server_endpoints + 4,
        "{transport:?}: {} endpoints after the storm vs {} healthy — leaked descriptors",
        report.server_endpoints,
        clean.server_endpoints
    );
    assert!(
        report.server_time_wait <= clean.server_time_wait + 4,
        "{transport:?}: TIME_WAIT grew from {} to {}",
        clean.server_time_wait,
        report.server_time_wait
    );
    assert!(
        report.open_conns <= clean.open_conns + 4,
        "{transport:?}: connection table grew from {} to {}",
        clean.open_conns,
        report.open_conns
    );
}

fn assert_deterministic(transport: Transport, seed: u64) {
    let a = run_storm(transport, seed);
    let b = run_storm(transport, seed);
    assert_eq!(
        a.fingerprint(),
        b.fingerprint(),
        "{transport:?}: same-seed chaos runs diverged"
    );
}

#[test]
fn udp_survives_the_canonical_storm() {
    let report = run_storm(Transport::Udp, 11);
    assert_storm_survived(&report, Transport::Udp);
    assert_no_leaks(&report, Transport::Udp, 11);
}

#[test]
fn tcp_survives_the_canonical_storm() {
    let report = run_storm(Transport::Tcp, 11);
    assert_storm_survived(&report, Transport::Tcp);
    assert_no_leaks(&report, Transport::Tcp, 11);
    // The reset phone reconnected and re-drove its in-flight call.
    assert!(
        report.recovered_calls >= 1 || report.call_failures == 0,
        "reset mid-call neither recovered nor was harmless"
    );
}

#[test]
fn sctp_survives_the_canonical_storm() {
    let report = run_storm(Transport::Sctp, 11);
    assert_storm_survived(&report, Transport::Sctp);
    assert_no_leaks(&report, Transport::Sctp, 11);
}

#[test]
fn chaos_runs_are_deterministic_per_seed() {
    assert_deterministic(Transport::Udp, 23);
    assert_deterministic(Transport::Tcp, 23);
    assert_deterministic(Transport::Sctp, 23);
}

#[test]
fn tcp_supervisor_crash_recovers() {
    let faults = FaultSchedule::new().at(ms(3000), Fault::KillSupervisor);
    let scenario = chaos_scenario(Transport::Tcp, 7, faults);
    let pairs = scenario.pairs;
    let report = scenario.run();
    assert_eq!(report.workers_respawned, 1, "supervisor crash not applied");
    assert!(report.ops_total > 0);
    let ratio = report.call_failures as f64 / report.call_attempts.max(1) as f64;
    assert!(
        ratio < 0.2,
        "supervisor crash sank {:.0}% of calls",
        ratio * 100.0
    );
    // The fresh supervisor re-learns the workers' descriptors; otherwise
    // every forward to a phone misses and opens a new connection.
    assert!(
        report.proxy.outbound_connects <= 2 * pairs as u64,
        "connection storm after the restart: {} outbound connects",
        report.proxy.outbound_connects
    );
    assert!(
        report.open_conns <= 4 * pairs,
        "{} connections open after the restart",
        report.open_conns
    );
}

#[test]
fn tcp_fd_cache_survives_resets() {
    // §5.2's per-worker descriptor cache holds fds for peers; a reset must
    // invalidate the stale entry (via the conn-death sweep) rather than
    // keep serving a dead descriptor.
    let mut s = chaos_scenario(Transport::Tcp, 19, storm(Transport::Tcp, 19));
    s.proxy = ProxyConfig::paper(Transport::Tcp).with_fd_cache();
    let report = s.run();
    assert_storm_survived(&report, Transport::Tcp);
    assert!(report.proxy.fd_cache_hits > 0, "cache never engaged");
}
