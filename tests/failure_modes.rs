//! Failure-mode reproduction: the §6 blocking-IPC deadlock, the §4.3
//! descriptor/port starvation at 120 s idle timeouts, and stateful-proxy
//! recovery on a lossy network.

use siperf::faults::{Fault, FaultSchedule};
use siperf::proxy::config::{Arch, ProxyConfig, Transport};
use siperf::simcore::time::{SimDuration, SimTime};
use siperf::simnet::{HostId, NetConfig};
use siperf::workload::Scenario;

#[test]
fn stateful_proxy_recovers_lossy_udp() {
    let mut net = NetConfig::lan();
    net.udp_loss = 0.03; // 3% loss: brutal for SIP without retransmission
    let mut s = Scenario::builder("lossy-udp")
        .transport(Transport::Udp)
        .client_pairs(6)
        .net(net)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(1200);
    s.measure = SimDuration::from_secs(3);
    let report = s.run();

    assert!(report.net.udp_lost > 0, "the loss model must have fired");
    assert!(
        report.phone_retransmits > 0 || report.proxy.retransmits_sent > 0,
        "someone must have retransmitted"
    );
    // Despite loss, the overwhelming majority of calls complete: phones
    // retransmit INVITEs and the stateful proxy retransmits forwards.
    assert!(report.ops_total > 0);
    let failure_ratio = report.call_failures as f64 / report.call_attempts.max(1) as f64;
    assert!(
        failure_ratio < 0.2,
        "reliability machinery failed: {:.0}% of calls lost",
        failure_ratio * 100.0
    );
}

#[test]
fn bounded_ipc_deadlocks_the_supervisor_architecture() {
    // §6: "When a worker process requests a connection from the supervisor
    // process, it then blocks waiting to receive that file descriptor. If,
    // at the same time, the supervisor process blocks waiting to send a new
    // connection to the same worker (since the buffer at the receiver is
    // full), the two processes will deadlock."
    //
    // A one-slot assignment buffer plus a burst of new connections makes
    // this near-certain: workers sit in blocking receives for fd responses
    // while the supervisor sits in a blocking send of an assignment.
    // Connection churn keeps assignments flowing while workers hold
    // outstanding fd requests — the two halves of the cycle.
    let mut proxy = ProxyConfig::paper(Transport::Tcp);
    proxy.ipc_capacity = 1;
    proxy.workers = Some(2);
    let mut s = Scenario::builder("deadlock")
        .proxy(proxy)
        .client_pairs(40)
        .ops_per_conn(5)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(800);
    s.measure = SimDuration::from_secs(2);

    let mut world = s.build_world();
    world
        .kernel
        .run_until(SimTime::ZERO + SimDuration::from_secs(3));

    let cycle = world.kernel.find_ipc_deadlock();
    assert!(
        cycle.is_some(),
        "expected the §6 supervisor/worker deadlock; blocked: {:?}",
        world.kernel.blocked_summary()
    );
    let cycle = cycle.unwrap();
    let names: Vec<&str> = cycle
        .iter()
        .map(|&pid| world.kernel.proc_name(pid))
        .collect();
    assert!(
        names.iter().any(|n| n.contains("tcp_main")),
        "the supervisor is part of the cycle: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.contains("tcp_worker")),
        "a worker is part of the cycle: {names:?}"
    );
    // Once deadlocked, the proxy serves nothing.
    let report = s.report(&world);
    assert!(
        report.throughput.per_sec() < 500.0,
        "a deadlocked proxy cannot sustain throughput"
    );
}

#[test]
fn generous_ipc_buffers_avoid_the_deadlock() {
    // The identical burst with OpenSER-sized buffers completes fine.
    let mut proxy = ProxyConfig::paper(Transport::Tcp);
    proxy.ipc_capacity = 256;
    proxy.workers = Some(2);
    let mut s = Scenario::builder("no-deadlock")
        .proxy(proxy)
        .client_pairs(40)
        .ops_per_conn(5)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(800);
    s.measure = SimDuration::from_secs(1);
    let mut world = s.build_world();
    world.kernel.run_until(s.window().1);
    assert!(world.kernel.find_ipc_deadlock().is_none());
    let report = s.report(&world);
    assert!(report.throughput.per_sec() > 100.0);
}

/// Runs the churny reconnect workload against a server with a bounded
/// descriptor budget and the given idle timeout, returning (connect
/// errors, throughput, live server sockets at the end).
fn starvation_run(idle_timeout: SimDuration) -> (u64, f64, usize) {
    let mut net = NetConfig::lan();
    net.max_endpoints_per_host = 700;
    let mut proxy = ProxyConfig::paper(Transport::Tcp).with_fd_cache();
    proxy.idle_timeout = idle_timeout;
    let mut s = Scenario::builder(format!("starvation-{idle_timeout}"))
        .proxy(proxy)
        .client_pairs(8)
        .ops_per_conn(10)
        .net(net)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(1000);
    s.measure = SimDuration::from_secs(4);
    let report = s.run();
    (
        report.connect_errors,
        report.throughput.per_sec(),
        report.server_endpoints,
    )
}

#[test]
fn long_idle_timeouts_starve_the_descriptor_budget() {
    // §4.3: with the 120 s default, abandoned connections accumulate until
    // the server runs out of descriptors; the paper had to drop the timeout
    // to 10 s. At test scale the churn is proportionally faster, so the
    // "good" timeout is scaled down too — same mechanism, compressed clock.
    let (errs_long, tput_long, open_long) = starvation_run(SimDuration::from_secs(120));
    let (errs_short, tput_short, open_short) = starvation_run(SimDuration::from_millis(250));

    assert!(
        errs_long > 0,
        "120 s timeout must exhaust the budget (open sockets: {open_long})"
    );
    assert!(
        errs_short < errs_long / 4,
        "aggressive closing avoids starvation: {errs_short} vs {errs_long}"
    );
    assert!(open_long > open_short);
    assert!(
        tput_short > 2.0 * tput_long,
        "starvation costs throughput: {tput_short} vs {tput_long}"
    );
}

/// Crashes one worker in the middle of the call phase and lets the
/// supervisor/respawn machinery pick up the pieces: orphaned connections
/// are re-announced to the replacement (TCP), shared sockets are re-dup'd
/// from a sibling (UDP/SCTP), and phones re-drive disturbed calls.
fn worker_crash_run(transport: Transport) -> siperf::workload::ScenarioReport {
    let faults = FaultSchedule::new().at(
        SimDuration::from_millis(3000),
        Fault::KillWorker { index: 2 },
    );
    let mut s = Scenario::builder(format!("crash-{transport:?}"))
        .transport(transport)
        .client_pairs(6)
        .fault_schedule(faults)
        .build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(1200);
    s.measure = SimDuration::from_secs(4);
    s.run()
}

fn assert_crash_tolerated(report: &siperf::workload::ScenarioReport, transport: Transport) {
    assert_eq!(
        report.workers_respawned, 1,
        "{transport:?}: crash not applied"
    );
    assert!(report.ops_total > 0, "{transport:?}: nothing completed");
    let failure_ratio = report.call_failures as f64 / report.call_attempts.max(1) as f64;
    assert!(
        failure_ratio < 0.2,
        "{transport:?}: a single worker crash sank {:.0}% of calls",
        failure_ratio * 100.0
    );
}

#[test]
fn udp_tolerates_a_mid_call_worker_crash() {
    let report = worker_crash_run(Transport::Udp);
    assert_crash_tolerated(&report, Transport::Udp);
}

#[test]
fn tcp_tolerates_a_mid_call_worker_crash() {
    let report = worker_crash_run(Transport::Tcp);
    assert_crash_tolerated(&report, Transport::Tcp);
    // The replacement worker inherits the crashed worker's connections.
    assert!(
        report.proxy.conns_reassigned > 0 || report.open_conns > 0,
        "supervisor re-announced no connections"
    );
}

#[test]
fn sctp_tolerates_a_mid_call_worker_crash() {
    let report = worker_crash_run(Transport::Sctp);
    assert_crash_tolerated(&report, Transport::Sctp);
}

/// One pair against the threaded server over a 2–4 s window, with worker
/// thread 0 killed at 1.5 s or left alone.
fn threaded_crash_run(crash: bool) -> siperf::workload::ScenarioReport {
    let mut proxy = ProxyConfig::paper(Transport::Tcp);
    proxy.arch = Arch::MultiThread;
    let mut faults = FaultSchedule::new();
    if crash {
        let at = SimDuration::from_millis(1500);
        faults = faults.at(at, Fault::KillWorker { index: 0 });
    }
    let mut s = Scenario::builder(format!("threaded-crash-{crash}"))
        .proxy(proxy)
        .client_pairs(1)
        .fault_schedule(faults)
        .build();
    s.measure_from = SimDuration::from_secs(2);
    s.measure = SimDuration::from_secs(2);
    s.run()
}

/// A respawned worker thread starts with nothing to read; the acceptor
/// must hand it the dead thread's connections, or every call routed over
/// them stalls.
#[test]
fn threaded_worker_crash_hands_connections_to_the_replacement() {
    let clean = threaded_crash_run(false);
    let crashed = threaded_crash_run(true);
    assert_eq!(crashed.workers_respawned, 1, "crash not applied");
    assert!(
        crashed.proxy.conns_reassigned > 0,
        "acceptor re-announced no connections"
    );
    let (before, after) = (clean.throughput.per_sec(), crashed.throughput.per_sec());
    assert!(
        after >= 0.8 * before,
        "throughput after the crash: {after:.0} ops/s vs {before:.0} without it"
    );
}

/// A datagram phone whose REGISTER never gets through hits Timer F and
/// gives up, counted as a connect error, instead of panicking the run.
#[test]
fn udp_phone_gives_up_registering_behind_a_partition() {
    // Host 1 holds the caller; the partition outlasts Timer F (32 s).
    let faults = FaultSchedule::new().at(
        SimDuration::ZERO,
        Fault::Partition {
            a: HostId(0),
            b: HostId(1),
            heal_after: SimDuration::from_secs(40),
        },
    );
    let mut s = Scenario::builder("unreachable-registrar")
        .transport(Transport::Udp)
        .client_pairs(1)
        .fault_schedule(faults)
        .build();
    s.measure_from = SimDuration::from_secs(2);
    s.measure = SimDuration::from_millis(31_500);
    let report = s.run();
    assert_eq!(report.registered, 1, "only the callee registers");
    assert_eq!(report.connect_errors, 1, "the caller counts its give-up");
    assert_eq!(report.call_attempts, 0);
}

/// A TCP phone whose REGISTER sits in a frozen accept queue reconnects
/// and registers again at each Timer F, and gives up after a bounded
/// number of attempts, counted as a connect error.
#[test]
fn tcp_phone_re_registers_through_an_accept_freeze_and_then_gives_up() {
    let frozen_for = |secs, measure_secs| {
        let faults = FaultSchedule::new().at(
            SimDuration::ZERO,
            Fault::AcceptFreeze {
                host: HostId(0),
                duration: SimDuration::from_secs(secs),
            },
        );
        let mut s = Scenario::builder("frozen-registrar")
            .transport(Transport::Tcp)
            .client_pairs(1)
            .fault_schedule(faults)
            .build();
        s.measure_from = SimDuration::from_secs(2);
        s.measure = SimDuration::from_secs(measure_secs);
        s.run()
    };
    // The thaw comes during the second attempt: both phones register.
    let thawed = frozen_for(40, 60);
    assert_eq!(thawed.registered, 2, "both phones register after the thaw");
    assert_eq!(thawed.connect_errors, 0);
    // Five attempts of 32 s each end before a 200 s freeze does.
    let frozen = frozen_for(200, 170);
    assert_eq!(frozen.registered, 0, "no REGISTER is ever accepted");
    assert_eq!(frozen.connect_errors, 2, "each phone counts its give-up");
    assert_eq!(frozen.call_attempts, 0);
}
