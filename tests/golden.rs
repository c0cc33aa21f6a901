//! Golden fingerprints: the gate for "no simulated number changed".
//!
//! Each scenario below is small (≤20 pairs, a 0.5 s call phase) but runs
//! the whole stack — kernel, network, proxy, phones — and digests
//! `ScenarioReport::fingerprint()` with 64-bit FNV-1a. A refactor or a
//! speed change must leave every hash as committed here; a deliberate
//! re-baseline updates them in a commit that changes nothing else and says
//! why.

use siperf::faults::{Fault, FaultSchedule};
use siperf::overload::OverloadConfig;
use siperf::proxy::config::{Arch, IdleStrategy, ProxyConfig, Transport};
use siperf::simcore::time::SimDuration;
use siperf::simnet::{GilbertElliott, HostId, NetConfig};
use siperf::workload::{Scenario, ScenarioBuilder, ScenarioReport};

/// The committed digests, one per scenario name.
const GOLDEN: [(&str, u64); 21] = [
    ("udp", 0x10b0_4ede_e844_0bb4),
    ("tcp-baseline", 0xbdfb_196f_3992_359e),
    ("tcp-fdcache-pq-churn", 0x43cb_fd5c_3508_f829),
    ("sctp", 0x7134_08ac_4cb1_dd32),
    ("threaded", 0x74c9_1f5d_d41c_1cef),
    ("open-loop-udp-shed", 0x55f3_c12a_508b_1de6),
    ("udp-cancel", 0xe2ab_5f37_80fe_ed11),
    ("tcp-reset", 0xe876_ef4c_4bc8_1be5),
    ("open-loop-tcp", 0x7ad8_423a_607d_0341),
    ("tcp-idle-expiry", 0x9cdf_c617_9150_5871),
    ("threaded-linear-expiry", 0x971c_b0c5_32e2_d03f),
    ("sctp-kill-worker", 0x320d_2111_222e_42f7),
    ("threaded-kill-worker", 0x9b06_6687_9a77_ec5d),
    ("threaded-reset", 0x0f37_3717_31eb_e1fe),
    ("tcp-kill-supervisor", 0x3795_5ff0_e7a4_db9d),
    ("tcp-cancel", 0x1ece_f027_7c4f_9b8b),
    ("udp-lossy", 0x1cea_a758_8521_0a48),
    ("sctp-burst-loss", 0xa044_d811_f97c_9e04),
    ("udp-kill-sole-worker", 0x207d_eba2_83a2_f417),
    ("tcp-pq-expiry", 0x0913_25d1_82ce_3843),
    ("threaded-pq-expiry", 0xa393_43f2_4cb6_0be1),
];

/// 64-bit FNV-1a, the same digest the benchmark reports as
/// `sim_fingerprint`.
fn fnv1a64(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Registration until 600 ms, then a 0.5 s call phase.
fn short(builder: ScenarioBuilder) -> Scenario {
    let mut s = builder.seed(7).build();
    s.call_start = SimDuration::from_millis(600);
    s.measure_from = SimDuration::from_millis(800);
    s.measure = SimDuration::from_millis(300);
    s
}

fn scenario(name: &str) -> Scenario {
    let tcp_fixed = || {
        ProxyConfig::paper(Transport::Tcp)
            .with_fd_cache()
            .with_priority_queue()
    };
    // A short idle timeout, so connections expire inside the call phase:
    // worker return, supervisor destroy and outbound connects all run.
    // (100 ms would idle everything out before the first call.)
    let expiring = |arch, idle_strategy| {
        let mut proxy = ProxyConfig::paper(Transport::Tcp);
        proxy.arch = arch;
        proxy.idle_strategy = idle_strategy;
        proxy.idle_timeout = SimDuration::from_millis(250);
        proxy
    };
    // A worker crash, then a reset while the respawn notice may still be
    // queued behind a ready listener: pins the manager's ordering.
    let kill_then_reset = || {
        FaultSchedule::new()
            .at(
                SimDuration::from_millis(650),
                Fault::KillWorker { index: 1 },
            )
            .at(
                SimDuration::from_millis(700),
                Fault::TcpReset {
                    host: HostId(0),
                    nth: 1,
                },
            )
    };
    // A burst-loss episode across the first half of the call phase.
    let burst = || {
        FaultSchedule::new().at(
            SimDuration::from_millis(650),
            Fault::BurstLoss {
                model: GilbertElliott::bursty(),
                duration: SimDuration::from_millis(200),
            },
        )
    };
    let b = Scenario::builder(name);
    short(match name {
        "udp" => b.transport(Transport::Udp).client_pairs(10),
        "tcp-baseline" => b.proxy(ProxyConfig::paper(Transport::Tcp)).client_pairs(10),
        "tcp-fdcache-pq-churn" => b.proxy(tcp_fixed()).client_pairs(10).ops_per_conn(3),
        "sctp" => b.transport(Transport::Sctp).client_pairs(10),
        "threaded" => {
            let mut proxy = tcp_fixed();
            proxy.arch = Arch::MultiThread;
            b.proxy(proxy).client_pairs(10)
        }
        "open-loop-udp-shed" => b
            .transport(Transport::Udp)
            .overload_policy(OverloadConfig::QueueThreshold {
                high: 40,
                low: 20,
                retry_after: 1,
            })
            .client_pairs(20)
            .arrival_rate(30_000.0)
            .setup_deadline(SimDuration::from_millis(200)),
        "udp-cancel" => b
            .transport(Transport::Udp)
            .client_pairs(8)
            .cancel_every(3)
            .ring_delay(SimDuration::from_millis(20)),
        "tcp-reset" => b
            .transport(Transport::Tcp)
            .client_pairs(10)
            .fault_schedule(kill_then_reset()),
        "open-loop-tcp" => b
            .transport(Transport::Tcp)
            .client_pairs(20)
            .arrival_rate(8_000.0)
            .setup_deadline(SimDuration::from_millis(200)),
        "tcp-idle-expiry" => b
            .proxy(expiring(Arch::MultiProcess, IdleStrategy::LinearScan))
            .client_pairs(10)
            .ops_per_conn(3),
        "threaded-linear-expiry" => b
            .proxy(expiring(Arch::MultiThread, IdleStrategy::LinearScan))
            .client_pairs(10)
            .ops_per_conn(3),
        // The same expiry under the priority queues: the supervisor's and
        // the workers' queues pop live entries, not only stale ones.
        "tcp-pq-expiry" => b
            .proxy(expiring(Arch::MultiProcess, IdleStrategy::PriorityQueue).with_fd_cache())
            .client_pairs(10)
            .ops_per_conn(3),
        "threaded-pq-expiry" => b
            .proxy(expiring(Arch::MultiThread, IdleStrategy::PriorityQueue))
            .client_pairs(10)
            .ops_per_conn(3),
        // The only worker dies, and the SIP socket closes with it: the
        // replacement binds it anew.
        "udp-kill-sole-worker" => {
            let mut proxy = ProxyConfig::paper(Transport::Udp);
            proxy.workers = Some(1);
            b.proxy(proxy)
                .client_pairs(10)
                .fault_schedule(FaultSchedule::new().at(
                    SimDuration::from_millis(700),
                    Fault::KillWorker { index: 0 },
                ))
        }
        "sctp-kill-worker" => b
            .transport(Transport::Sctp)
            .client_pairs(10)
            .fault_schedule(FaultSchedule::new().at(
                SimDuration::from_millis(800),
                Fault::KillWorker { index: 1 },
            )),
        "threaded-kill-worker" => {
            let mut proxy = ProxyConfig::paper(Transport::Tcp);
            proxy.arch = Arch::MultiThread;
            b.proxy(proxy)
                .client_pairs(10)
                .fault_schedule(FaultSchedule::new().at(
                    SimDuration::from_millis(800),
                    Fault::KillWorker { index: 1 },
                ))
        }
        "threaded-reset" => {
            let mut proxy = ProxyConfig::paper(Transport::Tcp);
            proxy.arch = Arch::MultiThread;
            b.proxy(proxy)
                .client_pairs(10)
                .fault_schedule(kill_then_reset())
        }
        "tcp-kill-supervisor" => b.transport(Transport::Tcp).client_pairs(10).fault_schedule(
            FaultSchedule::new().at(SimDuration::from_millis(700), Fault::KillSupervisor),
        ),
        // The only case where a TCP callee holds a delayed 200 on a
        // connection.
        "tcp-cancel" => b
            .transport(Transport::Tcp)
            .client_pairs(8)
            .cancel_every(3)
            .ring_delay(SimDuration::from_millis(20)),
        // UDP's send rule: uniform loss and link drops.
        "udp-lossy" => {
            let mut net = NetConfig::lan();
            net.udp_loss = 0.01;
            b.transport(Transport::Udp)
                .client_pairs(10)
                .net(net)
                .fault_schedule(burst())
        }
        // SCTP's send rule: a link fault stalls the association.
        "sctp-burst-loss" => b
            .transport(Transport::Sctp)
            .client_pairs(10)
            .fault_schedule(burst()),
        other => panic!("no golden scenario named {other}"),
    })
}

/// Checks that a scenario really exercises the path it is named for, so
/// an unchanged hash means that path is unchanged.
fn exercises(name: &str, r: &ScenarioReport) -> bool {
    let p = &r.proxy;
    let calls = r.ops_total > 0 && p.parse_errors == 0;
    calls
        && match name {
            "tcp-fdcache-pq-churn" => p.fd_cache_hits > 0 && r.reconnects > 0,
            "threaded" => p.fd_requests == 0 && p.conns_assigned > 0,
            "open-loop-udp-shed" => p.overload_rejections > 0,
            "udp-cancel" | "tcp-cancel" => p.cancels_relayed > 0,
            "tcp-reset" => r.recovered_calls > 0 && r.workers_respawned > 0,
            "open-loop-tcp" => r.open_calls_peak > 1,
            "tcp-idle-expiry" => {
                p.conns_returned > 0 && p.conns_destroyed > 0 && p.outbound_connects > 0
            }
            "threaded-linear-expiry" => {
                p.conns_destroyed > 0 && p.outbound_connects > 0 && p.fd_requests == 0
            }
            "tcp-pq-expiry" => p.conns_returned > 0 && p.conns_destroyed > 0 && p.fd_cache_hits > 0,
            "threaded-pq-expiry" => p.conns_destroyed > 0 && p.fd_requests == 0,
            "sctp-kill-worker" => r.workers_respawned > 0,
            // The window opens 100 ms after the kill: calls still complete.
            "udp-kill-sole-worker" => r.workers_respawned > 0 && r.throughput.per_sec() > 0.0,
            "threaded-kill-worker" => r.workers_respawned > 0 && p.conns_reassigned > 0,
            "threaded-reset" => {
                r.connections_reset > 0 && p.conns_reassigned > 0 && p.fd_requests == 0
            }
            "tcp-kill-supervisor" => r.workers_respawned > 0 && p.fd_requests > 0,
            "udp-lossy" => r.net.udp_lost > 0,
            "sctp-burst-loss" => r.net.fault_delays > 0 && r.net.sctp_assocs > 0,
            _ => true,
        }
}

#[test]
fn fingerprints_match_the_committed_goldens() {
    let mut mismatches = Vec::new();
    for (name, want) in GOLDEN {
        let report = scenario(name).run();
        assert!(
            exercises(name, &report),
            "{name}: the scenario no longer exercises its path"
        );
        let got = fnv1a64(&report.fingerprint());
        if got != want {
            mismatches.push(format!("{name}: got {got:#018x}, want {want:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "golden fingerprints changed:\n  {}",
        mismatches.join("\n  ")
    );
}
