//! Chaos tour: the canonical fault storm — a Gilbert–Elliott burst-loss
//! episode, one worker crash, one TCP connection reset — replayed against
//! every transport, plus a supervisor assassination for the TCP
//! multi-process architecture.
//!
//! The point is the paper's robustness story told with numbers: reliable
//! transports stall through bursts where UDP drops and retransmits, a
//! crashed worker's connections migrate to its replacement, and a reset
//! phone reconnects and re-drives its call. Same seed, same storm, same
//! report — byte for byte.
//!
//! Run: `cargo run --release --example chaos [seed]`

use siperf::faults::{Fault, FaultSchedule};
use siperf::proxy::config::{ProxyConfig, Transport};
use siperf::simcore::time::SimDuration;
use siperf::simnet::HostId;
use siperf::workload::Scenario;

fn ms(n: u64) -> SimDuration {
    SimDuration::from_millis(n)
}

fn storm_run(transport: Transport, seed: u64) {
    let workers = ProxyConfig::paper(transport).worker_count();
    let storm = FaultSchedule::storm(seed, ms(2500), ms(3000), workers, HostId(0));
    println!("  schedule:");
    for ev in storm.events() {
        println!("    t={:>8}  {:?}", ev.at.to_string(), ev.fault);
    }

    let mut s = Scenario::builder(format!("chaos-{transport:?}"))
        .transport(transport)
        .client_pairs(50)
        .seed(seed)
        .fault_schedule(storm)
        .build();
    s.call_start = ms(600);
    s.measure_from = ms(1200);
    s.measure = SimDuration::from_secs(7);
    let r = s.run();

    let failure_ratio = r.call_failures as f64 / r.call_attempts.max(1) as f64;
    println!("  {}", r.summary());
    println!(
        "  faults {}  resets {}  respawns {}  conns reassigned {}  recovered calls {}",
        r.faults_injected,
        r.connections_reset,
        r.workers_respawned,
        r.proxy.conns_reassigned,
        r.recovered_calls,
    );
    println!(
        "  burst: {} dropped, {} delayed   failure ratio {:.1}%   endpoints {}  (TIME_WAIT {})\n",
        r.net.fault_drops,
        r.net.fault_delays,
        100.0 * failure_ratio,
        r.server_endpoints,
        r.server_time_wait,
    );
}

fn supervisor_assassination(seed: u64) {
    println!("TCP, supervisor crash at t=3 s (fresh supervisor re-learns the workers' fds)");
    let faults = FaultSchedule::new().at(ms(3000), Fault::KillSupervisor);
    let mut s = Scenario::builder("chaos-supervisor")
        .transport(Transport::Tcp)
        .client_pairs(50)
        .seed(seed)
        .fault_schedule(faults)
        .build();
    s.call_start = ms(600);
    s.measure_from = ms(1200);
    s.measure = SimDuration::from_secs(7);
    let r = s.run();
    let failure_ratio = r.call_failures as f64 / r.call_attempts.max(1) as f64;
    println!("  {}", r.summary());
    println!(
        "  respawns {}  connect errors {}  failure ratio {:.1}%",
        r.workers_respawned,
        r.connect_errors,
        100.0 * failure_ratio,
    );
    println!(
        "  outbound connects {}  endpoints {}  (TIME_WAIT {})\n",
        r.proxy.outbound_connects, r.server_endpoints, r.server_time_wait,
    );
}

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(42);
    println!("SIPerf chaos tour — canonical storm, seed {seed}\n");

    for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
        println!("{transport:?}, paper configuration");
        storm_run(transport, seed);
    }
    supervisor_assassination(seed);

    println!("Replay any line with the same seed: the report is identical, byte for byte.");
}
