//! Quickstart: stand up the simulated testbed, run one UDP and one TCP
//! experiment, and print what the paper's benchmark would report.
//!
//! Run: `cargo run --release --example quickstart`

use siperf::proxy::config::Transport;
use siperf::workload::Scenario;

fn main() {
    println!("SIPerf quickstart — 100 caller/callee pairs, 4-core proxy\n");

    for transport in [Transport::Udp, Transport::Tcp] {
        let report = Scenario::builder(format!("quickstart-{}", transport.token()))
            .transport(transport)
            .client_pairs(100)
            .measure_secs(3)
            .build()
            .run();

        println!("== {} ==", transport.token());
        println!(
            "  throughput        {:>10.0} ops/s",
            report.throughput.per_sec()
        );
        println!("  registered phones {:>10}", report.registered);
        println!("  calls attempted   {:>10}", report.call_attempts);
        println!("  calls failed      {:>10}", report.call_failures);
        println!(
            "  invite latency    {:>10} (p50)   {} (p99)",
            report.invite_p50.to_string(),
            report.invite_p99
        );
        println!(
            "  server CPU        {:>9.1}%",
            100.0 * report.server_utilization
        );
        if transport == Transport::Tcp {
            println!("  fd requests       {:>10}", report.proxy.fd_requests);
            println!("  conns assigned    {:>10}", report.proxy.conns_assigned);
        }
        println!();
    }

    println!("The TCP run lands well below UDP — the paper's Figure 3 baseline.");
    println!("Try the fixes: `cargo run --release --bin regen -- fig4 fig5`.");
}
