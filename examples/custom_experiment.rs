//! Building your own experiment on the SIPerf library: a "what if" the
//! paper never ran — a proxy on *modern* hardware assumptions, with a
//! CANCEL-heavy human workload and ringing callees, comparing the shipped
//! TCP architecture against the paper's fixed one.
//!
//! This demonstrates the extension surface: the kernel cost model, proxy
//! configuration, workload shaping, and the scenario report. The
//! application's costs are the proxy's fixed calibration and cannot be
//! set.
//!
//! Run: `cargo run --release --example custom_experiment`

use siperf::proxy::config::{ProxyConfig, Transport};
use siperf::simcore::time::SimDuration;
use siperf::simos::cost::CostModel;
use siperf::workload::Scenario;

/// A speculative "one generation newer" machine: every kernel operation
/// roughly 2× cheaper than the paper's 2006 Opteron.
fn faster_kernel() -> CostModel {
    let mut c = CostModel::opteron_2006();
    for field in [
        &mut c.syscall_base,
        &mut c.udp_send,
        &mut c.udp_recv,
        &mut c.tcp_send,
        &mut c.tcp_recv,
        &mut c.tcp_connect,
        &mut c.tcp_accept,
        &mut c.tcp_close,
        &mut c.ipc_send,
        &mut c.ipc_recv,
        &mut c.ipc_fd_install,
        &mut c.context_switch,
        &mut c.wake_retry,
    ] {
        *field /= 2;
    }
    c
}

fn run(name: &str, proxy: ProxyConfig) {
    let mut scenario = Scenario::builder(name)
        .proxy(proxy)
        .client_pairs(300)
        .measure_secs(3)
        // A human-ish workload: phones ring for 30 ms, callers give up on
        // every 6th call.
        .ring_delay(SimDuration::from_millis(30))
        .cancel_every(6)
        .build();
    scenario.kernel_costs = faster_kernel();
    let report = scenario.run();
    println!(
        "{:<28} {:>9.0} ops/s   cancelled {:>5}   p50 {:>9}   util {:>4.0}%",
        name,
        report.throughput.per_sec(),
        report.calls_cancelled,
        report.invite_p50.to_string(),
        100.0 * report.server_utilization,
    );
    assert_eq!(report.call_failures, 0, "no calls may be lost");
}

fn main() {
    println!("SIPerf custom experiment — faster kernel, ringing callees,");
    println!("CANCEL-happy callers (everything the paper never measured)\n");
    run("UDP", ProxyConfig::paper(Transport::Udp));
    run("TCP baseline", ProxyConfig::paper(Transport::Tcp));
    run(
        "TCP fixed (fd cache + pq)",
        ProxyConfig::paper(Transport::Tcp)
            .with_fd_cache()
            .with_priority_queue(),
    );
    println!();
    println!("With ringing callees the workload turns latency-bound, so raw");
    println!("throughput converges — but look at the utilization column: the");
    println!("baseline burns ~80% of the server to serve what the fixed design");
    println!("(and UDP) deliver at ~50-60%. The architectural tax survives a");
    println!("hardware generation; it just moves from the throughput column to");
    println!("the CPU bill.");
}
