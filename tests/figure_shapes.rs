//! Reduced-scale versions of the paper's headline results. Absolute numbers
//! differ from the full-scale benches; these tests pin the *shape*: who
//! wins, in what order, and that each fix moves the needle the way
//! Figures 3–5 and §4.3 report.

use std::sync::{Mutex, OnceLock};

use siperf::proxy::config::{Arch, ProxyConfig, Transport};
use siperf::simos::process::Nice;
use siperf::workload::experiments::{quick_cell, FigureConfig, TransportWorkload};
use siperf::workload::Scenario;

/// Throughput of one figure cell. Several tests compare the same cells,
/// so each is simulated once per test binary; a test that asks for a cell
/// another test is still simulating waits for that run.
fn tput(fig: FigureConfig, wl: TransportWorkload) -> f64 {
    type Cells = Vec<((FigureConfig, TransportWorkload), &'static OnceLock<f64>)>;
    static CELLS: Mutex<Cells> = Mutex::new(Vec::new());
    let cell = {
        let mut cells = CELLS
            .lock()
            .expect("no test panics while holding the cell list");
        match cells.iter().find(|(key, _)| *key == (fig, wl)) {
            Some(&(_, cell)) => cell,
            None => {
                let cell: &'static OnceLock<f64> = Box::leak(Box::default());
                cells.push(((fig, wl), cell));
                cell
            }
        }
    };
    *cell.get_or_init(|| quick_cell(fig, wl, 100, 77).run().throughput.per_sec())
}

#[test]
fn figure3_baseline_ordering() {
    let udp = tput(FigureConfig::Baseline, TransportWorkload::Udp);
    let pers = tput(FigureConfig::Baseline, TransportWorkload::TcpPersistent);
    let t500 = tput(FigureConfig::Baseline, TransportWorkload::Tcp500);
    let t50 = tput(FigureConfig::Baseline, TransportWorkload::Tcp50);

    // "OpenSER over TCP performs very poorly in comparison to OpenSER over
    // UDP. With 100 clients, the UDP throughput is twice that of TCP under
    // the persistent connection workload."
    assert!(udp > 1.7 * pers, "udp {udp:.0} vs persistent {pers:.0}");
    // "The non-persistent TCP connection workloads perform even worse."
    assert!(t50 < t500 * 1.02, "50ops {t50:.0} vs 500ops {t500:.0}");
    assert!(
        t500 < pers * 1.05,
        "500ops {t500:.0} vs persistent {pers:.0}"
    );
    assert!(udp > 2.3 * t50, "udp {udp:.0} vs 50ops {t50:.0}");
}

#[test]
fn figure4_fd_cache_lifts_tcp_but_not_the_churny_workload() {
    let base_pers = tput(FigureConfig::Baseline, TransportWorkload::TcpPersistent);
    let udp = tput(FigureConfig::FdCache, TransportWorkload::Udp);
    let pers = tput(FigureConfig::FdCache, TransportWorkload::TcpPersistent);
    let t500 = tput(FigureConfig::FdCache, TransportWorkload::Tcp500);
    let t50 = tput(FigureConfig::FdCache, TransportWorkload::Tcp50);

    // "The file descriptor cache yields a dramatic improvement in the TCP
    // performance" — persistent within the paper's 66–78% band (± a few
    // points at this reduced scale).
    assert!(
        pers > 1.4 * base_pers,
        "cache {pers:.0} vs baseline {base_pers:.0}"
    );
    let ratio = pers / udp;
    assert!(
        (0.60..=0.88).contains(&ratio),
        "persistent at {:.0}% of UDP",
        ratio * 100.0
    );
    // "the results from the 500 operations per connection experiments are
    // very similar to the persistent case."
    assert!(
        t500 > 0.9 * pers,
        "500ops {t500:.0} vs persistent {pers:.0}"
    );
    // "in the 50 operations per connection case … there is still a two-fold
    // difference in the throughput compared to the other TCP workloads."
    assert!(t50 < 0.78 * pers, "50ops {t50:.0} vs persistent {pers:.0}");
}

#[test]
fn figure5_priority_queue_rescues_the_churny_workload() {
    let f4_t50 = tput(FigureConfig::FdCache, TransportWorkload::Tcp50);
    let t50 = tput(FigureConfig::FdCachePlusPq, TransportWorkload::Tcp50);
    let pers = tput(
        FigureConfig::FdCachePlusPq,
        TransportWorkload::TcpPersistent,
    );
    let udp = tput(FigureConfig::FdCachePlusPq, TransportWorkload::Udp);

    // "There is a significant impact on the performance in the 50
    // operations per connection workload, where the throughput is very
    // similar to the other TCP workloads."
    assert!(
        t50 > 1.35 * f4_t50,
        "pq {t50:.0} vs linear-scan {f4_t50:.0}"
    );
    assert!(t50 > 0.88 * pers, "50ops {t50:.0} vs persistent {pers:.0}");
    // All TCP workloads land in a band below UDP (50–78% in the paper).
    let ratio = t50 / udp;
    assert!(
        (0.5..=0.9).contains(&ratio),
        "50ops at {:.0}% of UDP",
        ratio * 100.0
    );
}

#[test]
fn priority_queue_costs_nothing_when_there_is_no_churn() {
    // "In the other TCP workloads, adding the priority queue has negligible
    // effect on performance."
    let f4 = tput(FigureConfig::FdCache, TransportWorkload::TcpPersistent);
    let f5 = tput(
        FigureConfig::FdCachePlusPq,
        TransportWorkload::TcpPersistent,
    );
    assert!(
        (f5 - f4).abs() / f4 < 0.10,
        "pq should be ~free on persistent conns: {f4:.0} vs {f5:.0}"
    );
}

#[test]
fn supervisor_priority_elevation_pays_in_the_right_direction() {
    // §4.3 reports a 40–100% gain from running the supervisor at nice −20.
    // Our scheduler reproduces the *mechanism* (the woken supervisor
    // preempts busy workers instead of queueing behind them) and the
    // direction, but not the paper's magnitude: the specific starvation was
    // a Linux 2.6.20 O(1)-scheduler interactivity artifact this model does
    // not emulate. See EXPERIMENTS.md, ablation A1.
    fn run(nice: Nice) -> f64 {
        let mut proxy = ProxyConfig::paper(Transport::Tcp);
        proxy.supervisor_nice = nice;
        let mut s = Scenario::builder("prio")
            .proxy(proxy)
            .client_pairs(500)
            .seed(5)
            .build();
        s.call_start = siperf::simcore::time::SimDuration::from_millis(800);
        s.measure_from = siperf::simcore::time::SimDuration::from_millis(1500);
        s.measure = siperf::simcore::time::SimDuration::from_secs(2);
        s.run().throughput.per_sec()
    }
    let elevated = run(Nice::HIGHEST);
    let normal = run(Nice::NORMAL);
    assert!(
        elevated > 1.03 * normal,
        "nice -20 must pay: {elevated:.0} vs {normal:.0}"
    );
}

#[test]
fn threaded_architecture_beats_the_fixed_process_architecture() {
    // §6: with all workers in one address space, connection sharing is
    // cheap; the threaded server should at least match the fully-fixed
    // multi-process one.
    let fixed = tput(
        FigureConfig::FdCachePlusPq,
        TransportWorkload::TcpPersistent,
    );
    let mut proxy = ProxyConfig::paper(Transport::Tcp)
        .with_fd_cache()
        .with_priority_queue();
    proxy.arch = Arch::MultiThread;
    let mut s = Scenario::builder("threaded")
        .proxy(proxy)
        .client_pairs(100)
        .seed(77)
        .build();
    s.call_start = siperf::simcore::time::SimDuration::from_millis(800);
    s.measure_from = siperf::simcore::time::SimDuration::from_millis(1500);
    s.measure = siperf::simcore::time::SimDuration::from_secs(2);
    let threaded = s.run().throughput.per_sec();
    assert!(
        threaded > 0.95 * fixed,
        "threaded {threaded:.0} vs fixed multi-process {fixed:.0}"
    );
}

#[test]
fn sctp_closes_most_of_the_gap_to_udp() {
    // §6: SCTP keeps the symmetric architecture on a reliable transport,
    // removing the TCP architecture's overheads.
    let udp = tput(FigureConfig::Baseline, TransportWorkload::Udp);
    let tcp_fixed = tput(
        FigureConfig::FdCachePlusPq,
        TransportWorkload::TcpPersistent,
    );
    let mut s = Scenario::builder("sctp")
        .transport(Transport::Sctp)
        .client_pairs(100)
        .seed(77)
        .build();
    s.call_start = siperf::simcore::time::SimDuration::from_millis(800);
    s.measure_from = siperf::simcore::time::SimDuration::from_millis(1500);
    s.measure = siperf::simcore::time::SimDuration::from_secs(2);
    let sctp = s.run().throughput.per_sec();
    assert!(
        sctp > tcp_fixed,
        "sctp {sctp:.0} vs fixed tcp {tcp_fixed:.0}"
    );
    assert!(sctp > 0.85 * udp, "sctp {sctp:.0} vs udp {udp:.0}");
}
