//! The benchmark's three workloads, built with the public scenario
//! constructors. All use the paper's topology: one 4-core server and three
//! client hosts. `README.md` records why each was chosen.

use siperf::overload::OverloadConfig;
use siperf::simcore::time::SimDuration;
use siperf::workload::experiments::{figure_cell, FigureConfig, TransportWorkload};
use siperf::workload::{Scenario, Transport};

/// The workload seed used when none is given; a seed's simulated results
/// repeat exactly.
pub const DEFAULT_SEED: u64 = 42;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 3's UDP cell: 500 closed-loop caller/callee pairs, no
    /// overload control.
    UdpClosed500,
    /// Figure 5's build (fd cache + priority queue) over TCP, 500 pairs,
    /// reconnecting every 50 operations.
    TcpChurn500,
    /// Open-loop Poisson UDP at 24k calls/s over 300 callees, with
    /// QueueThreshold shedding and a 200 ms setup deadline.
    UdpOpen24k,
}

/// How much simulated time a run covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Horizon {
    /// The benchmark's measured horizon.
    Full,
    /// A short call phase for the benchmark's own tests.
    Tiny,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::UdpClosed500,
        Workload::TcpChurn500,
        Workload::UdpOpen24k,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UdpClosed500 => "udp-closed-500",
            Workload::TcpChurn500 => "tcp-churn-500",
            Workload::UdpOpen24k => "udp-open-24k",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario for `seed`. Registration runs until `call_start`;
    /// the call phase runs from there to the end of the window.
    pub fn scenario(self, seed: u64, horizon: Horizon) -> Scenario {
        let ms = SimDuration::from_millis;
        let mut s = match self {
            Workload::UdpClosed500 => {
                figure_cell(FigureConfig::Baseline, TransportWorkload::Udp, 500, 1, seed)
            }
            Workload::TcpChurn500 => figure_cell(
                FigureConfig::FdCachePlusPq,
                TransportWorkload::Tcp50,
                500,
                1,
                seed,
            ),
            Workload::UdpOpen24k => Scenario::builder("open-loop UDP / 24k calls/s")
                .transport(Transport::Udp)
                .overload_policy(OverloadConfig::queue_threshold_default())
                .client_pairs(300)
                .arrival_rate(24_000.0)
                .setup_deadline(ms(200))
                .seed(seed)
                .build(),
        };
        // Closed-loop callers ramp within a few hundred milliseconds; the
        // open loop needs longer for its backlog and shedding to settle.
        let (call_start, measure_from) = match self {
            Workload::UdpOpen24k => (ms(700), ms(2000)),
            Workload::UdpClosed500 | Workload::TcpChurn500 => (ms(800), ms(1500)),
        };
        s.call_start = call_start;
        (s.measure_from, s.measure) = match horizon {
            Horizon::Full => (measure_from, ms(1000)),
            Horizon::Tiny => (call_start + ms(50), ms(100)),
        };
        s
    }
}
