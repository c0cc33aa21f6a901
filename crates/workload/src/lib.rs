//! # siperf-workload
//!
//! The benchmark driver for the SIPerf study — the paper's §4.2
//! methodology as code: thousands of simulated SIP phones across three
//! client machines, a registration phase, then calls through the proxy
//! with throughput measured as operations (SIP transactions) per second
//! over the measured phase only.
//!
//! * [`phone`] — the transport-independent call engine and callee logic.
//!   One [`phone::CallEngine`] drives every caller, closed-loop (the
//!   paper's one call per pair) or open-loop Poisson (load offered
//!   regardless of outstanding calls, the x-axis of goodput-vs-offered-load
//!   curves), as [`phone::Arrivals`] selects.
//! * [`phone_msg`] — the UDP/SCTP phone process, caller or callee.
//! * [`phone_tcp`] — the TCP phone process, caller or callee, with listen
//!   sockets, never-closed connections, reconnect-and-redrive after resets,
//!   and the 50/500 ops-per-connection reconnect policies.
//! * [`scenario`] — world construction, execution, and the full
//!   [`scenario::ScenarioReport`].
//! * [`experiments`] — the paper's grid: Figures 3–5 cells, the §4.3
//!   ablations, and the §6 extensions.
//! * [`stats`] — client-side measurement.
//!
//! # Example
//!
//! ```
//! use siperf_workload::{Scenario, Transport};
//!
//! let report = Scenario::builder("smoke")
//!     .transport(Transport::Udp)
//!     .client_pairs(10)
//!     .measure_secs(1)
//!     .build()
//!     .run();
//! assert!(report.registered >= 20, "all phones register");
//! assert!(report.throughput.per_sec() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod experiments;
pub mod phone;
pub mod phone_msg;
pub mod phone_tcp;
pub mod scenario;
pub mod stats;

pub use experiments::{FigureConfig, TransportWorkload, CLIENT_COUNTS};
pub use scenario::{Scenario, ScenarioBuilder, ScenarioReport};
pub use siperf_overload::OverloadConfig;
pub use siperf_proxy::config::{Arch, IdleStrategy, ProxyConfig, Transport};
pub use stats::WorkloadStats;
