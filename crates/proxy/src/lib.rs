//! # siperf-proxy
//!
//! The subject of the study: an OpenSER-architecture SIP proxy, faithful to
//! §3 of *"Explaining the Impact of Network Transport Protocols on SIP
//! Proxy Performance"* (ISPASS 2008), running on the simulated kernel.
//!
//! Three transports, two architectures, and the paper's two fixes — run
//! by two kinds of worker:
//!
//! * [`datagram`] — the symmetric worker processes of UDP (§3.2) and SCTP
//!   (§6): one inherited socket, no connection management.
//! * [`stream`] — the TCP connection worker, shared by both TCP
//!   architectures and generic over how it reaches a descriptor:
//!   * [`tcp`] — the supervisor/worker architecture: descriptor
//!     ownership, blocking fd-request IPC, close-after-send, and the
//!     two-step idle shutdown (§3.1) — plus the §5.2 **fd cache** and §5.3
//!     **priority queue** fixes, both off by default (the Figure 3
//!     baseline).
//!   * [`threaded`] — the §6 multi-threaded proposal: shared descriptor
//!     table, no fd-passing IPC.
//! * [`timer`] — the retransmission/reaping process (essential for UDP,
//!   superfluous-but-present for TCP, as the paper notes).
//! * [`core`] — the pure routing/transaction engine all modes share.
//! * [`conn`] — the shared connection table with both idle strategies.
//!
//! # Example
//!
//! ```
//! use siperf_simcore::time::{SimDuration, SimTime};
//! use siperf_simnet::NetConfig;
//! use siperf_simos::{CostModel, Kernel};
//! use siperf_proxy::config::{ProxyConfig, Transport};
//! use siperf_proxy::spawn::spawn_proxy;
//!
//! let mut kernel = Kernel::new(NetConfig::lan(), CostModel::opteron_2006(), 1);
//! let server = kernel.add_host(4); // the paper's four Opteron cores
//! let proxy = spawn_proxy(&mut kernel, server, ProxyConfig::paper(Transport::Udp));
//! kernel.run_until(SimTime::ZERO + SimDuration::from_millis(100));
//! assert_eq!(proxy.stats().requests, 0); // no phones yet
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod conn;
pub mod core;
pub mod datagram;
pub mod plumbing;
pub mod spawn;
pub mod stream;
pub mod tcp;
pub mod threaded;
pub mod timer;
pub mod util;

pub use config::{AppCostModel, Arch, IdleStrategy, ProxyConfig, Transport};
pub use conn::{ConnId, ConnTable};
pub use core::{FastAdmission, Outgoing, Plan, ProxyCore, ProxyStats};
pub use spawn::{spawn_proxy, ProxyHandle};
