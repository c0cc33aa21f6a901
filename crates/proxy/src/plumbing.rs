//! Shared plumbing for the proxy's worker processes.
//!
//! ## Modeling note: decisions vs. timing
//!
//! The simulator is single-threaded, so shared-state mutation is inherently
//! atomic; what the simulated locks provide is **timing** — hold times,
//! contention, and the spin/`sched_yield` storms the paper profiles. Worker
//! code therefore computes each routing decision when a message is parsed
//! and then *plays out* the exact syscall sequence OpenSER would execute
//! (lock, compute, unlock, send, …) as a script. The CPU charged, the locks
//! taken, and their ordering match §3's description; only the Rust-side
//! mutation happens a few virtual microseconds earlier than the lock
//! window it is charged under.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use siperf_simcore::time::SimTime;
use siperf_simnet::SockAddr;
use siperf_simos::lock::LockId;
use siperf_simos::syscall::{Fd, IpcMsg, Syscall};
use siperf_sip::parse::parse_message;

use crate::config::{AppCostModel, IdleStrategy, ProxyConfig, Transport};
use crate::conn::{ConnId, ConnTable, IdleHunt};
use crate::core::{FastAdmission, Outgoing, Plan, ProxyCore};

/// The proxy's shared-memory locks, created once at spawn time.
#[derive(Debug, Clone, Copy)]
pub struct Locks {
    /// Guards the transaction table.
    pub txn: LockId,
    /// Guards the location service (usrloc).
    pub usrloc: LockId,
    /// Guards the global timer list (essential for UDP, §3.2).
    pub timer: LockId,
    /// Guards the TCP connection hash table / priority queue (§3.1).
    pub conn: LockId,
}

/// Profile tags for the proxy's user-level functions, named after their
/// OpenSER counterparts so the §5 profile tables read like the paper's.
pub mod tags {
    /// Message reception and parsing.
    pub const PARSE: &str = "user/receive_msg";
    /// Transaction matching/creation and forwarding decisions.
    pub const ROUTE: &str = "user/t_relay";
    /// Location-service lookup.
    pub const USRLOC: &str = "user/usrloc_lookup";
    /// Building and serializing an outgoing message.
    pub const BUILD: &str = "user/build_msg";
    /// The pre-parse overload shed fast path (request-line sniff + canned
    /// 503).
    pub const SHED_FAST: &str = "user/shed_fast";
    /// Inserting a retransmission timer.
    pub const TIMER_INSERT: &str = "user/timer_insert";
    /// The timer process's scan.
    pub const TIMER_SCAN: &str = "user/timer_scan";
    /// The function in which fd-request IPC occurs — the paper's 12% → 4.6%
    /// headline profile entry.
    pub const GET_FD: &str = "user/tcpconn_get_fd";
    /// Connection hash table operations.
    pub const CONN_HASH: &str = "user/tcpconn_hash";
    /// Hunting idle connections (linear scan or priority queue).
    pub const IDLE: &str = "user/tcpconn_timeout";
    /// Per-worker fd-cache probes.
    pub const FD_CACHE: &str = "user/fd_cache_lookup";
}

/// Charges `ns` of work under `lock`: one acquire → `Compute` → release.
pub(crate) fn locked(script: &mut VecDeque<Syscall>, lock: LockId, ns: u64, tag: &'static str) {
    script.push_back(Syscall::LockAcquire { lock });
    script.push_back(Syscall::Compute { ns, tag });
    script.push_back(Syscall::LockRelease { lock });
}

/// Out-of-band notifications from the spawner's fault-injection path to the
/// connection manager (the supervisor or the acceptor), delivered through
/// shared memory: the manager observes `SIGCHLD`-style events on its next
/// loop pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ManagerCtl {
    /// Worker `idx` was killed and respawned; its owned connections must be
    /// re-announced to the replacement.
    WorkerRespawned(usize),
}

/// State shared by every process of a proxy. Under UDP/SCTP the
/// connection table stays empty and no crash notice has a reader.
#[derive(Clone)]
pub(crate) struct ConnShared {
    /// Routing engine + stats.
    pub core: Rc<RefCell<ProxyCore>>,
    /// The shared connection table.
    pub conns: Rc<RefCell<ConnTable>>,
    /// Proxy configuration.
    pub cfg: Rc<ProxyConfig>,
    /// The shared-memory locks.
    pub locks: Locks,
    /// Crash/respawn notifications for the connection manager.
    pub ctl: Rc<RefCell<VecDeque<ManagerCtl>>>,
}

impl ConnShared {
    /// Charges one connection-table operation under the table lock.
    pub fn table_op(&self, script: &mut VecDeque<Syscall>) {
        let ns = self.cfg.app_costs.conn_table_op;
        locked(script, self.locks.conn, ns, tags::CONN_HASH);
    }

    /// Records a connection accepted from `peer`, owned by the next of
    /// `workers` round robin, and charges the table operation; returns the
    /// owner and the connection.
    pub fn accept(
        &self,
        script: &mut VecDeque<Syscall>,
        now: SimTime,
        peer: SockAddr,
        rr: &mut usize,
        workers: usize,
    ) -> (usize, ConnId) {
        let worker = *rr % workers;
        *rr += 1;
        let timeout = self.cfg.idle_timeout;
        let id = self.conns.borrow_mut().insert(now, peer, worker, timeout);
        self.core.borrow_mut().stats.conns_assigned += 1;
        self.table_op(script);
        (worker, id)
    }

    /// The next crash notification for the manager, if any.
    pub fn next_ctl(&self) -> Option<ManagerCtl> {
        self.ctl.borrow_mut().pop_front()
    }

    /// Runs one manager-side idle hunt over the whole table with the
    /// configured strategy, and returns it with the CPU it costs under the
    /// table lock (§5.2: "a lock is held on the shared hash table
    /// throughout").
    pub fn idle_hunt(&self, now: SimTime) -> (IdleHunt, u64) {
        let timeout = self.cfg.idle_timeout;
        let costs = &self.cfg.app_costs;
        let mut conns = self.conns.borrow_mut();
        let (hunt, ns) = match self.cfg.idle_strategy {
            IdleStrategy::LinearScan => {
                let hunt = conns.hunt_linear(now, timeout);
                let ns = costs.idle_scan_entry * hunt.examined.max(1);
                (hunt, ns)
            }
            IdleStrategy::PriorityQueue => {
                let hunt = conns.hunt_priority_queue(now, timeout);
                let ns = costs.pq_pop * hunt.examined + 400;
                (hunt, ns)
            }
        };
        self.core.borrow_mut().stats.idle_scan_entries += hunt.examined;
        (hunt, ns.max(400))
    }

    /// Re-announces one connection to a respawned worker over `to`: one
    /// table operation, then `msg` (the manager's `MSG_NEW_CONN`).
    pub fn reannounce(&self, script: &mut VecDeque<Syscall>, to: Fd, msg: IpcMsg) {
        self.core.borrow_mut().stats.conns_reassigned += 1;
        self.table_op(script);
        script.push_back(Syscall::IpcSend { fd: to, msg });
    }

    pub(crate) fn pq_mode(&self) -> bool {
        self.cfg.idle_strategy == IdleStrategy::PriorityQueue
    }

    /// Parses and routes one received message, charging its work to
    /// `script`, and returns the sends for the caller to put on the wire
    /// its own way.
    ///
    /// `backlog` is the caller's `(worker index, framed-but-unrouted
    /// messages)`, reported to the overload policy before admission so it
    /// decides on this worker's fresh depth. Datagram workers hold at most
    /// one message — their backlog sits in the kernel socket buffer where
    /// OpenSER cannot see it — and pass `None`.
    pub fn route(
        &self,
        script: &mut VecDeque<Syscall>,
        now: SimTime,
        raw: &[u8],
        src: SockAddr,
        backlog: Option<(usize, usize)>,
    ) -> Vec<Outgoing> {
        let parse_ns = self.cfg.app_costs.parse_cost(raw.len());
        let msg = match parse_message(raw) {
            Ok(msg) => msg,
            Err(_) => {
                self.core.borrow_mut().stats.parse_errors += 1;
                script.push_back(Syscall::Compute {
                    ns: parse_ns,
                    tag: tags::PARSE,
                });
                return Vec::new();
            }
        };
        let was_request = msg.is_request();
        let mut core = self.core.borrow_mut();
        if let Some((idx, depth)) = backlog {
            core.note_worker_backlog(idx, depth);
        }
        if let FastAdmission::Shed(plan) = core.fast_admission(now, &msg, src) {
            // Shed fast path: the request line alone identified a refusable
            // INVITE, so skip the parse/route/build pipeline and charge only
            // the sniff + canned 503.
            script.push_back(Syscall::Compute {
                ns: self.cfg.app_costs.shed_fast,
                tag: tags::SHED_FAST,
            });
            return plan.out;
        }
        let plan = core.handle_message(now, msg, src);
        drop(core);
        routing_script(
            script,
            &self.cfg.app_costs,
            &self.locks,
            self.cfg.transport,
            parse_ns,
            was_request,
            &plan,
        );
        plan.out
    }
}

/// Builds the lock/compute script that charges a routed message's
/// transaction-table and location-service work, shared by every transport.
///
/// The per-message sends are transport-specific and appended by the caller.
pub fn routing_script(
    script: &mut VecDeque<Syscall>,
    costs: &AppCostModel,
    locks: &Locks,
    transport: Transport,
    parse_ns: u64,
    was_request: bool,
    plan: &Plan,
) {
    script.push_back(Syscall::Compute {
        ns: parse_ns,
        tag: tags::PARSE,
    });
    let route_ns = if was_request {
        costs.route_request
    } else {
        costs.route_response
    };
    locked(script, locks.txn, route_ns, tags::ROUTE);
    if was_request && !plan.absorbed {
        locked(script, locks.usrloc, costs.usrloc_lookup, tags::USRLOC);
    }
    // Building each outgoing message is charged here; putting it on the
    // wire is transport-specific.
    for _ in &plan.out {
        script.push_back(Syscall::Compute {
            ns: costs.build_message,
            tag: tags::BUILD,
        });
    }
    if plan.txn_created && !transport.is_reliable() {
        // UDP: arm the retransmission timer on the shared list (§3.2).
        locked(script, locks.timer, costs.timer_insert, tags::TIMER_INSERT);
    }
}

/// Encodes a socket address into an IPC message word.
pub fn encode_addr(addr: siperf_simnet::SockAddr) -> u64 {
    ((addr.host.0 as u64) << 16) | addr.port as u64
}

/// Decodes a socket address from an IPC message word.
pub fn decode_addr(word: u64) -> siperf_simnet::SockAddr {
    siperf_simnet::SockAddr::new(
        siperf_simnet::HostId((word >> 16) as u32),
        (word & 0xffff) as u16,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_simnet::{HostId, SockAddr};

    #[test]
    fn addr_encoding_roundtrips() {
        for addr in [
            SockAddr::new(HostId(0), 5060),
            SockAddr::new(HostId(3), 65535),
            SockAddr::new(HostId(1_000_000), 1),
        ] {
            assert_eq!(decode_addr(encode_addr(addr)), addr);
        }
    }

    #[test]
    fn routing_script_shape_udp_request() {
        let costs = AppCostModel::opteron_2006();
        let locks = Locks {
            txn: LockId(0),
            usrloc: LockId(1),
            timer: LockId(2),
            conn: LockId(3),
        };
        let plan = Plan {
            out: vec![],
            absorbed: false,
            txn_created: true,
            registered: false,
            rejected: false,
        };
        let mut script = VecDeque::new();
        routing_script(
            &mut script,
            &costs,
            &locks,
            Transport::Udp,
            10_000,
            true,
            &plan,
        );
        let kinds: Vec<&'static str> = script
            .iter()
            .map(|s| match s {
                Syscall::Compute { tag, .. } => *tag,
                Syscall::LockAcquire { .. } => "acquire",
                Syscall::LockRelease { .. } => "release",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                tags::PARSE,
                "acquire",
                tags::ROUTE,
                "release",
                "acquire",
                tags::USRLOC,
                "release",
                "acquire",
                tags::TIMER_INSERT,
                "release",
            ]
        );
    }

    #[test]
    fn routing_script_skips_timer_on_reliable_transport() {
        let costs = AppCostModel::opteron_2006();
        let locks = Locks {
            txn: LockId(0),
            usrloc: LockId(1),
            timer: LockId(2),
            conn: LockId(3),
        };
        let plan = Plan {
            out: vec![],
            absorbed: false,
            txn_created: true,
            registered: false,
            rejected: false,
        };
        let mut script = VecDeque::new();
        routing_script(
            &mut script,
            &costs,
            &locks,
            Transport::Tcp,
            5_000,
            true,
            &plan,
        );
        assert!(!script.iter().any(|s| matches!(
            s,
            Syscall::Compute { tag, .. } if *tag == tags::TIMER_INSERT
        )));
    }

    #[test]
    fn absorbed_retransmission_skips_usrloc() {
        let costs = AppCostModel::opteron_2006();
        let locks = Locks {
            txn: LockId(0),
            usrloc: LockId(1),
            timer: LockId(2),
            conn: LockId(3),
        };
        let plan = Plan {
            absorbed: true,
            ..Default::default()
        };
        let mut script = VecDeque::new();
        routing_script(
            &mut script,
            &costs,
            &locks,
            Transport::Udp,
            5_000,
            true,
            &plan,
        );
        assert!(!script.iter().any(|s| matches!(
            s,
            Syscall::Compute { tag, .. } if *tag == tags::USRLOC
        )));
    }
}
