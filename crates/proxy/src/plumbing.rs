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

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use siperf_simcore::time::SimTime;
use siperf_simnet::SockAddr;
use siperf_simos::lock::LockId;
use siperf_simos::syscall::Syscall;

use crate::config::{ProxyConfig, Transport, APP_COSTS};
use crate::conn::ConnTable;
use crate::core::{Inbound, Outgoing, Plan, ProxyCore};

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
}

/// Charges `ns` of work under `lock`: one acquire → `Compute` → release.
pub(crate) fn locked(script: &mut VecDeque<Syscall>, lock: LockId, ns: u64, tag: &'static str) {
    script.push_back(Syscall::LockAcquire { lock });
    script.push_back(Syscall::Compute { ns, tag });
    script.push_back(Syscall::LockRelease { lock });
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
    /// Workers killed and respawned since the connection manager last
    /// looked: it re-announces their connections to the replacements. The
    /// manager observes these `SIGCHLD`-style events on its next loop pass.
    pub respawned: Rc<RefCell<VecDeque<usize>>>,
    /// How often the supervisor has been restarted; a worker that sees it
    /// change re-announces its descriptors to the fresh supervisor.
    pub manager_restarts: Rc<Cell<u64>>,
}

impl ConnShared {
    /// Reads one received message (see [`Inbound::read`]) and hands it to
    /// [`ProxyCore::handle`] (admission, then routing), charges its work to
    /// `script` — only the shed cost if the plan is rejected — and returns
    /// the sends for the caller to put on the wire its own way. The parse
    /// burst is charged by size, whether the message was scanned or parsed.
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
        let parse_ns = APP_COSTS.parse_cost(raw.len());
        let msg = match Inbound::read(raw) {
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
        let plan = core.handle(now, msg, src);
        drop(core);
        if plan.rejected {
            // Shed: servers in the SER lineage refuse new work from the
            // request line alone while shedding, because rejection must
            // cost far less than service — a full-pipeline 503 runs near
            // 20% of a served call, which would cap the goodput any policy
            // can hold at 2× overload around 80% of peak. So a rejection is
            // charged only the sniff + canned 503, not parse/route/build.
            script.push_back(Syscall::Compute {
                ns: APP_COSTS.shed_fast,
                tag: tags::SHED_FAST,
            });
            return plan.out;
        }
        routing_script(
            script,
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
        APP_COSTS.route_request
    } else {
        APP_COSTS.route_response
    };
    locked(script, locks.txn, route_ns, tags::ROUTE);
    if was_request && !plan.absorbed {
        locked(script, locks.usrloc, APP_COSTS.usrloc_lookup, tags::USRLOC);
    }
    // Building each outgoing message is charged here; putting it on the
    // wire is transport-specific.
    for _ in &plan.out {
        script.push_back(Syscall::Compute {
            ns: APP_COSTS.build_message,
            tag: tags::BUILD,
        });
    }
    if plan.txn_created && !transport.is_reliable() {
        // UDP: arm the retransmission timer on the shared list (§3.2).
        locked(
            script,
            locks.timer,
            APP_COSTS.timer_insert,
            tags::TIMER_INSERT,
        );
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
    use siperf_overload::QueueThreshold;
    use siperf_simnet::{HostId, SockAddr};
    use siperf_sip::gen::{self, CallParty};
    use siperf_sip::msg::StatusCode;
    use siperf_sip::parse::parse_message;

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
    fn route_charges_a_shed_invite_only_the_shed_cost() {
        let cfg = ProxyConfig::paper(Transport::Udp);
        let shared = ConnShared {
            core: Rc::new(RefCell::new(ProxyCore::new(
                "h0:5060".into(),
                Transport::Udp,
                true,
            ))),
            conns: Rc::new(RefCell::new(ConnTable::new(
                cfg.idle_strategy,
                cfg.idle_timeout,
            ))),
            locks: Locks {
                txn: LockId(0),
                usrloc: LockId(1),
                timer: LockId(2),
                conn: LockId(3),
            },
            cfg: Rc::new(cfg),
            respawned: Rc::default(),
            manager_restarts: Rc::default(),
        };
        // Shed once one transaction is live.
        let policy = QueueThreshold::new(1, 0, 3);
        shared
            .core
            .borrow_mut()
            .set_overload_policy(Box::new(policy));
        let (alice, bob) = (
            CallParty::new("alice", "h1:5060"),
            CallParty::new("bob", "h2:5060"),
        );
        let (a_src, b_src) = (
            SockAddr::new(HostId(1), 5060),
            SockAddr::new(HostId(2), 5060),
        );
        let now = SimTime::ZERO;
        let mut script = VecDeque::new();
        for (party, src) in [(&alice, a_src), (&bob, b_src)] {
            let reg = gen::register(party, "sip.lab", 1, "z9hG4bKreg", "UDP");
            shared.route(&mut script, now, &reg.to_bytes(), src, None);
        }

        // Admitted: the full pipeline, starting with the parse.
        script.clear();
        let inv = gen::invite(&alice, &bob, "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let out = shared.route(&mut script, now, &inv.to_bytes(), a_src, None);
        assert_eq!(out.len(), 2, "100 Trying and the forward");
        assert!(matches!(
            script.front(),
            Some(Syscall::Compute { tag, .. }) if *tag == tags::PARSE
        ));

        // Rejected: one shed-cost burst and the 503, nothing else.
        script.clear();
        let inv = gen::invite(&bob, &alice, "sip.lab", "c2", "z9hG4bKa2", "UDP");
        let out = shared.route(&mut script, now, &inv.to_bytes(), b_src, None);
        let shed_ns = APP_COSTS.shed_fast;
        assert!(matches!(
            script.make_contiguous(),
            [Syscall::Compute { ns, tag }] if *ns == shed_ns && *tag == tags::SHED_FAST
        ));
        assert_eq!(out.len(), 1);
        let resp = parse_message(&out[0].bytes).unwrap();
        assert_eq!(resp.status(), Some(StatusCode::SERVICE_UNAVAILABLE));
        assert_eq!(out[0].dest, b_src);
    }

    #[test]
    fn routing_script_shape_udp_request() {
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
        routing_script(&mut script, &locks, Transport::Udp, 10_000, true, &plan);
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
        routing_script(&mut script, &locks, Transport::Tcp, 5_000, true, &plan);
        assert!(!script.iter().any(|s| matches!(
            s,
            Syscall::Compute { tag, .. } if *tag == tags::TIMER_INSERT
        )));
    }

    #[test]
    fn absorbed_retransmission_skips_usrloc() {
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
        routing_script(&mut script, &locks, Transport::Udp, 5_000, true, &plan);
        assert!(!script.iter().any(|s| matches!(
            s,
            Syscall::Compute { tag, .. } if *tag == tags::USRLOC
        )));
    }
}
