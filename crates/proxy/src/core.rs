//! The proxy's shared application state and routing engine.
//!
//! [`ProxyCore`] is what lives in OpenSER's shared memory: the location
//! service (usrloc), the transaction table, and the statistics. It is pure
//! logic — no syscalls, no clocks of its own — so it can be unit-tested
//! exhaustively; the worker processes charge the simulated CPU and take the
//! simulated locks around each call into it, in exactly the order OpenSER
//! does (§3).

use std::collections::BTreeMap;
use std::rc::Rc;

use siperf_overload::{LoadSignals, NoControl, OverloadPolicy, Verdict};
use siperf_simcore::hash::FastMap;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;
use siperf_simnet::endpoint::{bytes_from, Bytes};
use siperf_sip::gen;
use siperf_sip::msg::{Method, SipMessage, StatusCode, Via};
use siperf_sip::parse::parse_message;
use siperf_sip::txn::{RetransClock, TimerVerdict, TxnKey};
use siperf_sip::Text;

use crate::config::Transport;

/// How long a completed transaction lingers before it is reaped.
pub(crate) const TXN_LINGER: SimDuration = SimDuration::from_secs(5);
use crate::util::parse_sim_addr;

/// One location-service binding. For connection-oriented transports the
/// proxy prefers the connection the phone registered over (OpenSER's
/// `tcp_alias` behaviour — this is what puts *two workers* in every
/// transaction, §3.1); the contact address is the connect-to fallback once
/// that connection is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binding {
    /// Source address of the REGISTER: the phone's live connection.
    pub conn_hint: SockAddr,
    /// The Contact header's address: where the phone listens.
    pub contact: SockAddr,
}

/// Counters a run reports; mirrors `openserctl fifo get_statistics`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProxyStats {
    /// Requests parsed and handled.
    pub requests: u64,
    /// Responses parsed and handled.
    pub responses: u64,
    /// Messages forwarded downstream/upstream.
    pub forwards: u64,
    /// Replies generated locally (Trying, 200 to REGISTER, errors).
    pub local_replies: u64,
    /// Successful registrations.
    pub registered: u64,
    /// Request retransmissions absorbed by transaction state.
    pub absorbed_retrans: u64,
    /// Requests retransmitted by the timer process.
    pub retransmits_sent: u64,
    /// Messages that failed to parse.
    pub parse_errors: u64,
    /// Requests dropped (unroutable, hop limit, unknown transaction).
    pub route_failures: u64,
    /// Transactions created.
    pub txns_created: u64,
    /// Transactions that timed out (Timer B/F).
    pub txn_timeouts: u64,
    /// Transactions reaped after completion.
    pub txns_reaped: u64,
    /// fd requests sent to the supervisor (TCP multi-process only).
    pub fd_requests: u64,
    /// fd-cache hits (TCP with the §5.2 fix).
    pub fd_cache_hits: u64,
    /// Connections assigned to workers by the supervisor.
    pub conns_assigned: u64,
    /// Connections returned to the supervisor by idle workers.
    pub conns_returned: u64,
    /// Connection objects destroyed by the supervisor.
    pub conns_destroyed: u64,
    /// Outbound connections the proxy opened towards phones.
    pub outbound_connects: u64,
    /// Connection-object entries examined while hunting idle connections.
    pub idle_scan_entries: u64,
    /// CANCELs relayed hop-by-hop (RFC 3261 §9.2).
    pub cancels_relayed: u64,
    /// Responses to our relayed CANCELs, consumed locally.
    pub cancel_responses_absorbed: u64,
    /// Send failures (dead connections, refused connects).
    pub send_errors: u64,
    /// INVITEs shed by the overload policy with 503 + Retry-After.
    pub overload_rejections: u64,
    /// Worker processes killed and respawned by fault injection.
    pub workers_respawned: u64,
    /// Connections re-assigned to a respawned worker by the supervisor.
    pub conns_reassigned: u64,
}

/// One message to put on the wire.
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// Serialized message.
    pub bytes: Bytes,
    /// Primary destination (an existing connection's peer, or a datagram
    /// target).
    pub dest: SockAddr,
    /// Fallback destination to *connect to* when no connection to `dest`
    /// exists (RFC 3261 §18.2.2: the Via sent-by), used by TCP workers.
    pub alt: Option<SockAddr>,
}

/// The routing engine's verdict on one inbound message.
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Messages to send, in order.
    pub out: Vec<Outgoing>,
    /// The message was a retransmission absorbed by transaction state.
    pub absorbed: bool,
    /// A new transaction (and its retransmission clock) was created.
    pub txn_created: bool,
    /// The message updated the location service.
    pub registered: bool,
    /// The message was an INVITE shed by the overload policy; `out` holds
    /// only its 503.
    pub rejected: bool,
}

/// What the timer process must do after one pass.
#[derive(Debug, Clone, Default)]
pub struct TimerPass {
    /// Stored requests to retransmit.
    pub retransmits: Vec<Outgoing>,
    /// 408 responses for transactions that timed out.
    pub timeouts: Vec<Outgoing>,
    /// Timer entries examined (for cost accounting).
    pub examined: u64,
    /// Transactions reaped.
    pub reaped: u64,
}

#[derive(Debug)]
struct ProxyTxn {
    upstream_key: TxnKey,
    downstream_key: TxnKey,
    caller_src: SockAddr,
    caller_via: Option<SockAddr>,
    callee_dst: SockAddr,
    fwd_bytes: Bytes,
    last_response: Option<Bytes>,
    clock: RetransClock,
    completed: bool,
    reap_at: Option<SimTime>,
    /// When the transaction was created (admission latency measurement).
    started: SimTime,
    /// The overload policy admitted this transaction and is owed exactly
    /// one `on_complete` or `on_timeout`.
    policy_tracked: bool,
}

/// The transaction table's index: every live transaction under its
/// upstream and its downstream key, one map per method. A lookup borrows
/// the branch from the message, so it copies nothing; a stored key is a
/// copy of its own, so an entry does not keep a whole message's header
/// text alive.
#[derive(Debug, Default)]
struct TxnIndex {
    /// Indexed by `Method as usize`.
    by_method: [FastMap<Rc<str>, u64>; 6],
}

impl TxnIndex {
    fn get(&self, method: Method, branch: &str) -> Option<u64> {
        self.by_method[method as usize].get(branch).copied()
    }

    fn insert(&mut self, key: &TxnKey, id: u64) {
        self.by_method[key.method as usize].insert(Rc::clone(&key.branch), id);
    }

    fn remove(&mut self, key: &TxnKey) {
        self.by_method[key.method as usize].remove(&key.branch);
    }
}

/// Shared proxy state: location service, transaction table, stats.
#[derive(Debug)]
pub struct ProxyCore {
    /// Our Via sent-by string (`hN:5060`).
    pub via_sent_by: Text,
    /// Transport in use (selects Via token and retransmission policy).
    pub transport: Transport,
    /// Stateful (§2) or stateless operation.
    pub stateful: bool,
    // Both are looked up per message and never iterated. Their keys are
    // copied out of the messages so that an entry does not keep a whole
    // message's header text alive.
    registrar: FastMap<String, Binding>,
    txn_index: TxnIndex,
    // Ordered by transaction id so `timer_pass` emits retransmissions and
    // timeouts in a run-independent order (HashMap iteration order would
    // leak the hasher seed into the packet schedule).
    txns: BTreeMap<u64, ProxyTxn>,
    next_txn: u64,
    next_branch: u64,
    /// Run statistics.
    pub stats: ProxyStats,
    policy: Box<dyn OverloadPolicy>,
    active_txns: usize,
    worker_backlog: Vec<usize>,
}

impl ProxyCore {
    /// Creates an empty core for a proxy reachable at `via_sent_by`.
    pub fn new(via_sent_by: String, transport: Transport, stateful: bool) -> Self {
        ProxyCore {
            via_sent_by: via_sent_by.into(),
            transport,
            stateful,
            registrar: FastMap::default(),
            txn_index: TxnIndex::default(),
            txns: BTreeMap::new(),
            next_txn: 1,
            next_branch: 1,
            stats: ProxyStats::default(),
            policy: Box::new(NoControl),
            active_txns: 0,
            worker_backlog: Vec::new(),
        }
    }

    /// Installs the overload-control policy (default: [`NoControl`]).
    pub fn set_overload_policy(&mut self, policy: Box<dyn OverloadPolicy>) {
        self.policy = policy;
    }

    /// The installed policy's name token.
    pub fn overload_policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Records the depth of worker `idx`'s input queue. Transports whose
    /// pending messages queue in application memory (TCP workers, threads)
    /// report here so the policy sees backlog the transaction table cannot;
    /// UDP/SCTP workers report zero — their queueing hides in kernel socket
    /// buffers.
    pub fn note_worker_backlog(&mut self, idx: usize, depth: usize) {
        if idx >= self.worker_backlog.len() {
            self.worker_backlog.resize(idx + 1, 0);
        }
        self.worker_backlog[idx] = depth;
    }

    /// The load signals the policy is consulted with.
    pub fn load_signals(&self) -> LoadSignals {
        LoadSignals {
            active_txns: self.active_txns,
            worker_backlog: self.worker_backlog.iter().sum(),
        }
    }

    /// Number of registered bindings.
    pub fn bindings(&self) -> usize {
        self.registrar.len()
    }

    /// Number of live transactions.
    pub fn live_txns(&self) -> usize {
        self.txns.len()
    }

    /// Looks up a user's registered contact address.
    pub fn contact_of(&self, user: &str) -> Option<SockAddr> {
        self.registrar.get(user).map(|b| b.contact)
    }

    fn fresh_branch(&mut self) -> String {
        let n = self.next_branch;
        self.next_branch += 1;
        format!("{}px{}", gen::BRANCH_COOKIE, n)
    }

    fn reply(&mut self, code: StatusCode, req: &SipMessage, dest: SockAddr) -> Outgoing {
        self.stats.local_replies += 1;
        let resp = gen::response(code, req, None, None);
        Outgoing {
            bytes: bytes_from(resp.to_bytes()),
            dest,
            alt: None,
        }
    }

    /// Routes one parsed message. The caller must hold the transaction
    /// lock, per OpenSER's discipline.
    pub fn handle_message(&mut self, now: SimTime, msg: SipMessage, src: SockAddr) -> Plan {
        if msg.is_request() {
            self.handle_request(now, msg, src)
        } else {
            self.handle_response(now, msg)
        }
    }

    fn handle_request(&mut self, now: SimTime, msg: SipMessage, src: SockAddr) -> Plan {
        self.stats.requests += 1;
        let mut plan = Plan::default();
        let method = msg.method().expect("checked is_request");

        if method == Method::Register {
            let contact = msg
                .contact
                .as_ref()
                .and_then(|c| parse_sim_addr(&c.host))
                .unwrap_or(src);
            let binding = Binding {
                conn_hint: src,
                contact,
            };
            let user = &*msg.to.uri.user;
            if msg.expires == Some(0) {
                self.registrar.remove(user);
            } else {
                self.registrar.insert(user.to_string(), binding);
            }
            self.stats.registered += 1;
            plan.registered = true;
            plan.out.push(self.reply(StatusCode::OK, &msg, src));
            return plan;
        }

        // CANCEL is hop-by-hop (RFC 3261 §9.2): answer it 200 locally and
        // relay a CANCEL for the forwarded INVITE, reusing its downstream
        // branch so the callee can match the transaction.
        if method == Method::Cancel {
            let branch = msg.branch().unwrap_or_default();
            let Some(id) = self.txn_index.get(Method::Invite, branch) else {
                plan.out
                    .push(self.reply(StatusCode::NO_TRANSACTION, &msg, src));
                self.stats.route_failures += 1;
                return plan;
            };
            let (dst, downstream_branch) = {
                let txn = self.txns.get(&id).expect("index is consistent");
                (txn.callee_dst, txn.downstream_key.branch.clone())
            };
            plan.out.push(self.reply(StatusCode::OK, &msg, src));
            let mut fwd = msg;
            fwd.vias.insert(
                0,
                Via::new(
                    self.transport.token(),
                    self.via_sent_by.clone(),
                    &*downstream_branch,
                ),
            );
            fwd.max_forwards -= 1;
            self.stats.cancels_relayed += 1;
            self.stats.forwards += 1;
            plan.out.push(Outgoing {
                bytes: bytes_from(fwd.to_bytes()),
                dest: dst,
                alt: Some(dst),
            });
            return plan;
        }

        // Retransmission? (Stateful proxies absorb them, §2.)
        if self.stateful && method != Method::Ack {
            if let Some(branch) = msg.branch() {
                if let Some(id) = self.txn_index.get(method, branch) {
                    plan.absorbed = true;
                    self.stats.absorbed_retrans += 1;
                    if let Some(txn) = self.txns.get(&id) {
                        if let Some(last) = &txn.last_response {
                            plan.out.push(Outgoing {
                                bytes: last.clone(),
                                dest: txn.caller_src,
                                alt: txn.caller_via,
                            });
                        }
                    }
                    return plan;
                }
            }
        }

        if msg.max_forwards == 0 {
            self.stats.route_failures += 1;
            plan.out
                .push(self.reply(StatusCode::SERVER_ERROR, &msg, src));
            return plan;
        }

        // Location-service lookup (the caller holds usrloc's lock around
        // this in the worker code).
        let Some(binding) = self.registrar.get(&*msg.to.uri.user).copied() else {
            self.stats.route_failures += 1;
            plan.out.push(self.reply(StatusCode::NOT_FOUND, &msg, src));
            return plan;
        };
        let dst = binding.conn_hint;

        // Overload admission: only new calls (stateful INVITEs) are
        // sheddable — BYE/ACK/CANCEL complete already-accepted calls, and
        // shedding them would destroy the goodput the policy defends. The
        // check sits after the retransmission, hop and registrar filters so
        // those requests get their usual treatment, never a 503, and the
        // policy's admit/complete bookkeeping pairs 1:1 with transactions.
        let policy_tracked = self.stateful && method == Method::Invite;
        if policy_tracked {
            let load = self.load_signals();
            if let Verdict::Reject { retry_after } = self.policy.admit(now, src, &load) {
                self.stats.overload_rejections += 1;
                self.stats.local_replies += 1;
                plan.rejected = true;
                let resp = gen::service_unavailable(&msg, retry_after);
                plan.out.push(Outgoing {
                    bytes: bytes_from(resp.to_bytes()),
                    dest: src,
                    alt: None,
                });
                return plan;
            }
        }

        // A stateful proxy takes responsibility for everything but ACK:
        // 100 Trying for INVITE, then (below) a stored copy of the forward
        // plus a retransmission clock. Everything read from the request
        // itself is taken before it becomes the forward.
        let caller_via = msg.vias.first().and_then(|v| parse_sim_addr(&v.sent_by));
        let upstream_key = if self.stateful && method != Method::Ack {
            if method == Method::Invite {
                plan.out.push(self.reply(StatusCode::TRYING, &msg, src));
            }
            Some(TxnKey::of(&msg).expect("requests carry a Via"))
        } else {
            None
        };

        // The request becomes the forward in place: push our Via, spend a
        // hop.
        let branch = self.fresh_branch();
        let mut fwd = msg;
        fwd.vias.insert(
            0,
            Via::new(
                self.transport.token(),
                self.via_sent_by.clone(),
                branch.as_str(),
            ),
        );
        fwd.max_forwards -= 1;
        let fwd_bytes = bytes_from(fwd.to_bytes());

        if let Some(upstream_key) = upstream_key {
            let id = self.next_txn;
            self.next_txn += 1;
            let downstream_key = TxnKey {
                branch: branch.into(),
                method,
            };
            let clock = if self.transport.is_reliable() {
                RetransClock::reliable(now)
            } else {
                RetransClock::new(now, method)
            };
            self.txn_index.insert(&upstream_key, id);
            self.txn_index.insert(&downstream_key, id);
            self.txns.insert(
                id,
                ProxyTxn {
                    upstream_key,
                    downstream_key,
                    caller_src: src,
                    caller_via,
                    callee_dst: dst,
                    fwd_bytes: fwd_bytes.clone(),
                    last_response: None,
                    clock,
                    completed: false,
                    reap_at: None,
                    started: now,
                    policy_tracked,
                },
            );
            self.stats.txns_created += 1;
            self.active_txns += 1;
            plan.txn_created = true;
        }

        self.stats.forwards += 1;
        plan.out.push(Outgoing {
            bytes: fwd_bytes,
            dest: dst,
            alt: Some(binding.contact),
        });
        plan
    }

    fn handle_response(&mut self, now: SimTime, mut msg: SipMessage) -> Plan {
        self.stats.responses += 1;
        let mut plan = Plan::default();

        // Our Via must be on top; pop it.
        let ours = msg
            .vias
            .first()
            .is_some_and(|v| v.sent_by == self.via_sent_by);
        if !ours {
            self.stats.route_failures += 1;
            return plan;
        }
        let our_via = msg.vias.remove(0);
        let code = msg.status().expect("checked response");

        if !self.stateful {
            // Stateless: relay towards the next Via.
            let Some(dest) = msg.vias.first().and_then(|v| parse_sim_addr(&v.sent_by)) else {
                self.stats.route_failures += 1;
                return plan;
            };
            self.stats.forwards += 1;
            plan.out.push(Outgoing {
                bytes: bytes_from(msg.to_bytes()),
                dest,
                alt: Some(dest),
            });
            return plan;
        }

        let Some(id) = self.txn_index.get(msg.cseq_method, &our_via.branch) else {
            if msg.cseq_method == Method::Cancel {
                // The callee's 200 to our relayed CANCEL; we already
                // answered the caller ourselves.
                self.stats.cancel_responses_absorbed += 1;
            } else {
                // Late response for a reaped transaction: drop, like
                // OpenSER.
                self.stats.route_failures += 1;
            }
            return plan;
        };
        let bytes = bytes_from(msg.to_bytes());
        let txn = self.txns.get_mut(&id).expect("index is consistent");
        txn.last_response = Some(bytes.clone());
        if code.is_provisional() {
            // Provisional response: stop request retransmissions (Timer A),
            // keep the transaction alive.
            txn.clock.stop();
        } else {
            txn.clock.stop();
            if !txn.completed {
                txn.completed = true;
                self.active_txns -= 1;
                if txn.policy_tracked {
                    self.policy
                        .on_complete(now, txn.caller_src, now - txn.started);
                }
            }
            txn.reap_at = Some(now + TXN_LINGER);
        }
        self.stats.forwards += 1;
        plan.out.push(Outgoing {
            bytes,
            dest: txn.caller_src,
            alt: txn.caller_via,
        });
        plan
    }

    /// One pass of the timer process: retransmit, time out, and reap. The
    /// caller holds the timer and transaction locks.
    pub fn timer_pass(&mut self, now: SimTime) -> TimerPass {
        let mut pass = TimerPass::default();
        let mut reap = Vec::new();
        let mut timeout = Vec::new();
        for (&id, txn) in self.txns.iter_mut() {
            pass.examined += 1;
            if let Some(at) = txn.reap_at {
                if at <= now {
                    reap.push(id);
                }
                continue;
            }
            match txn.clock.check(now) {
                TimerVerdict::Retransmit { .. } => {
                    pass.retransmits.push(Outgoing {
                        bytes: txn.fwd_bytes.clone(),
                        dest: txn.callee_dst,
                        alt: Some(txn.callee_dst),
                    });
                }
                TimerVerdict::TimedOut => {
                    if let Some(bytes) = timeout_response(&txn.fwd_bytes) {
                        pass.timeouts.push(Outgoing {
                            bytes,
                            dest: txn.caller_src,
                            alt: txn.caller_via,
                        });
                    }
                    timeout.push(id);
                }
                TimerVerdict::Wait { .. } | TimerVerdict::Done => {}
            }
        }
        for id in timeout {
            let txn = self.txns.get_mut(&id).expect("looked up above");
            txn.completed = true;
            txn.clock.stop();
            txn.reap_at = Some(now + TXN_LINGER);
            self.stats.txn_timeouts += 1;
            self.active_txns -= 1;
            if txn.policy_tracked {
                self.policy.on_timeout(now, txn.caller_src);
            }
        }
        for id in reap {
            if let Some(txn) = self.txns.remove(&id) {
                self.txn_index.remove(&txn.upstream_key);
                self.txn_index.remove(&txn.downstream_key);
                self.stats.txns_reaped += 1;
                pass.reaped += 1;
            }
        }
        self.stats.retransmits_sent += pass.retransmits.len() as u64;
        pass
    }
}

/// The 408 a timed-out transaction owes its caller (Timer B/F), built
/// only when the timer fires: the stored forward, less the Via this proxy
/// pushed, is the request the caller sent. `None` only if the forward does
/// not parse, which would mean the serializer emitted bad bytes.
fn timeout_response(fwd_bytes: &[u8]) -> Option<Bytes> {
    let mut request = parse_message(fwd_bytes).ok()?;
    debug_assert!(!request.vias.is_empty(), "forwards carry our Via");
    request.vias.remove(0);
    let resp = gen::response(StatusCode::REQUEST_TIMEOUT, &request, None, None);
    Some(bytes_from(resp.to_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_simnet::addr::HostId;
    use siperf_sip::gen::CallParty;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn core(transport: Transport, stateful: bool) -> ProxyCore {
        ProxyCore::new("h0:5060".into(), transport, stateful)
    }

    fn alice() -> CallParty {
        CallParty::new("alice", "h1:20001")
    }

    fn bob() -> CallParty {
        CallParty::new("bob", "h2:20002")
    }

    fn a_src() -> SockAddr {
        SockAddr::new(HostId(1), 33000)
    }

    fn b_src() -> SockAddr {
        SockAddr::new(HostId(2), 33001)
    }

    fn registered_core(transport: Transport, stateful: bool) -> ProxyCore {
        let mut c = core(transport, stateful);
        for (party, src) in [(alice(), a_src()), (bob(), b_src())] {
            let reg = gen::register(&party, "sip.lab", 1, "z9hG4bKreg", transport.token());
            let plan = c.handle_message(t(0), reg, src);
            assert!(plan.registered);
        }
        c
    }

    /// The SDP stand-ins `gen` attaches to alice's offer and bob's answer.
    const SDP_ALICE: &str = "v=0\r\no=- 3894 3894 IN IP4 alice.invalid\r\ns=call\r\n\
        c=IN IP4 10.0.0.1\r\nt=0 0\r\nm=audio 49170 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n";
    const SDP_BOB: &str = "v=0\r\no=- 3894 3894 IN IP4 bob.invalid\r\ns=call\r\n\
        c=IN IP4 10.0.0.1\r\nt=0 0\r\nm=audio 49170 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n";

    /// Wire bytes from header lines and a body: every line CRLF-ended,
    /// then the blank line, then the body.
    fn wire<S: AsRef<str>>(head: &[S], body: &str) -> Vec<u8> {
        let mut out = String::new();
        for line in head {
            out.push_str(line.as_ref());
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(body);
        out.into_bytes()
    }

    #[track_caller]
    fn assert_wire(out: &Outgoing, want: Vec<u8>) {
        assert_eq!(
            String::from_utf8_lossy(&out.bytes),
            String::from_utf8_lossy(&want),
            "plan bytes changed"
        );
        assert_eq!(&out.bytes[..], &want[..]);
    }

    /// Header lines of a bodiless response to alice's INVITE `c1`;
    /// `to_tag` is `""` or `";tag=…"`.
    fn to_alice(status: &str, to_tag: &str) -> Vec<String> {
        vec![
            status.to_string(),
            "Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKa1".to_string(),
            "From: <sip:alice@sip.lab>;tag=ft-alice".to_string(),
            format!("To: <sip:bob@sip.lab>{to_tag}"),
            "Call-ID: c1".to_string(),
            "CSeq: 1 INVITE".to_string(),
            "Max-Forwards: 70".to_string(),
            "Content-Length: 0".to_string(),
        ]
    }

    /// The INVITE alice's phone sends, as the proxy forwards it under
    /// `our_branch`.
    fn forwarded_invite(our_branch: &str) -> Vec<u8> {
        wire(
            &[
                "INVITE sip:bob@sip.lab SIP/2.0",
                &format!("Via: SIP/2.0/UDP h0:5060;branch={our_branch}"),
                "Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKa1",
                "From: <sip:alice@sip.lab>;tag=ft-alice",
                "To: <sip:bob@sip.lab>",
                "Call-ID: c1",
                "CSeq: 1 INVITE",
                "Contact: <sip:alice@h1:20001>",
                "Max-Forwards: 69",
                "Content-Length: 122",
            ],
            SDP_ALICE,
        )
    }

    #[test]
    fn invite_forward_and_trying_bytes() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(10), inv, a_src());
        assert_eq!(plan.out.len(), 2);
        assert_wire(&plan.out[0], wire(&to_alice("SIP/2.0 100 Trying", ""), ""));
        assert_wire(&plan.out[1], forwarded_invite("z9hG4bKpx1"));
    }

    #[test]
    fn relayed_responses_ack_and_bye_bytes() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(10), inv, a_src());
        let fwd = parse_message(&plan.out[1].bytes).unwrap();

        let ringing = gen::response(StatusCode::RINGING, &fwd, Some("bt"), None);
        let plan = c.handle_message(t(11), ringing, b_src());
        assert_wire(
            &plan.out[0],
            wire(&to_alice("SIP/2.0 180 Ringing", ";tag=bt"), ""),
        );

        let ok = gen::response(StatusCode::OK, &fwd, Some("bt"), Some(bob().contact()));
        let plan = c.handle_message(t(12), ok, b_src());
        assert_wire(
            &plan.out[0],
            wire(
                &[
                    "SIP/2.0 200 OK",
                    "Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKa1",
                    "From: <sip:alice@sip.lab>;tag=ft-alice",
                    "To: <sip:bob@sip.lab>;tag=bt",
                    "Call-ID: c1",
                    "CSeq: 1 INVITE",
                    "Contact: <sip:bob@h2:20002>",
                    "Max-Forwards: 70",
                    "Content-Length: 120",
                ],
                SDP_BOB,
            ),
        );

        let ack = gen::ack(&alice(), &bob(), "sip.lab", "c1", "bt", "z9hG4bKk1", "UDP");
        let plan = c.handle_message(t(13), ack, a_src());
        assert_wire(
            &plan.out[0],
            wire(
                &[
                    "ACK sip:bob@sip.lab SIP/2.0",
                    "Via: SIP/2.0/UDP h0:5060;branch=z9hG4bKpx2",
                    "Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKk1",
                    "From: <sip:alice@sip.lab>;tag=ft-alice",
                    "To: <sip:bob@sip.lab>;tag=bt",
                    "Call-ID: c1",
                    "CSeq: 1 ACK",
                    "Max-Forwards: 69",
                    "Content-Length: 0",
                ],
                "",
            ),
        );

        let bye = gen::bye(&alice(), &bob(), "sip.lab", "c1", "bt", "z9hG4bKb1", "UDP");
        let plan = c.handle_message(t(14), bye, a_src());
        assert_wire(
            &plan.out[0],
            wire(
                &[
                    "BYE sip:bob@sip.lab SIP/2.0",
                    "Via: SIP/2.0/UDP h0:5060;branch=z9hG4bKpx3",
                    "Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKb1",
                    "From: <sip:alice@sip.lab>;tag=ft-alice",
                    "To: <sip:bob@sip.lab>;tag=bt",
                    "Call-ID: c1",
                    "CSeq: 2 BYE",
                    "Max-Forwards: 69",
                    "Content-Length: 0",
                ],
                "",
            ),
        );
        let fwd_bye = parse_message(&plan.out[0].bytes).unwrap();
        let bye_ok = gen::response(StatusCode::OK, &fwd_bye, None, None);
        let plan = c.handle_message(t(15), bye_ok, b_src());
        assert_wire(
            &plan.out[0],
            wire(
                &[
                    "SIP/2.0 200 OK",
                    "Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKb1",
                    "From: <sip:alice@sip.lab>;tag=ft-alice",
                    "To: <sip:bob@sip.lab>;tag=bt",
                    "Call-ID: c1",
                    "CSeq: 2 BYE",
                    "Max-Forwards: 70",
                    "Content-Length: 0",
                ],
                "",
            ),
        );
    }

    #[test]
    fn cancel_relay_and_local_200_bytes() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c2", "z9hG4bKa2", "UDP");
        c.handle_message(t(20), inv, a_src());
        let cancel = gen::cancel(&alice(), &bob(), "sip.lab", "c2", "z9hG4bKa2", "UDP");
        let plan = c.handle_message(t(21), cancel, a_src());
        assert_eq!(plan.out.len(), 2);
        assert_wire(
            &plan.out[0],
            wire(
                &[
                    "SIP/2.0 200 OK",
                    "Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKa2",
                    "From: <sip:alice@sip.lab>;tag=ft-alice",
                    "To: <sip:bob@sip.lab>",
                    "Call-ID: c2",
                    "CSeq: 1 CANCEL",
                    "Max-Forwards: 70",
                    "Content-Length: 0",
                ],
                "",
            ),
        );
        // The relayed CANCEL reuses the forwarded INVITE's branch.
        assert_wire(
            &plan.out[1],
            wire(
                &[
                    "CANCEL sip:bob@sip.lab SIP/2.0",
                    "Via: SIP/2.0/UDP h0:5060;branch=z9hG4bKpx1",
                    "Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKa2",
                    "From: <sip:alice@sip.lab>;tag=ft-alice",
                    "To: <sip:bob@sip.lab>",
                    "Call-ID: c2",
                    "CSeq: 1 CANCEL",
                    "Max-Forwards: 69",
                    "Content-Length: 0",
                ],
                "",
            ),
        );
        assert_eq!(plan.out[1].dest, b_src());
    }

    #[test]
    fn stateless_response_relay_bytes() {
        let mut c = registered_core(Transport::Udp, false);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(10), inv, a_src());
        assert_wire(&plan.out[0], forwarded_invite("z9hG4bKpx1"));
        let fwd = parse_message(&plan.out[0].bytes).unwrap();
        let ringing = gen::response(StatusCode::RINGING, &fwd, Some("bt"), None);
        let plan = c.handle_message(t(11), ringing, b_src());
        assert_wire(
            &plan.out[0],
            wire(&to_alice("SIP/2.0 180 Ringing", ";tag=bt"), ""),
        );
        assert_eq!(plan.out[0].dest, SockAddr::new(HostId(1), 20001));
    }

    #[test]
    fn register_binds_contact_address() {
        let c = registered_core(Transport::Udp, true);
        assert_eq!(c.bindings(), 2);
        assert_eq!(
            c.contact_of("bob"),
            Some(SockAddr::new(HostId(2), 20002)),
            "binding comes from the Contact header"
        );
        assert_eq!(c.stats.registered, 2);
    }

    #[test]
    fn register_with_expires_zero_unbinds() {
        let mut c = registered_core(Transport::Udp, true);
        let mut reg = gen::register(&bob(), "sip.lab", 2, "z9hG4bKreg2", "UDP");
        reg.expires = Some(0);
        c.handle_message(t(1), reg, b_src());
        assert_eq!(c.contact_of("bob"), None);
        assert_eq!(c.bindings(), 1);
    }

    #[test]
    fn stateful_invite_sends_trying_and_forwards() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(10), inv, a_src());
        assert!(plan.txn_created);
        assert_eq!(plan.out.len(), 2);
        // First the 100 Trying back to the caller…
        let trying = parse_message(&plan.out[0].bytes).unwrap();
        assert_eq!(trying.status(), Some(StatusCode::TRYING));
        assert_eq!(plan.out[0].dest, a_src());
        // …then the forward to bob's registered contact, with our Via on
        // top and the hop budget spent.
        let fwd = parse_message(&plan.out[1].bytes).unwrap();
        assert_eq!(fwd.method(), Some(Method::Invite));
        assert_eq!(fwd.vias.len(), 2);
        assert_eq!(fwd.vias[0].sent_by, "h0:5060");
        assert_eq!(fwd.max_forwards, 69);
        // Forwards prefer the connection the callee registered over (its
        // source address); the Contact address is the connect fallback.
        assert_eq!(plan.out[1].dest, b_src());
        assert_eq!(plan.out[1].alt, Some(SockAddr::new(HostId(2), 20002)));
        assert_eq!(c.live_txns(), 1);
    }

    #[test]
    fn stateless_invite_skips_trying_and_state() {
        let mut c = registered_core(Transport::Udp, false);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(10), inv, a_src());
        assert!(!plan.txn_created);
        assert_eq!(plan.out.len(), 1, "no 100 Trying from a stateless proxy");
        assert_eq!(c.live_txns(), 0);
    }

    #[test]
    fn response_pops_via_and_returns_to_caller() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(10), inv, a_src());
        let fwd = parse_message(&plan.out[1].bytes).unwrap();

        // Bob's phone answers with 180 then 200.
        let ringing = gen::response(StatusCode::RINGING, &fwd, Some("bt"), None);
        let plan = c.handle_message(t(11), ringing, b_src());
        assert_eq!(plan.out.len(), 1);
        let up = parse_message(&plan.out[0].bytes).unwrap();
        assert_eq!(up.status(), Some(StatusCode::RINGING));
        assert_eq!(up.vias.len(), 1, "proxy via popped");
        assert_eq!(up.vias[0].branch, "z9hG4bKa1");
        assert_eq!(plan.out[0].dest, a_src());

        let ok = gen::response(StatusCode::OK, &fwd, Some("bt"), None);
        let plan = c.handle_message(t(12), ok, b_src());
        assert_eq!(plan.out.len(), 1);
        assert_eq!(c.live_txns(), 1, "completed txn lingers until reaped");
    }

    #[test]
    fn invite_retransmission_is_absorbed_with_last_response() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan1 = c.handle_message(t(10), inv.clone(), a_src());
        let fwd = parse_message(&plan1.out[1].bytes).unwrap();
        let ringing = gen::response(StatusCode::RINGING, &fwd, Some("bt"), None);
        c.handle_message(t(11), ringing, b_src());

        // The same INVITE again: absorbed, last response (180) resent.
        let plan2 = c.handle_message(t(12), inv, a_src());
        assert!(plan2.absorbed);
        assert_eq!(plan2.out.len(), 1);
        let resent = parse_message(&plan2.out[0].bytes).unwrap();
        assert_eq!(resent.status(), Some(StatusCode::RINGING));
        assert_eq!(c.stats.absorbed_retrans, 1);
        assert_eq!(c.stats.txns_created, 1, "no duplicate transaction");
    }

    #[test]
    fn ack_is_forwarded_statelessly() {
        let mut c = registered_core(Transport::Udp, true);
        let ack = gen::ack(&alice(), &bob(), "sip.lab", "c1", "bt", "z9hG4bKack", "UDP");
        let before = c.live_txns();
        let plan = c.handle_message(t(20), ack, a_src());
        assert_eq!(plan.out.len(), 1);
        assert!(!plan.txn_created);
        assert_eq!(c.live_txns(), before);
        let fwd = parse_message(&plan.out[0].bytes).unwrap();
        assert_eq!(fwd.method(), Some(Method::Ack));
        assert_eq!(fwd.vias.len(), 2);
    }

    #[test]
    fn unregistered_callee_gets_404() {
        let mut c = core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(10), inv, a_src());
        assert_eq!(plan.out.len(), 1);
        let resp = parse_message(&plan.out[0].bytes).unwrap();
        assert_eq!(resp.status(), Some(StatusCode::NOT_FOUND));
        assert_eq!(c.stats.route_failures, 1);
    }

    #[test]
    fn hop_limit_exhaustion_is_rejected() {
        let mut c = registered_core(Transport::Udp, true);
        let mut inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        inv.max_forwards = 0;
        let plan = c.handle_message(t(10), inv, a_src());
        assert_eq!(plan.out.len(), 1);
        let resp = parse_message(&plan.out[0].bytes).unwrap();
        assert_eq!(resp.status(), Some(StatusCode::SERVER_ERROR));
    }

    #[test]
    fn udp_transactions_retransmit_until_response() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        c.handle_message(t(0), inv, a_src());
        // T1 later: one retransmission of the stored forward.
        let pass = c.timer_pass(t(500));
        assert_eq!(pass.retransmits.len(), 1);
        assert_eq!(pass.retransmits[0].dest, b_src());
        // Doubling: nothing due yet at 600 ms.
        let pass = c.timer_pass(t(600));
        assert!(pass.retransmits.is_empty());
        let pass = c.timer_pass(t(1500));
        assert_eq!(pass.retransmits.len(), 1);
        assert_eq!(c.stats.retransmits_sent, 2);
    }

    #[test]
    fn tcp_transactions_never_retransmit() {
        let mut c = registered_core(Transport::Tcp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "TCP");
        c.handle_message(t(0), inv, a_src());
        let pass = c.timer_pass(t(5_000));
        assert!(pass.retransmits.is_empty(), "TCP retransmits for us");
    }

    #[test]
    fn transaction_timeout_produces_408_and_reap() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        c.handle_message(t(0), inv, a_src());
        let pass = c.timer_pass(t(32_000));
        assert_eq!(pass.timeouts.len(), 1);
        let resp = parse_message(&pass.timeouts[0].bytes).unwrap();
        assert_eq!(resp.status(), Some(StatusCode::REQUEST_TIMEOUT));
        assert_eq!(pass.timeouts[0].dest, a_src());
        assert_wire(
            &pass.timeouts[0],
            wire(&to_alice("SIP/2.0 408 Request Timeout", ""), ""),
        );
        assert_eq!(c.stats.txn_timeouts, 1);
        // After the linger, the transaction is reaped.
        let pass = c.timer_pass(t(40_000));
        assert_eq!(pass.reaped, 1);
        assert_eq!(c.live_txns(), 0);
    }

    #[test]
    fn completed_transactions_reap_after_linger() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(0), inv, a_src());
        let fwd = parse_message(&plan.out[1].bytes).unwrap();
        let ok = gen::response(StatusCode::OK, &fwd, Some("bt"), None);
        c.handle_message(t(100), ok, b_src());
        assert_eq!(c.live_txns(), 1);
        let pass = c.timer_pass(t(6_000));
        assert_eq!(pass.reaped, 1);
        assert_eq!(c.live_txns(), 0);
        // A straggler response for the reaped transaction is dropped.
        let late = gen::response(StatusCode::OK, &fwd, Some("bt"), None);
        let plan = c.handle_message(t(7_000), late, b_src());
        assert!(plan.out.is_empty());
    }

    #[test]
    fn response_without_our_via_is_dropped() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let ok = gen::response(StatusCode::OK, &inv, Some("bt"), None);
        let plan = c.handle_message(t(0), ok, b_src());
        assert!(plan.out.is_empty());
        assert_eq!(c.stats.route_failures, 1);
    }

    #[test]
    fn overloaded_core_sheds_invites_with_503() {
        use siperf_overload::QueueThreshold;
        let mut c = registered_core(Transport::Udp, true);
        // Shed at 1 active transaction, resume at 0.
        c.set_overload_policy(Box::new(QueueThreshold::new(1, 0, 3)));
        assert_eq!(c.overload_policy_name(), "queue-threshold");

        // First INVITE admitted (level 0 < high).
        let inv1 = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        let plan = c.handle_message(t(0), inv1.clone(), a_src());
        assert!(plan.txn_created && !plan.rejected);
        let fwd = parse_message(&plan.out[1].bytes).unwrap();

        // Second INVITE: one transaction pending → 503 with Retry-After,
        // no transaction, nothing forwarded downstream.
        let inv2 = gen::invite(&bob(), &alice(), "sip.lab", "c2", "z9hG4bKa2", "UDP");
        let plan = c.handle_message(t(1), inv2.clone(), b_src());
        assert!(plan.rejected && !plan.txn_created);
        assert_eq!(plan.out.len(), 1);
        let resp = parse_message(&plan.out[0].bytes).unwrap();
        assert_eq!(resp.status(), Some(StatusCode::SERVICE_UNAVAILABLE));
        assert_eq!(resp.retry_after, Some(3));
        assert_eq!(plan.out[0].dest, b_src());
        assert_eq!(c.stats.overload_rejections, 1);
        assert_eq!(c.live_txns(), 1);

        // The admitted call completes; the level drains and admission
        // resumes — the policy saw exactly one on_complete for its Admit.
        let ok = gen::response(StatusCode::OK, &fwd, Some("bt"), None);
        c.handle_message(t(2), ok, b_src());
        assert_eq!(c.load_signals().active_txns, 0);
        let plan = c.handle_message(t(3), inv2, b_src());
        assert!(plan.txn_created && !plan.rejected);
    }

    #[test]
    fn shedding_never_touches_in_call_requests() {
        use siperf_overload::QueueThreshold;
        let mut c = registered_core(Transport::Udp, true);
        c.set_overload_policy(Box::new(QueueThreshold::new(0, 0, 1)));
        // Every INVITE is shed…
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        assert!(c.handle_message(t(0), inv, a_src()).rejected);
        // …but ACK, BYE, and REGISTER still pass: they are not new calls.
        let ack = gen::ack(&alice(), &bob(), "sip.lab", "c0", "bt", "z9hG4bKk", "UDP");
        assert!(!c.handle_message(t(1), ack, a_src()).rejected);
        let bye = gen::bye(&alice(), &bob(), "sip.lab", "c0", "bt", "z9hG4bKb", "UDP");
        let plan = c.handle_message(t(2), bye, a_src());
        assert!(!plan.rejected && plan.txn_created);
        let reg = gen::register(&alice(), "sip.lab", 2, "z9hG4bKr2", "UDP");
        assert!(c.handle_message(t(3), reg, a_src()).registered);
    }

    #[test]
    fn retransmissions_and_unknown_callees_bypass_shedding() {
        use siperf_overload::QueueThreshold;
        let mut c = registered_core(Transport::Udp, true);
        c.set_overload_policy(Box::new(QueueThreshold::new(1, 0, 3)));
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        assert!(c.handle_message(t(0), inv.clone(), a_src()).txn_created);

        // The policy now sheds (level 1 ≥ high 1), yet the retransmission
        // is absorbed by its transaction, never 503'd.
        let plan = c.handle_message(t(1), inv, a_src());
        assert!(plan.absorbed && !plan.rejected);

        // An unknown callee gets its 404, not a 503.
        let nobody = gen::invite(
            &alice(),
            &CallParty::new("nobody", "h9:29999"),
            "sip.lab",
            "c2",
            "z9hG4bKa2",
            "UDP",
        );
        let plan = c.handle_message(t(2), nobody, a_src());
        assert!(!plan.rejected);
        let resp = parse_message(&plan.out[0].bytes).unwrap();
        assert_eq!(resp.status(), Some(StatusCode::NOT_FOUND));
        assert_eq!(c.stats.overload_rejections, 0);

        // …while a new routable call is shed.
        let inv = gen::invite(&bob(), &alice(), "sip.lab", "c3", "z9hG4bKa3", "UDP");
        assert!(c.handle_message(t(3), inv, b_src()).rejected);
    }

    #[test]
    fn each_invite_counts_once_against_a_window() {
        use siperf_overload::WindowFeedback;
        let mut c = registered_core(Transport::Udp, true);
        // Window of 8: if an INVITE charged the window twice, the 5th call
        // would already be shed.
        c.set_overload_policy(Box::new(WindowFeedback::new(usize::MAX, 1)));
        for i in 0..8 {
            let inv = gen::invite(
                &alice(),
                &bob(),
                "sip.lab",
                &format!("c{i}"),
                &format!("z9hG4bKa{i}"),
                "UDP",
            );
            let plan = c.handle_message(t(i), inv, a_src());
            assert!(plan.txn_created, "call {i} fits the window of 8");
        }
        let inv9 = gen::invite(&alice(), &bob(), "sip.lab", "c9", "z9hG4bKa9", "UDP");
        let plan = c.handle_message(t(9), inv9, a_src());
        assert!(
            plan.rejected && !plan.txn_created,
            "window exhausted only at its true size"
        );
    }

    #[test]
    fn timeouts_drain_the_active_count() {
        let mut c = registered_core(Transport::Udp, true);
        let inv = gen::invite(&alice(), &bob(), "sip.lab", "c1", "z9hG4bKa1", "UDP");
        c.handle_message(t(0), inv, a_src());
        assert_eq!(c.load_signals().active_txns, 1);
        c.timer_pass(t(32_000));
        assert_eq!(c.load_signals().active_txns, 0, "timeout completes it");
        // Reaping later must not double-decrement.
        c.timer_pass(t(40_000));
        assert_eq!(c.load_signals().active_txns, 0);
    }

    #[test]
    fn worker_backlog_reports_feed_the_load_signal() {
        let mut c = core(Transport::Tcp, true);
        c.note_worker_backlog(0, 7);
        c.note_worker_backlog(3, 5);
        assert_eq!(c.load_signals().worker_backlog, 12);
        c.note_worker_backlog(3, 0);
        assert_eq!(c.load_signals().worker_backlog, 7);
    }

    #[test]
    fn full_call_flow_counts_check_out() {
        let mut c = registered_core(Transport::Udp, true);
        let (al, bo) = (alice(), bob());

        // INVITE transaction.
        let inv = gen::invite(&al, &bo, "sip.lab", "c9", "z9hG4bKi", "UDP");
        let p = c.handle_message(t(0), inv, a_src());
        let fwd_inv = parse_message(&p.out[1].bytes).unwrap();
        c.handle_message(
            t(1),
            gen::response(StatusCode::RINGING, &fwd_inv, Some("bt"), None),
            b_src(),
        );
        c.handle_message(
            t(2),
            gen::response(StatusCode::OK, &fwd_inv, Some("bt"), None),
            b_src(),
        );
        c.handle_message(
            t(3),
            gen::ack(&al, &bo, "sip.lab", "c9", "bt", "z9hG4bKk", "UDP"),
            a_src(),
        );

        // BYE transaction.
        let bye = gen::bye(&al, &bo, "sip.lab", "c9", "bt", "z9hG4bKb", "UDP");
        let p = c.handle_message(t(4), bye, a_src());
        let fwd_bye = parse_message(&p.out.last().unwrap().bytes).unwrap();
        assert_eq!(fwd_bye.method(), Some(Method::Bye));
        assert_eq!(p.out.len(), 1, "no Trying for BYE");
        c.handle_message(
            t(5),
            gen::response(StatusCode::OK, &fwd_bye, None, None),
            b_src(),
        );

        assert_eq!(c.stats.txns_created, 2);
        // Forwards: INVITE, RINGING, OK, ACK, BYE, OK = 6.
        assert_eq!(c.stats.forwards, 6);
        assert_eq!(c.stats.absorbed_retrans, 0);
    }
}
