//! The proxy's shared application state and routing engine.
//!
//! [`ProxyCore`] is what lives in OpenSER's shared memory: the location
//! service (usrloc), the transaction table, and the statistics. It is pure
//! logic — no syscalls, no clocks of its own — so it can be unit-tested
//! exhaustively; the worker processes charge the simulated CPU and take the
//! simulated locks around each call into it, in exactly the order OpenSER
//! does (§3).

use std::borrow::Cow;
use std::rc::Rc;

use siperf_overload::{LoadSignals, NoControl, OverloadPolicy, Verdict};
use siperf_simcore::hash::FastMap;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;
use siperf_simnet::endpoint::{bytes_from, Bytes};
use siperf_sip::gen;
use siperf_sip::msg::{Method, SipMessage, StartLine, StatusCode, Via};
use siperf_sip::parse::{parse_message, ParseError};
use siperf_sip::scan::{push_decimal, scan, Scan, Start, Tail};
use siperf_sip::txn::{RetransClock, TimerVerdict, TxnKey};
use siperf_sip::Text;

use crate::config::Transport;
use crate::util::parse_sim_addr;

/// How long a completed transaction lingers before it is reaped.
pub(crate) const TXN_LINGER: SimDuration = SimDuration::from_secs(5);

/// The branches this proxy puts in its Vias start with the RFC 3261 magic
/// cookie, then `px`, then a counter.
const OUR_BRANCH: &str = "z9hG4bKpx";

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

/// One transaction, from its forward until it is reaped: what every
/// phase needs to match a message to it and to answer on its behalf.
#[derive(Debug)]
struct ProxyTxn {
    /// Creation order: the table is sorted by it.
    id: u64,
    upstream_key: TxnKey,
    downstream_key: TxnKey,
    caller_src: SockAddr,
    caller_via: Option<SockAddr>,
    /// Where the forward went; a relayed CANCEL follows it.
    callee_dst: SockAddr,
    /// Replayed to an absorbed retransmission.
    last_response: Option<Bytes>,
    phase: Phase,
}

/// The rest of a transaction's state, which depends on whether it has
/// ended.
#[derive(Debug)]
enum Phase {
    /// No final response yet. The forward is retransmitted on the clock,
    /// and a Timer B/F 408 is built from it.
    Pending {
        fwd_bytes: Bytes,
        clock: RetransClock,
        /// When the transaction was created (admission latency).
        started: SimTime,
        /// The overload policy admitted this transaction and is owed
        /// exactly one `on_complete` or `on_timeout`.
        policy_tracked: bool,
    },
    /// Completed or timed out: kept only to absorb retransmissions, and
    /// reaped at `reap_at`. Nothing reads the forward any more, so it is
    /// released.
    Lingering { reap_at: SimTime },
}

/// The transactions in creation order. Ids only grow, so new ones go at
/// the end and a lookup is a binary search. Reaping removes wherever it
/// finds, so the table holds only live and lingering transactions, however
/// far apart their ids are.
#[derive(Debug, Default)]
struct TxnTable(Vec<ProxyTxn>);

impl TxnTable {
    /// Where transaction `id` is. Most lookups are for recent transactions,
    /// and reaping leaves gaps mostly among old ones, so the slot `id`
    /// would have with no gap after it is tried first.
    fn slot(&self, id: u64) -> Option<usize> {
        let from_end = self.0.last()?.id.checked_sub(id)?;
        let guess = usize::try_from(from_end)
            .ok()
            .and_then(|back| self.0.len().checked_sub(back + 1));
        match guess {
            Some(at) if self.0[at].id == id => Some(at),
            _ => self.0.binary_search_by_key(&id, |txn| txn.id).ok(),
        }
    }

    fn get(&self, id: u64) -> Option<&ProxyTxn> {
        self.slot(id).map(|at| &self.0[at])
    }

    fn get_mut(&mut self, id: u64) -> Option<&mut ProxyTxn> {
        self.slot(id).map(|at| &mut self.0[at])
    }

    fn push(&mut self, txn: ProxyTxn) {
        debug_assert!(self.0.last().is_none_or(|last| last.id < txn.id));
        self.0.push(txn);
    }

    /// Keeps the transactions `keep` returns true for, visiting them in
    /// creation order, and gives back the room a burst left behind.
    fn retain(&mut self, keep: impl FnMut(&mut ProxyTxn) -> bool) {
        self.0.retain_mut(keep);
        if self.0.len() < self.0.capacity() / 4 {
            self.0.shrink_to(self.0.len() * 2);
        }
    }
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

/// One received message as the routing logic reads it. [`ProxyCore`] reads
/// a few fields through it: the start line, the top Via, the `To` user,
/// `Max-Forwards` and the `CSeq` method. It asks it for the forward, the
/// relay and the replies. A scanned message splices its bytes for the
/// forward, the relay and the 100 Trying; everything else goes through the
/// builders, on the message parsed when first needed.
// One lives on the stack per message; boxing the parsed variant would add
// an allocation to every parsed message instead.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Inbound<'a> {
    /// In the layout [`scan`] reads, as the call's INVITE, ACK, BYE, 100,
    /// 180 and 200 arrive.
    Scanned(Scan<'a>),
    /// Parsed: REGISTER, CANCEL and the responses to it, and anything
    /// else not in that layout.
    Parsed(SipMessage),
}

impl<'a> Inbound<'a> {
    /// Reads `raw`: scanned if it can be, parsed otherwise.
    ///
    /// # Errors
    ///
    /// The parser's error, if `raw` neither scans nor parses.
    pub fn read(raw: &'a [u8]) -> Result<Inbound<'a>, ParseError> {
        match scan(raw) {
            Some(msg) => Ok(Inbound::Scanned(msg)),
            None => parse_message(raw).map(Inbound::Parsed),
        }
    }

    /// Request method or status code.
    fn start(&self) -> Start {
        match self {
            Inbound::Scanned(msg) => msg.start,
            Inbound::Parsed(msg) => match msg.start {
                StartLine::Request { method, .. } => Start::Request(method),
                StartLine::Response { code } => Start::Response(code),
            },
        }
    }

    /// True for a request.
    pub(crate) fn is_request(&self) -> bool {
        matches!(self.start(), Start::Request(_))
    }

    /// The top Via's sent-by and branch.
    fn top_via(&self) -> Option<(&str, &str)> {
        match self {
            Inbound::Scanned(msg) => Some((msg.sent_by, msg.branch)),
            Inbound::Parsed(msg) => msg.vias.first().map(|v| (&*v.sent_by, &*v.branch)),
        }
    }

    fn to_user(&self) -> &str {
        match self {
            Inbound::Scanned(msg) => msg.to_user,
            Inbound::Parsed(msg) => &msg.to.uri.user,
        }
    }

    fn max_forwards(&self) -> u32 {
        match self {
            Inbound::Scanned(msg) => msg.max_forwards,
            Inbound::Parsed(msg) => msg.max_forwards,
        }
    }

    fn cseq_method(&self) -> Method {
        match self {
            Inbound::Scanned(msg) => msg.cseq_method,
            Inbound::Parsed(msg) => msg.cseq_method,
        }
    }

    /// The message parsed, for what is not spliced.
    fn parsed(&self) -> Cow<'_, SipMessage> {
        match self {
            Inbound::Scanned(msg) => Cow::Owned(parse_scanned(msg)),
            Inbound::Parsed(msg) => Cow::Borrowed(msg),
        }
    }

    /// The `code` reply to this request, as `gen::response` writes it
    /// without a `To` tag, or with `retry_after` the 503 that sheds it, as
    /// `gen::service_unavailable` writes it. Only the 100 Trying and the
    /// 503 are spliced; the rarer replies go through the builders.
    fn reply(&self, buf: &mut Vec<u8>, code: StatusCode, retry_after: Option<u32>) -> Bytes {
        match self {
            Inbound::Scanned(msg) if code == StatusCode::TRYING || retry_after.is_some() => {
                buf.clear();
                let tail = retry_after.map_or(Tail::Bare, Tail::RetryAfter);
                msg.write_reply(buf, code, None, tail);
                spliced(buf, || built_reply(code, retry_after, &parse_scanned(msg)))
            }
            _ => bytes_from(built_reply(code, retry_after, &self.parsed())),
        }
    }

    /// This request as forwarded under our Via: `transport`, `sent_by` and
    /// `branch` on top, one hop spent.
    fn forward(self, buf: &mut Vec<u8>, transport: &str, sent_by: &Text, branch: &str) -> Bytes {
        match self {
            Inbound::Scanned(msg) => {
                buf.clear();
                msg.write_forward(buf, transport, sent_by, branch);
                spliced(buf, || {
                    built_forward(parse_scanned(&msg), transport, sent_by, branch)
                })
            }
            Inbound::Parsed(msg) => bytes_from(built_forward(msg, transport, sent_by, branch)),
        }
    }

    /// This response as relayed: its top Via, ours, popped.
    fn relay(self, buf: &mut Vec<u8>) -> Bytes {
        match self {
            Inbound::Scanned(msg) => {
                buf.clear();
                msg.write_relay(buf);
                spliced(buf, || built_relay(parse_scanned(&msg)))
            }
            Inbound::Parsed(msg) => bytes_from(built_relay(msg)),
        }
    }
}

/// A scanned message, parsed: the builders' input.
fn parse_scanned(msg: &Scan<'_>) -> SipMessage {
    parse_message(msg.wire()).expect("whatever scans parses")
}

fn built_reply(code: StatusCode, retry_after: Option<u32>, req: &SipMessage) -> Vec<u8> {
    match retry_after {
        Some(secs) => gen::service_unavailable(req, secs),
        None => gen::response(code, req, None, None),
    }
    .to_bytes()
}

fn built_forward(mut msg: SipMessage, transport: &str, sent_by: &Text, branch: &str) -> Vec<u8> {
    msg.vias
        .insert(0, Via::new(transport, sent_by.clone(), branch));
    msg.max_forwards -= 1;
    msg.to_bytes()
}

fn built_relay(mut msg: SipMessage) -> Vec<u8> {
    msg.vias.remove(0);
    msg.to_bytes()
}

/// The spliced bytes in `buf`, copied out. Debug builds check that the
/// builders write the same bytes for the same message.
#[track_caller]
fn spliced(buf: &[u8], built: impl FnOnce() -> Vec<u8>) -> Bytes {
    if cfg!(debug_assertions) {
        assert_eq!(
            String::from_utf8_lossy(buf),
            String::from_utf8_lossy(&built()),
            "the splice disagrees with the builders"
        );
    }
    Bytes::from(buf)
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
    // In creation order, so `timer_pass` emits retransmissions and
    // timeouts in a run-independent order (HashMap iteration order would
    // leak the hasher seed into the packet schedule).
    txns: TxnTable,
    next_txn: u64,
    next_branch: u64,
    /// The last branch [`fresh_branch`](Self::fresh_branch) wrote.
    branch: Vec<u8>,
    /// The buffer each spliced message is written into before it is
    /// copied out.
    buf: Vec<u8>,
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
            txns: TxnTable::default(),
            next_txn: 1,
            next_branch: 1,
            branch: OUR_BRANCH.as_bytes().to_vec(),
            buf: Vec::new(),
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
        self.txns.0.len()
    }

    /// Looks up a user's registered contact address.
    pub fn contact_of(&self, user: &str) -> Option<SockAddr> {
        self.registrar.get(user).map(|b| b.contact)
    }

    /// Writes the next branch of ours, `z9hG4bKpx{n}`, into `self.branch`.
    fn fresh_branch(&mut self) {
        self.branch.truncate(OUR_BRANCH.len());
        push_decimal(&mut self.branch, self.next_branch);
        self.next_branch += 1;
    }

    fn reply(&mut self, code: StatusCode, req: &Inbound<'_>, dest: SockAddr) -> Outgoing {
        self.stats.local_replies += 1;
        Outgoing {
            bytes: req.reply(&mut self.buf, code, None),
            dest,
            alt: None,
        }
    }

    /// Routes one parsed message; see [`handle`](Self::handle).
    pub fn handle_message(&mut self, now: SimTime, msg: SipMessage, src: SockAddr) -> Plan {
        self.handle(now, Inbound::Parsed(msg), src)
    }

    /// Routes one message, scanned or parsed: both give the same plan. The
    /// caller must hold the transaction lock, per OpenSER's discipline.
    pub fn handle(&mut self, now: SimTime, msg: Inbound<'_>, src: SockAddr) -> Plan {
        match msg.start() {
            Start::Request(method) => self.handle_request(now, msg, method, src),
            Start::Response(code) => self.handle_response(now, msg, code),
        }
    }

    fn handle_request(
        &mut self,
        now: SimTime,
        msg: Inbound<'_>,
        method: Method,
        src: SockAddr,
    ) -> Plan {
        self.stats.requests += 1;
        let mut plan = Plan::default();

        if method == Method::Register {
            let reg = msg.parsed();
            let contact = reg
                .contact
                .as_ref()
                .and_then(|c| parse_sim_addr(&c.host))
                .unwrap_or(src);
            let binding = Binding {
                conn_hint: src,
                contact,
            };
            let user = &*reg.to.uri.user;
            if reg.expires == Some(0) {
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
            let branch = msg.top_via().map_or("", |(_, branch)| branch);
            let Some(id) = self.txn_index.get(Method::Invite, branch) else {
                plan.out
                    .push(self.reply(StatusCode::NO_TRANSACTION, &msg, src));
                self.stats.route_failures += 1;
                return plan;
            };
            let (dst, downstream_branch) = {
                let txn = self.txns.get(id).expect("index is consistent");
                (txn.callee_dst, txn.downstream_key.branch.clone())
            };
            plan.out.push(self.reply(StatusCode::OK, &msg, src));
            let bytes = msg.forward(
                &mut self.buf,
                self.transport.token(),
                &self.via_sent_by,
                &downstream_branch,
            );
            self.stats.cancels_relayed += 1;
            self.stats.forwards += 1;
            plan.out.push(Outgoing {
                bytes,
                dest: dst,
                alt: Some(dst),
            });
            return plan;
        }

        // Retransmission? (Stateful proxies absorb them, §2.)
        if self.stateful && method != Method::Ack {
            if let Some((_, branch)) = msg.top_via() {
                if let Some(id) = self.txn_index.get(method, branch) {
                    plan.absorbed = true;
                    self.stats.absorbed_retrans += 1;
                    if let Some(txn) = self.txns.get(id) {
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

        if msg.max_forwards() == 0 {
            self.stats.route_failures += 1;
            plan.out
                .push(self.reply(StatusCode::SERVER_ERROR, &msg, src));
            return plan;
        }

        // Location-service lookup (the caller holds usrloc's lock around
        // this in the worker code).
        let Some(binding) = self.registrar.get(msg.to_user()).copied() else {
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
                let code = StatusCode::SERVICE_UNAVAILABLE;
                plan.out.push(Outgoing {
                    bytes: msg.reply(&mut self.buf, code, Some(retry_after)),
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
        let caller_via = msg
            .top_via()
            .and_then(|(sent_by, _)| parse_sim_addr(sent_by));
        let upstream_key = if self.stateful && method != Method::Ack {
            if method == Method::Invite {
                plan.out.push(self.reply(StatusCode::TRYING, &msg, src));
            }
            let (_, branch) = msg.top_via().expect("requests carry a Via");
            Some(TxnKey {
                branch: branch.into(),
                method,
            })
        } else {
            None
        };

        // The request becomes the forward: our Via on top, a hop spent.
        self.fresh_branch();
        let branch = std::str::from_utf8(&self.branch).expect("branches are ASCII");
        let fwd_bytes = msg.forward(
            &mut self.buf,
            self.transport.token(),
            &self.via_sent_by,
            branch,
        );

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
            self.txns.push(ProxyTxn {
                id,
                upstream_key,
                downstream_key,
                caller_src: src,
                caller_via,
                callee_dst: dst,
                last_response: None,
                phase: Phase::Pending {
                    fwd_bytes: fwd_bytes.clone(),
                    clock,
                    started: now,
                    policy_tracked,
                },
            });
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

    fn handle_response(&mut self, now: SimTime, msg: Inbound<'_>, code: StatusCode) -> Plan {
        self.stats.responses += 1;
        let mut plan = Plan::default();

        // Our Via must be on top; the relay pops it.
        let Some((_, our_branch)) = msg
            .top_via()
            .filter(|&(sent_by, _)| sent_by == &*self.via_sent_by)
        else {
            self.stats.route_failures += 1;
            return plan;
        };

        if !self.stateful {
            // Stateless: relay towards the next Via.
            let next = msg
                .parsed()
                .vias
                .get(1)
                .and_then(|v| parse_sim_addr(&v.sent_by));
            let Some(dest) = next else {
                self.stats.route_failures += 1;
                return plan;
            };
            self.stats.forwards += 1;
            plan.out.push(Outgoing {
                bytes: msg.relay(&mut self.buf),
                dest,
                alt: Some(dest),
            });
            return plan;
        }

        let cseq_method = msg.cseq_method();
        let Some(id) = self.txn_index.get(cseq_method, our_branch) else {
            if cseq_method == Method::Cancel {
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
        let bytes = msg.relay(&mut self.buf);
        let txn = self.txns.get_mut(id).expect("index is consistent");
        txn.last_response = Some(bytes.clone());
        if code.is_provisional() {
            // Provisional response: stop request retransmissions (Timer A),
            // keep the transaction alive.
            if let Phase::Pending { clock, .. } = &mut txn.phase {
                clock.stop();
            }
        } else {
            if let Phase::Pending {
                started,
                policy_tracked,
                ..
            } = txn.phase
            {
                self.active_txns -= 1;
                if policy_tracked {
                    self.policy.on_complete(now, txn.caller_src, now - started);
                }
            }
            // A retransmitted final response restarts the linger.
            txn.phase = Phase::Lingering {
                reap_at: now + TXN_LINGER,
            };
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
        self.txns.retain(|txn| {
            pass.examined += 1;
            let (fwd_bytes, clock, policy_tracked) = match &mut txn.phase {
                Phase::Lingering { reap_at } if *reap_at > now => return true,
                Phase::Lingering { .. } => {
                    self.txn_index.remove(&txn.upstream_key);
                    self.txn_index.remove(&txn.downstream_key);
                    self.stats.txns_reaped += 1;
                    pass.reaped += 1;
                    return false;
                }
                Phase::Pending {
                    fwd_bytes,
                    clock,
                    policy_tracked,
                    ..
                } => (fwd_bytes, clock, *policy_tracked),
            };
            match clock.check(now) {
                TimerVerdict::Retransmit { .. } => {
                    pass.retransmits.push(Outgoing {
                        bytes: fwd_bytes.clone(),
                        dest: txn.callee_dst,
                        alt: Some(txn.callee_dst),
                    });
                }
                TimerVerdict::TimedOut => {
                    if let Some(bytes) = timeout_response(fwd_bytes) {
                        pass.timeouts.push(Outgoing {
                            bytes,
                            dest: txn.caller_src,
                            alt: txn.caller_via,
                        });
                    }
                    // The 408 is built: the forward goes with the phase.
                    txn.phase = Phase::Lingering {
                        reap_at: now + TXN_LINGER,
                    };
                    self.stats.txn_timeouts += 1;
                    self.active_txns -= 1;
                    if policy_tracked {
                        self.policy.on_timeout(now, txn.caller_src);
                    }
                }
                TimerVerdict::Wait { .. } | TimerVerdict::Done => {}
            }
            true
        });
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

    /// Forwards alice's INVITE `c{n}` at `ms` and returns the forward.
    fn invite_forwarded(c: &mut ProxyCore, ms: u64, n: u32) -> Bytes {
        let (id, branch) = (format!("c{n}"), format!("z9hG4bKa{n}"));
        let inv = gen::invite(&alice(), &bob(), "sip.lab", &id, &branch, "UDP");
        let mut plan = c.handle_message(t(ms), inv, a_src());
        plan.out.pop().expect("the forward").bytes
    }

    /// Bob's `code` to the forward `fwd`, at `ms`.
    fn answer(c: &mut ProxyCore, ms: u64, fwd: &[u8], code: StatusCode) -> Plan {
        let resp = gen::response(code, &parse_message(fwd).unwrap(), Some("bt"), None);
        c.handle_message(t(ms), resp, b_src())
    }

    fn call_ids(outs: &[Outgoing]) -> Vec<String> {
        let id = |out: &Outgoing| parse_message(&out.bytes).unwrap().call_id.to_string();
        outs.iter().map(id).collect()
    }

    #[test]
    fn a_final_response_to_an_invite_releases_the_forward() {
        let mut c = registered_core(Transport::Udp, true);
        let fwd = invite_forwarded(&mut c, 0, 1);
        answer(&mut c, 1, &fwd, StatusCode::RINGING);
        assert_eq!(Rc::strong_count(&fwd), 2, "a pending INVITE keeps it");
        answer(&mut c, 2, &fwd, StatusCode::OK);
        assert_eq!(Rc::strong_count(&fwd), 1, "the 200 releases it");
        assert_eq!(c.live_txns(), 1);
    }

    #[test]
    fn a_final_response_to_a_bye_releases_the_forward() {
        let mut c = registered_core(Transport::Udp, true);
        let bye = gen::bye(&alice(), &bob(), "sip.lab", "c1", "bt", "z9hG4bKb1", "UDP");
        let plan = c.handle_message(t(0), bye, a_src());
        assert!(plan.txn_created);
        let fwd = plan.out.into_iter().next().unwrap().bytes;
        assert_eq!(Rc::strong_count(&fwd), 2, "the pending BYE keeps it");
        let ok = gen::response(StatusCode::OK, &parse_message(&fwd).unwrap(), None, None);
        c.handle_message(t(1), ok, b_src());
        assert_eq!(Rc::strong_count(&fwd), 1, "the 200 releases it");
        assert_eq!(c.live_txns(), 1);
    }

    #[test]
    fn a_timeout_releases_the_forward_once_its_408_is_built() {
        let mut c = registered_core(Transport::Udp, true);
        let fwd = invite_forwarded(&mut c, 0, 1);
        let pass = c.timer_pass(t(32_000));
        assert_eq!(call_ids(&pass.timeouts), ["c1"], "the 408 is built");
        assert_eq!(Rc::strong_count(&fwd), 1, "Timer B releases it");
        assert_eq!(c.live_txns(), 1);
    }

    #[test]
    fn timer_passes_follow_creation_order() {
        let mut c = registered_core(Transport::Udp, true);
        // c0 and c2 stay pending around c1, which completes and is reaped.
        invite_forwarded(&mut c, 0, 0);
        let fwd1 = invite_forwarded(&mut c, 0, 1);
        invite_forwarded(&mut c, 0, 2);
        answer(&mut c, 100, &fwd1, StatusCode::OK);
        assert_eq!(c.timer_pass(t(6_000)).reaped, 1);
        // Later transactions go after every earlier one, even where one
        // was reaped: pending c3, c5 and c7 around completed c4 and c6.
        invite_forwarded(&mut c, 6_000, 3);
        let fwd4 = invite_forwarded(&mut c, 6_000, 4);
        answer(&mut c, 6_100, &fwd4, StatusCode::OK);
        invite_forwarded(&mut c, 20_000, 5);
        let fwd6 = invite_forwarded(&mut c, 20_000, 6);
        answer(&mut c, 20_100, &fwd6, StatusCode::OK);
        invite_forwarded(&mut c, 20_000, 7);

        let pass = c.timer_pass(t(40_000));
        assert_eq!(call_ids(&pass.timeouts), ["c0", "c2", "c3"]);
        assert_eq!(call_ids(&pass.retransmits), ["c5", "c7"]);
        assert_eq!((pass.examined, pass.reaped), (7, 2));
        assert_eq!(c.live_txns(), 5);
        // Each one left is found by its id across the gaps; c1 is gone.
        for txn in &c.txns.0 {
            assert_eq!(c.txns.get(txn.id).map(|found| found.id), Some(txn.id));
        }
        assert!(c.txns.get(2).is_none());
    }

    #[test]
    fn a_stuck_transaction_does_not_pin_the_reaped_ones() {
        let mut c = registered_core(Transport::Udp, true);
        // c0 waits 32 s for Timer B while 1,000 later calls complete.
        invite_forwarded(&mut c, 0, 0);
        for n in 1..=1_000 {
            let fwd = invite_forwarded(&mut c, 1, n);
            answer(&mut c, 2, &fwd, StatusCode::OK);
        }
        assert_eq!(c.live_txns(), 1_001);
        assert_eq!(c.timer_pass(t(6_000)).reaped, 1_000);
        assert_eq!(c.live_txns(), 1);
        assert!(c.txns.0.capacity() <= 4, "{} slots", c.txns.0.capacity());
        let pass = c.timer_pass(t(32_000));
        assert_eq!(call_ids(&pass.timeouts), ["c0"]);
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
