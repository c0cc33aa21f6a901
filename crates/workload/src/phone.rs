//! Transport-independent phone behaviour.
//!
//! The benchmark simulates thousands of phones (§4.2): callers place calls
//! through the proxy, callees answer them. [`CallEngine`] is the caller's
//! brain — it builds requests, tracks every call in flight with its RFC 3261
//! retransmission clock, and decides what to do with each response —
//! independent of how bytes reach the proxy, so the UDP/SCTP and TCP phone
//! processes stay thin and the logic is unit-testable.
//!
//! One engine serves both caller architectures, chosen by [`Arrivals`]:
//!
//! * [`Arrivals::Closed`] is the paper's workload: one call in flight per
//!   caller/callee pair, the next one starting when the previous ends, so a
//!   slow proxy automatically slows the offered load.
//! * [`Arrivals::Poisson`] originates calls on a seeded Poisson clock
//!   *regardless of how many are outstanding*, the arrival process behind
//!   the goodput-vs-offered-load curves of the overload-control literature
//!   (Hong/Huang/Yan; Shen/Schulzrinne). A failed or shed call starts no
//!   successor, which is what lets the offered rate exceed capacity and the
//!   goodput cliff appear.
//!
//! Either way the engine holds a pool of calls keyed by Call-ID; a closed
//! loop is simply a pool that never holds more than one.
//!
//! # Templates and the scanner
//!
//! A load generator needs none of a SIP stack's generality, so the phones
//! drive load the way SIPp does, from message templates with per-call
//! fields. The first time a caller sends an INVITE, ACK, BYE or CANCEL, it
//! renders that request once through the [`gen`] builders, with a marker
//! byte in place of each per-call field, and cuts the markers out into
//! holes: the call number (in the Call-ID `c{n}-{user}` and the branches
//! `z9hG4bK{user}{i|a|b}{n}`), the callee's user name and its `To` tag.
//! Each request is then the template with the call's fields spliced in,
//! written into one reused buffer. A callee ([`Callee`]) answers an INVITE
//! or a BYE with [`Scan::write_reply`]: the request's own Via, `From`,
//! `To`, `Call-ID` and `CSeq` bytes between fixed text in
//! [`SipMessage::to_bytes`]' header order, with its `To` tag added when
//! the request has none.
//!
//! Incoming messages are read by [`siperf_sip::scan`], which reads the
//! few shapes a phone expects in place. Whatever it declines (503
//! shedding, CANCEL and its 487, the REGISTER exchange, any stray or
//! unusual message) goes through [`parse_message`] and the builders, as
//! before. Either way the phones put exactly the bytes on the wire that
//! the builders would.
//!
//! Debug builds check that on every message: each templated request and
//! each echoed answer is also built through [`gen`] and compared, and each
//! scanned response is also parsed, so every test that runs a scenario
//! checks the templates.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::Rc;

use siperf_proxy::config::Transport;
use siperf_proxy::util::parse_sim_addr;
use siperf_simcore::rng::SimRng;
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::SockAddr;
use siperf_simnet::endpoint::{bytes_from, Bytes};
use siperf_simnet::HostId;
use siperf_sip::gen::{self, CallParty, BRANCH_COOKIE};
use siperf_sip::msg::{Method, SipMessage, StatusCode};
use siperf_sip::parse::parse_message;
use siperf_sip::scan::{push_decimal, scan, Scan, Start, Tail};
use siperf_sip::txn::{RetransClock, TimerVerdict, TIMEOUT};

use crate::stats::WorkloadStats;

/// Ceiling on the 503 retry backoff in seconds, however many rejections
/// pile up and whatever `Retry-After` the proxy advertises.
pub const REJECT_BACKOFF_CAP_SECS: u64 = 8;

/// [`REJECT_BACKOFF_CAP_SECS`] as a duration.
pub const REJECT_BACKOFF_CAP: SimDuration = SimDuration::from_secs(REJECT_BACKOFF_CAP_SECS);

/// Computes the capped-exponential 503 backoff with bounded "equal jitter":
/// half the nominal delay is kept, the other half drawn uniformly from the
/// phone's own RNG stream, so the delay lands in `[nominal/2, nominal]`.
/// Without the jitter every phone shed in the same burst would wake on
/// exactly the same virtual tick `retry_after · 2^k` later and re-offer its
/// load in lockstep; with it the retries spread out while the delay stays
/// below [`REJECT_BACKOFF_CAP`] and replays identically from the seed.
pub fn reject_backoff(retry_after: u32, consecutive_rejects: u32, rng: &mut SimRng) -> SimDuration {
    let base = u64::from(retry_after.max(1));
    let shifted = base
        .checked_shl(consecutive_rejects.min(16))
        .unwrap_or(u64::MAX);
    let nominal_ns = shifted.min(REJECT_BACKOFF_CAP_SECS) * 1_000_000_000;
    let half = nominal_ns / 2;
    SimDuration::from_nanos(half + rng.range_u64(0..half + 1))
}

/// When a caller originates calls.
#[derive(Debug, Clone)]
pub enum Arrivals {
    /// Closed loop (§4.2): one call at a time to `peer`. The next call
    /// starts when the previous one ends (completed, failed, timed out or
    /// cancelled) or when its 503 retry comes due.
    Closed {
        /// User name of the callee.
        peer: String,
    },
    /// Open loop: calls arrive at `rate` per second with exponential gaps,
    /// each to a callee drawn uniformly from `callees`, whatever the
    /// number already outstanding.
    Poisson {
        /// Mean calls per second.
        rate: f64,
        /// User names of the callees to dial.
        callees: Vec<String>,
    },
}

/// Whether a phone answers calls or places them.
#[derive(Debug, Clone)]
pub enum Role {
    /// Answers: 180 + 200 to INVITE, 200 to BYE, 200 + 487 to CANCEL.
    Callee,
    /// Places calls on the given arrival process.
    Caller(Arrivals),
}

/// CPU charged per message a phone handles.
pub(crate) const PROC_NS: u64 = 600;

/// Static description of one phone.
#[derive(Debug, Clone)]
pub struct PhoneCfg {
    /// SIP user name.
    pub user: String,
    /// Callee, or caller with its arrival process.
    pub role: Role,
    /// The phone's fixed local port (contact/listen port).
    pub port: u16,
    /// The proxy's address.
    pub proxy: SockAddr,
    /// SIP domain served by the proxy.
    pub domain: String,
    /// Transport to the proxy; gives the Via/Contact token and whether the
    /// transport retransmits for us.
    pub transport: Transport,
    /// When callers may start dialing (registration happens before).
    pub call_start: SimTime,
    /// Per-phone startup stagger before registering.
    pub stagger: SimDuration,
    /// Reconnect after this many operations (TCP; `None` = persistent).
    pub ops_per_conn: Option<u32>,
    /// Abandon (CANCEL) every k-th call while it rings (`None` = never).
    pub cancel_every: Option<u64>,
    /// Setup-delay budget: a call whose INVITE transaction takes longer
    /// still completes (the proxy paid for it) but scores zero goodput, the
    /// way the overload literature counts sessions established past their
    /// deadline. `None` counts every completion.
    pub setup_deadline: Option<SimDuration>,
    /// How long callees ring before answering 200 (zero = instant answer,
    /// the paper's workload; nonzero makes CANCEL races winnable).
    pub ring_delay: SimDuration,
    /// Seed for the phone's private RNG stream (arrival gaps, callee choice,
    /// 503 backoff jitter). Each phone gets its own stream so its draws
    /// never perturb any other phone's behaviour and same-seed runs replay
    /// bit-identically.
    pub seed: u64,
    /// Shared result sink.
    pub stats: Rc<RefCell<WorkloadStats>>,
}

impl PhoneCfg {
    /// This phone as a SIP party (contact host is its `hN:port`).
    pub fn party(&self, host: HostId) -> CallParty {
        CallParty::new(self.user.clone(), format!("{}:{}", host, self.port))
    }

    /// Builds this phone's REGISTER request.
    pub fn register_msg(&self, host: HostId) -> Bytes {
        let party = self.party(host);
        let msg = gen::register(
            &party,
            &self.domain,
            1,
            &format!("z9hG4bKreg{}", self.user),
            self.transport.token(),
        );
        bytes_from(msg.to_bytes())
    }
}

/// Whether `msg` is the proxy's success response to our REGISTER.
pub(crate) fn is_register_ok(msg: &SipMessage) -> bool {
    msg.status().is_some_and(|c| c.is_success()) && msg.cseq_method == Method::Register
}

/// A request's retransmission clock: Timer A on an unreliable transport,
/// only the Timer B deadline on a reliable one.
fn new_clock(reliable: bool, now: SimTime) -> RetransClock {
    if reliable {
        RetransClock::reliable(now)
    } else {
        RetransClock::new(now, Method::Invite)
    }
}

/// Phase of one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CallPhase {
    /// INVITE sent; waiting for any response, then the 200.
    AwaitInvite,
    /// ACK and BYE sent; waiting for the BYE's 200.
    AwaitByeOk,
}

/// Per-call transaction state held in the pool, under the call number
/// `n` of its Call-ID `c{n}-{user}`.
#[derive(Debug)]
struct Call {
    /// Index of the dialed callee in the engine's peer list.
    peer: usize,
    phase: CallPhase,
    clock: RetransClock,
    deadline: SimTime,
    cur_msg: Bytes,
    txn_start: SimTime,
    cancel_pending: bool,
    cancel_sent: bool,
    /// The call hit a transport fault (reset) and was re-driven; when it
    /// still completes, it counts as recovered.
    disturbed: bool,
    /// Setup exceeded the deadline budget: finish the call but record no
    /// goodput for it.
    late: bool,
}

impl Call {
    /// The instant this call next needs the engine's attention.
    fn next_event(&self) -> SimTime {
        if self.clock.is_stopped() {
            self.deadline
        } else {
            self.clock.next_at().min(self.deadline)
        }
    }
}

/// A per-call field of a caller's request.
#[derive(Debug, Clone, Copy)]
enum Hole {
    /// The call number `n`, in the Call-ID and the branch.
    CallNo,
    /// The callee's user name, in the Request-URI and `To`.
    Peer,
    /// The callee's `To` tag (ACK and BYE).
    ToTag,
}

impl Hole {
    /// The text a template is rendered with in the field's place: a
    /// control character, 1 to 3, which no user name, domain or address
    /// holds.
    fn marker(self) -> String {
        char::from(self as u8 + 1).to_string()
    }

    /// The hole `byte` marks, if any.
    fn of(byte: u8) -> Option<Hole> {
        [Hole::CallNo, Hole::Peer, Hole::ToTag]
            .get(usize::from(byte).wrapping_sub(1))
            .copied()
    }
}

/// A message rendered once, with holes for the per-call fields.
#[derive(Debug)]
struct Template {
    /// The rendered message with its markers cut out.
    text: Vec<u8>,
    /// Where each hole goes in `text`, in order.
    holes: Vec<(usize, Hole)>,
}

impl Template {
    /// Cuts the markers out of `wire`, a message rendered with
    /// [`Hole::marker`] in place of each per-call field.
    fn cut(wire: &[u8]) -> Template {
        let mut text = Vec::with_capacity(wire.len());
        let mut holes = Vec::new();
        let mut start = 0;
        for (at, &b) in wire.iter().enumerate() {
            if let Some(hole) = Hole::of(b) {
                text.extend_from_slice(&wire[start..at]);
                holes.push((text.len(), hole));
                start = at + 1;
            }
        }
        text.extend_from_slice(&wire[start..]);
        Template { text, holes }
    }

    /// Writes the message for call `no` to `peer` into `out`.
    fn fill(&self, out: &mut Vec<u8>, no: u64, peer: &str, to_tag: &str) {
        out.clear();
        let mut at = 0;
        for &(hole, kind) in &self.holes {
            out.extend_from_slice(&self.text[at..hole]);
            at = hole;
            match kind {
                Hole::CallNo => push_decimal(out, no),
                Hole::Peer => out.extend_from_slice(peer.as_bytes()),
                Hole::ToTag => out.extend_from_slice(to_tag.as_bytes()),
            }
        }
        out.extend_from_slice(&self.text[at..]);
    }
}

/// How a caller writes its requests: who it is, whom it dials, and its
/// templates. Each template is rendered when its request is first sent:
/// the first INVITE goes out at `call_start`, within the set-up that
/// perfbench times, so the other three wait for their first use.
#[derive(Debug)]
struct Requests {
    party: CallParty,
    /// Who this caller dials: the one closed-loop peer, or the Poisson
    /// callees.
    peers: Vec<CallParty>,
    domain: String,
    token: &'static str,
    /// INVITE, ACK, BYE and CANCEL, in [`Requests::template`]'s order.
    templates: [Option<Template>; 4],
    /// The buffer every request is written into.
    buf: Vec<u8>,
}

impl Requests {
    /// Which template renders `method`.
    fn template(method: Method) -> usize {
        match method {
            Method::Invite => 0,
            Method::Ack => 1,
            Method::Bye => 2,
            Method::Cancel => 3,
            Method::Register | Method::Options => unreachable!("callers send no {method}"),
        }
    }

    /// The `method` request of call `no` to peer `peer`, with the callee's
    /// `to_tag` where the request carries one (ACK and BYE).
    fn render(&mut self, method: Method, no: u64, peer: usize, to_tag: &str) -> Bytes {
        let template = self.templates[Self::template(method)].get_or_insert_with(|| {
            let peer = CallParty::new(Hole::Peer.marker(), String::new());
            let msg = build_request(
                method,
                (&self.party, &peer),
                (&self.domain, self.token),
                &Hole::CallNo.marker(),
                &Hole::ToTag.marker(),
            );
            Template::cut(&msg.to_bytes())
        });
        template.fill(&mut self.buf, no, &self.peers[peer].user, to_tag);
        let bytes = Bytes::from(&self.buf[..]);
        debug_assert_eq!(
            String::from_utf8_lossy(&bytes),
            String::from_utf8_lossy(&self.oracle(method, no, peer, to_tag)),
            "the {method} template disagrees with its builder"
        );
        bytes
    }

    /// The same request built through [`gen`]: what the templates must
    /// reproduce byte for byte.
    fn oracle(&self, method: Method, no: u64, peer: usize, to_tag: &str) -> Vec<u8> {
        let parties = (&self.party, &self.peers[peer]);
        build_request(
            method,
            parties,
            (&self.domain, self.token),
            &no.to_string(),
            to_tag,
        )
        .to_bytes()
    }
}

/// A caller's `method` request from `caller` to `callee` for the call
/// numbered `no` (decimal text), through the [`gen`] builders.
fn build_request(
    method: Method,
    (caller, callee): (&CallParty, &CallParty),
    (domain, token): (&str, &str),
    no: &str,
    to_tag: &str,
) -> SipMessage {
    let call_id = format!("c{no}-{}", caller.user);
    let branch = |kind: char| format!("{BRANCH_COOKIE}{}{kind}{no}", caller.user);
    match method {
        Method::Invite => gen::invite(caller, callee, domain, &call_id, &branch('i'), token),
        Method::Ack => gen::ack(
            caller,
            callee,
            domain,
            &call_id,
            to_tag,
            &branch('a'),
            token,
        ),
        Method::Bye => gen::bye(
            caller,
            callee,
            domain,
            &call_id,
            to_tag,
            &branch('b'),
            token,
        ),
        // A CANCEL reuses the INVITE's branch (RFC 3261 §9.1).
        Method::Cancel => gen::cancel(caller, callee, domain, &call_id, &branch('i'), token),
        Method::Register | Method::Options => unreachable!("callers send no {method}"),
    }
}

/// The fields of a response the engine acts on, scanned or parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Reply<'a> {
    code: StatusCode,
    cseq_method: Method,
    call_id: &'a str,
    to_tag: Option<&'a str>,
    retry_after: Option<u32>,
}

impl<'a> Reply<'a> {
    /// A parsed response's fields; `None` for a request.
    fn parsed(msg: &'a SipMessage) -> Option<Reply<'a>> {
        Some(Reply {
            code: msg.status()?,
            cseq_method: msg.cseq_method,
            call_id: &msg.call_id,
            to_tag: msg.to.tag.as_deref(),
            retry_after: msg.retry_after,
        })
    }

    /// A scanned response's fields; `None` for a request. The scanner
    /// reads no `Retry-After`, so a scanned response has none.
    fn scanned(msg: &Scan<'a>) -> Option<Reply<'a>> {
        let Start::Response(code) = msg.start else {
            return None;
        };
        Some(Reply {
            code,
            cseq_method: msg.cseq_method,
            call_id: msg.call_id,
            to_tag: msg.to_tag,
            retry_after: None,
        })
    }
}

/// The caller's transaction state machine: arrivals, the call pool, and
/// the jittered 503 retry queue. Transport processes feed it timer expiries
/// and responses and send whatever requests it returns to the proxy, in
/// order.
#[derive(Debug)]
pub struct CallEngine {
    requests: Requests,
    /// Mean Poisson gap in nanoseconds; `None` for the closed loop.
    mean_gap_ns: Option<f64>,
    transport: Transport,
    cancel_every: Option<u64>,
    setup_deadline: Option<SimDuration>,
    stats: Rc<RefCell<WorkloadStats>>,
    rng: SimRng,
    call_no: u64,
    /// Calls in flight, keyed by the call number their Call-ID carries.
    calls: BTreeMap<u64, Call>,
    /// Per-call wake-ups. An entry is stale once its call is gone or the
    /// call's `next_event` moved; stale heads are dropped after every
    /// update, so the head is always a live call's next event.
    wakes: BinaryHeap<Reverse<(SimTime, u64)>>,
    /// Jittered retry instants from 503-shed calls.
    retries: BinaryHeap<Reverse<SimTime>>,
    /// Next arrival: the closed loop's first call, then never; the next
    /// Poisson arrival otherwise.
    next_arrival: SimTime,
    /// Consecutive 503s without an admitted call (backoff exponent).
    consecutive_rejects: u32,
    /// Operations completed since the engine started (drives reconnects).
    pub(crate) ops_done: u64,
}

impl CallEngine {
    /// Creates the engine for one caller with the given arrival process.
    /// The first call is due at the phone's `call_start` (closed loop) or
    /// one Poisson gap after it.
    ///
    /// # Panics
    ///
    /// Panics if a Poisson rate is not positive and finite or it has no
    /// callees to dial.
    pub fn new(cfg: &PhoneCfg, arrivals: &Arrivals, host: HostId) -> Self {
        let (peers, mean_gap_ns) = match arrivals {
            Arrivals::Closed { peer } => (std::slice::from_ref(peer), None),
            Arrivals::Poisson { rate, callees } => {
                assert!(
                    rate.is_finite() && *rate > 0.0,
                    "open-loop arrival rate must be positive, got {rate}"
                );
                assert!(
                    !callees.is_empty(),
                    "open-loop caller needs callees to dial"
                );
                (callees.as_slice(), Some(1e9 / rate))
            }
        };
        let mut engine = CallEngine {
            requests: Requests {
                party: cfg.party(host),
                peers: peers
                    .iter()
                    .map(|user| CallParty::new(user.clone(), String::new()))
                    .collect(),
                domain: cfg.domain.clone(),
                token: cfg.transport.token(),
                templates: Default::default(),
                buf: Vec::new(),
            },
            mean_gap_ns,
            transport: cfg.transport,
            cancel_every: cfg.cancel_every,
            setup_deadline: cfg.setup_deadline,
            stats: cfg.stats.clone(),
            rng: SimRng::seed_from_u64(cfg.seed),
            call_no: 0,
            calls: BTreeMap::new(),
            wakes: BinaryHeap::new(),
            retries: BinaryHeap::new(),
            next_arrival: cfg.call_start,
            consecutive_rejects: 0,
            ops_done: 0,
        };
        if let Some(mean) = engine.mean_gap_ns {
            let gap = engine.draw_gap(mean);
            engine.next_arrival += gap;
        }
        engine
    }

    fn draw_gap(&mut self, mean_ns: f64) -> SimDuration {
        SimDuration::from_nanos(self.rng.exponential(mean_ns).max(1.0) as u64)
    }

    /// Originates one call right now, returning its INVITE.
    fn start_call(&mut self, now: SimTime) -> Bytes {
        self.call_no += 1;
        let no = self.call_no;
        let peer = if self.mean_gap_ns.is_some() {
            self.rng.range_usize(0..self.requests.peers.len())
        } else {
            0
        };
        let bytes = self.requests.render(Method::Invite, no, peer, "");
        let call = Call {
            peer,
            phase: CallPhase::AwaitInvite,
            clock: new_clock(self.transport.is_reliable(), now),
            deadline: now + TIMEOUT,
            cur_msg: bytes.clone(),
            txn_start: now,
            cancel_pending: self.cancel_every.is_some_and(|k| no.is_multiple_of(k)),
            cancel_sent: false,
            disturbed: false,
            late: false,
        };
        self.wakes.push(Reverse((call.next_event(), no)));
        self.calls.insert(no, call);
        let mut stats = self.stats.borrow_mut();
        stats.record_attempt(now);
        if self.mean_gap_ns.is_some() {
            stats.open_calls_peak = stats.open_calls_peak.max(self.calls.len() as u64);
        }
        bytes
    }

    /// Removes an ended call; the closed loop starts its successor, whose
    /// INVITE is returned.
    fn end_call(&mut self, no: u64, now: SimTime) -> Vec<Bytes> {
        self.calls.remove(&no);
        if self.mean_gap_ns.is_none() {
            vec![self.start_call(now)]
        } else {
            Vec::new()
        }
    }

    fn fail_call(&mut self, no: u64, now: SimTime) -> Vec<Bytes> {
        self.stats.borrow_mut().call_failures += 1;
        self.end_call(no, now)
    }

    /// Drops stale wake-ups from the head of the heap, so that the head is
    /// a live call's next event and [`next_wake`](Self::next_wake) is exact.
    fn settle(&mut self) {
        while let Some(&Reverse((at, no))) = self.wakes.peek() {
            if self.calls.get(&no).is_some_and(|c| c.next_event() == at) {
                break;
            }
            self.wakes.pop();
        }
    }

    /// The pool entry a response belongs to, if its call is still in
    /// flight: the Call-ID must read exactly `c{n}-{user}`.
    fn route(&self, call_id: &str) -> Option<u64> {
        let (no, user) = call_id.strip_prefix('c')?.split_once('-')?;
        let canonical = !no.starts_with('0') && no.bytes().all(|b| b.is_ascii_digit());
        if !canonical || user != &*self.requests.party.user {
            return None;
        }
        let no = no.parse().ok()?;
        self.calls.contains_key(&no).then_some(no)
    }

    /// When the transport should next wake the engine if nothing arrives:
    /// the earliest retransmission or deadline of a call in flight, 503
    /// retry, or arrival. `SimTime::MAX` when nothing is pending.
    pub fn next_wake(&self) -> SimTime {
        let mut next = self.next_arrival;
        if let Some(&Reverse((at, _))) = self.wakes.peek() {
            next = next.min(at);
        }
        if let Some(&Reverse(at)) = self.retries.peek() {
            next = next.min(at);
        }
        next
    }

    /// Transport-fault recovery after a reset: returns the in-flight request
    /// (INVITE or BYE) of every call not yet re-driven, to send again over
    /// the new connection, and marks those calls disturbed so a later
    /// completion counts as recovered.
    pub fn redrive(&mut self, now: SimTime) -> Vec<Bytes> {
        let reliable = self.transport.is_reliable();
        let mut out = Vec::new();
        // One re-drive per call: further connection losses (e.g. a server
        // aggressively reaping idle connections) must not turn one call
        // into a reconnect storm.
        for (&no, call) in self.calls.iter_mut().filter(|(_, c)| !c.disturbed) {
            call.disturbed = true;
            // Restart the retransmission clock relative to the reconnect so
            // an unreliable phone does not fire a burst of catch-up
            // retransmits.
            call.clock = new_clock(reliable, now);
            self.wakes.push(Reverse((call.next_event(), no)));
            out.push(call.cur_msg.clone());
        }
        self.settle();
        out
    }

    /// Clock tick: retransmit or expire due calls, fire due 503 retries and
    /// arrivals, and return everything to transmit.
    pub fn on_timer(&mut self, now: SimTime) -> Vec<Bytes> {
        let mut out = Vec::new();

        // Due per-call events (retransmission clocks and Timer B deadlines).
        while let Some(&Reverse((at, no))) = self.wakes.peek() {
            if at > now {
                break;
            }
            self.wakes.pop();
            let Some(call) = self.calls.get_mut(&no) else {
                continue; // call ended — stale entry
            };
            if call.next_event() != at {
                continue; // state moved since this wake was scheduled
            }
            if now >= call.deadline {
                out.extend(self.fail_call(no, now));
                continue;
            }
            // A live due entry below the deadline is the clock's own
            // instant, so the clock retransmits (or, past its own deadline,
            // times out).
            if let TimerVerdict::Retransmit { .. } = call.clock.check(now) {
                self.stats.borrow_mut().phone_retransmits += 1;
                out.push(call.cur_msg.clone());
                self.wakes.push(Reverse((call.next_event(), no)));
            } else {
                out.extend(self.fail_call(no, now));
            }
        }

        // Due 503 retries (the amplification the counters measure).
        while let Some(&Reverse(at)) = self.retries.peek() {
            if at > now {
                break;
            }
            self.retries.pop();
            self.stats.borrow_mut().rejection_retries += 1;
            out.push(self.start_call(now));
        }

        // Due arrivals — for Poisson unconditionally: this is the open loop.
        while self.next_arrival <= now {
            out.push(self.start_call(now));
            self.next_arrival = match self.mean_gap_ns {
                Some(mean) => self.next_arrival + self.draw_gap(mean),
                None => SimTime::MAX,
            };
        }

        self.settle();
        out
    }

    /// Feeds a parsed response; returns what to transmit next.
    fn on_response(&mut self, now: SimTime, msg: &SipMessage) -> Vec<Bytes> {
        self.feed(now, Reply::parsed(msg))
    }

    /// Feeds a message as received; returns what to transmit next. The
    /// scanner reads it when it can, the parser otherwise, and a message
    /// neither can read is ignored.
    pub fn on_wire(&mut self, now: SimTime, raw: &[u8]) -> Vec<Bytes> {
        let Some(msg) = scan(raw) else {
            return match parse_message(raw) {
                Ok(msg) => self.on_response(now, &msg),
                Err(_) => Vec::new(),
            };
        };
        let reply = Reply::scanned(&msg);
        if cfg!(debug_assertions) {
            let parsed = parse_message(raw).expect("the parser reads what the scanner reads");
            assert_eq!(reply, Reply::parsed(&parsed), "scanner and parser disagree");
        }
        self.feed(now, reply)
    }

    fn feed(&mut self, now: SimTime, reply: Option<Reply<'_>>) -> Vec<Bytes> {
        // Callers only expect responses; a request here is a protocol
        // surprise we ignore (e.g. a very late retransmission).
        let out = match reply {
            Some(reply) => self.handle_response(now, reply),
            None => Vec::new(),
        };
        self.settle();
        out
    }

    fn handle_response(&mut self, now: SimTime, msg: Reply<'_>) -> Vec<Bytes> {
        let code = msg.code;
        if msg.cseq_method == Method::Cancel {
            // The proxy's 200 to our CANCEL; the 487 follows separately.
            return Vec::new();
        }
        let Some(no) = self.route(msg.call_id) else {
            return Vec::new(); // stale or duplicate
        };
        let call = self.calls.get_mut(&no).expect("routed");
        match (call.phase, msg.cseq_method) {
            (CallPhase::AwaitInvite, Method::Invite) => {
                if code.is_provisional() {
                    // Any response stops INVITE retransmissions (Timer A).
                    let before = call.next_event();
                    call.clock.stop();
                    if call.next_event() != before {
                        self.wakes.push(Reverse((call.next_event(), no)));
                    }
                    if call.cancel_pending && !call.cancel_sent && code == StatusCode::RINGING {
                        // Abandon while ringing (RFC 3261 §9: CANCEL only
                        // after a provisional response).
                        call.cancel_sent = true;
                        return vec![self.requests.render(Method::Cancel, no, call.peer, "")];
                    }
                    return Vec::new();
                }
                if code == StatusCode::REQUEST_TERMINATED && call.cancel_sent {
                    // Our CANCEL won: the call ends cleanly, not as a
                    // failure.
                    self.stats.borrow_mut().calls_cancelled += 1;
                    return self.end_call(no, now);
                }
                if code == StatusCode::SERVICE_UNAVAILABLE {
                    // The proxy shed us. Honor Retry-After with capped,
                    // jittered exponential backoff: the advertised wait
                    // doubles per consecutive rejection so a persistently
                    // overloaded proxy sees the retry rate fall, and the
                    // jitter spreads a shedding burst's retries out instead
                    // of waking every rejected phone on the same tick.
                    let delay = reject_backoff(
                        msg.retry_after.unwrap_or(1),
                        self.consecutive_rejects,
                        &mut self.rng,
                    );
                    self.consecutive_rejects = self.consecutive_rejects.saturating_add(1);
                    self.calls.remove(&no);
                    self.retries.push(Reverse(now + delay));
                    self.stats.borrow_mut().record_rejection(now);
                    return Vec::new();
                }
                if code != StatusCode::OK {
                    // Final error: abandon the call.
                    return self.fail_call(no, now);
                }
                let started = call.txn_start;
                let late = self
                    .setup_deadline
                    .is_some_and(|budget| now - started > budget);
                {
                    let mut stats = self.stats.borrow_mut();
                    if std::mem::take(&mut call.disturbed) {
                        stats.recovered_calls += 1;
                    }
                    if late {
                        stats.calls_late += 1;
                    } else {
                        stats.record_invite(started, now);
                    }
                }
                self.consecutive_rejects = 0;
                self.ops_done += 1;
                // Acknowledge and immediately hang up (§4.2's workload: zero
                // hold time, equal invites and byes).
                let to_tag = msg.to_tag.unwrap_or("t");
                let ack = self.requests.render(Method::Ack, no, call.peer, to_tag);
                let bye_bytes = self.requests.render(Method::Bye, no, call.peer, to_tag);
                call.phase = CallPhase::AwaitByeOk;
                call.clock = new_clock(self.transport.is_reliable(), now);
                call.deadline = now + TIMEOUT;
                call.cur_msg = bye_bytes.clone();
                call.txn_start = now;
                call.late = late;
                self.wakes.push(Reverse((call.next_event(), no)));
                vec![ack, bye_bytes]
            }
            (CallPhase::AwaitByeOk, Method::Bye) => {
                if code.is_provisional() {
                    return Vec::new();
                }
                if code != StatusCode::OK {
                    return self.fail_call(no, now);
                }
                let mut stats = self.stats.borrow_mut();
                if call.disturbed {
                    stats.recovered_calls += 1;
                }
                if !call.late {
                    stats.record_bye(call.txn_start, now);
                }
                drop(stats);
                self.ops_done += 1;
                self.end_call(no, now)
            }
            // Duplicate/late response for the other phase: ignore.
            _ => Vec::new(),
        }
    }
}

/// What a callee sends back for one request: some messages immediately,
/// and possibly one (the 200 to an INVITE) after the ring delay.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct CalleeAnswer {
    /// Sent right away.
    pub immediate: Vec<Bytes>,
    /// Sent after the ring delay (the INVITE's 200 OK).
    pub delayed_ok: Option<Bytes>,
    /// The request's top Via sent-by, where a datagram answer goes
    /// (RFC 3261 §18.2.2), when it names a simulated address.
    pub reply_to: Option<SockAddr>,
}

/// Callee-side answering machine (RFC 3261 UAS happy path): builds the
/// responses a phone returns for an incoming request. An INVITE gets 180
/// Ringing right away and its 200 OK after `ring` (immediately when zero,
/// the paper's workload).
///
/// This is the builders' answer, which [`Callee`] reproduces from the
/// request's bytes.
fn callee_answer_timed(user: &str, msg: &SipMessage, ring: SimDuration) -> CalleeAnswer {
    let mut out = CalleeAnswer {
        reply_to: msg.vias.first().and_then(|v| parse_sim_addr(&v.sent_by)),
        ..CalleeAnswer::default()
    };
    let Some(method) = msg.method() else {
        return out; // responses need no answer
    };
    let to_tag = format!("tt-{user}");
    let reply = |code| bytes_from(gen::response(code, msg, Some(&to_tag), None).to_bytes());
    match method {
        Method::Invite => {
            out.immediate.push(reply(StatusCode::RINGING));
            let contact = msg.to.uri.clone();
            let ok = bytes_from(
                gen::response(StatusCode::OK, msg, Some(&to_tag), Some(contact)).to_bytes(),
            );
            if ring.is_zero() {
                out.immediate.push(ok);
            } else {
                out.delayed_ok = Some(ok);
            }
        }
        Method::Cancel => {
            // 200 for the CANCEL itself, then the INVITE's final answer:
            // 487 Request Terminated on the same branch and CSeq number
            // (RFC 3261 §9.2 — the CANCEL carries both by construction).
            out.immediate.push(reply(StatusCode::OK));
            let mut terminated =
                gen::response(StatusCode::REQUEST_TERMINATED, msg, Some(&to_tag), None);
            terminated.cseq_method = Method::Invite;
            out.immediate.push(bytes_from(terminated.to_bytes()));
        }
        Method::Ack => {}
        // BYE, and anything else (OPTIONS, stray REGISTER), gets a 200.
        _ => out.immediate.push(reply(StatusCode::OK)),
    }
    out
}

/// [`callee_answer_timed`] on a message as received; no answer when it
/// does not parse.
fn parse_and_answer(user: &str, raw: &[u8], ring: SimDuration) -> CalleeAnswer {
    match parse_message(raw) {
        Ok(msg) => callee_answer_timed(user, &msg, ring),
        Err(_) => CalleeAnswer::default(),
    }
}

/// A callee's answering machine on received bytes. It gives the answers
/// of `callee_answer_timed` byte for byte, but writes the 180 and 200 to
/// an INVITE and the 200 to a BYE from the request's own Via, `From`,
/// `To`, `Call-ID` and `CSeq` bytes; any other request is parsed and
/// answered through the builders.
#[derive(Debug, Default)]
pub struct Callee {
    /// Rendered on the first request.
    wire: Option<CalleeWire>,
}

/// The fixed text of a callee's answers.
#[derive(Debug)]
struct CalleeWire {
    /// The callee's `To` tag, `tt-{user}`.
    tag: String,
    /// What follows the `Contact` line of the 200 to an INVITE: the
    /// `Max-Forwards` and `Content-Length` lines and the SDP answer.
    invite_ok_tail: Vec<u8>,
    /// The buffer every answer is written into.
    buf: Vec<u8>,
}

impl Callee {
    /// Answers the request in `raw` as phone `user` ringing for `ring`.
    pub fn answer(&mut self, user: &str, raw: &[u8], ring: SimDuration) -> CalleeAnswer {
        let Some(answer) = scan(raw).and_then(|req| {
            let wire = self.wire.get_or_insert_with(|| CalleeWire::new(user));
            wire.answer(user, &req, ring)
        }) else {
            return parse_and_answer(user, raw, ring);
        };
        debug_assert_eq!(
            answer,
            parse_and_answer(user, raw, ring),
            "the echoed answer disagrees with the builders'"
        );
        answer
    }
}

impl CalleeWire {
    fn new(user: &str) -> Self {
        let sdp = gen::fake_sdp(user);
        let mut invite_ok_tail =
            format!("Max-Forwards: 70\r\nContent-Length: {}\r\n\r\n", sdp.len()).into_bytes();
        invite_ok_tail.extend_from_slice(&sdp);
        CalleeWire {
            tag: format!("tt-{user}"),
            invite_ok_tail,
            buf: Vec::new(),
        }
    }

    /// The answer to a scanned INVITE, ACK or BYE; `None` for anything
    /// else, and for an INVITE to another user (whose SDP answer differs).
    fn answer(&mut self, user: &str, req: &Scan<'_>, ring: SimDuration) -> Option<CalleeAnswer> {
        let Start::Request(method) = req.start else {
            return None;
        };
        if method != req.cseq_method || (method == Method::Invite && req.to_user != user) {
            return None;
        }
        let mut out = CalleeAnswer {
            reply_to: parse_sim_addr(req.sent_by),
            ..CalleeAnswer::default()
        };
        match method {
            Method::Invite => {
                let ringing = self.reply(req, StatusCode::RINGING, false);
                out.immediate.push(ringing);
                let ok = self.reply(req, StatusCode::OK, true);
                if ring.is_zero() {
                    out.immediate.push(ok);
                } else {
                    out.delayed_ok = Some(ok);
                }
            }
            Method::Bye => out.immediate.push(self.reply(req, StatusCode::OK, false)),
            _ => {} // ACK
        }
        Some(out)
    }

    /// One answer to `req` (see [`Scan::write_reply`]), with our `To` tag
    /// if the request has none. The 200 to an INVITE carries the `Contact`
    /// (the request's `To` URI) and the SDP answer.
    fn reply(&mut self, req: &Scan<'_>, code: StatusCode, with_answer: bool) -> Bytes {
        let tail = if with_answer {
            Tail::Contact {
                uri: req.to_uri,
                rest: &self.invite_ok_tail,
            }
        } else {
            Tail::Bare
        };
        self.buf.clear();
        req.write_reply(&mut self.buf, code, Some(&self.tag), tail);
        Bytes::from(&self.buf[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use siperf_proxy::core::{Inbound, ProxyCore};
    use std::collections::VecDeque;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn cfg(transport: Transport, seed: u64) -> PhoneCfg {
        PhoneCfg {
            user: "alice".into(),
            role: Role::Callee,
            port: 20000,
            proxy: SockAddr::new(HostId(0), 5060),
            domain: "sip.lab".into(),
            transport,
            call_start: t(0),
            stagger: SimDuration::ZERO,
            ops_per_conn: None,
            cancel_every: None,
            setup_deadline: None,
            ring_delay: SimDuration::ZERO,
            seed,
            stats: WorkloadStats::new((t(0), t(1_000_000))),
        }
    }

    fn closed() -> Arrivals {
        Arrivals::Closed { peer: "bob".into() }
    }

    fn poisson(rate: f64) -> Arrivals {
        Arrivals::Poisson {
            rate,
            callees: (0..4).map(|i| format!("e{i}")).collect(),
        }
    }

    fn engine(cfg: &PhoneCfg, arrivals: Arrivals) -> CallEngine {
        CallEngine::new(cfg, &arrivals, HostId(1))
    }

    /// A closed-loop engine over UDP (or a reliable transport) with its
    /// first call placed at t=0.
    fn closed_call(transport: Transport) -> (PhoneCfg, CallEngine, Bytes) {
        let cfg = cfg(transport, 7);
        let mut e = engine(&cfg, closed());
        let mut out = e.on_timer(t(0));
        assert_eq!(out.len(), 1, "the closed loop dials once at call_start");
        let invite = out.pop().unwrap();
        (cfg, e, invite)
    }

    fn respond(engine_msg: &Bytes, code: StatusCode) -> SipMessage {
        let req = parse_message(engine_msg).unwrap();
        gen::response(code, &req, Some("tt-bob"), None)
    }

    /// Steps the engine's timer until `want` messages have been sent,
    /// returning them with the instant of the last step.
    fn step_until_sent(e: &mut CallEngine, want: usize) -> (Vec<Bytes>, SimTime) {
        let mut sent = Vec::new();
        let mut at = SimTime::ZERO;
        while sent.len() < want {
            at = e.next_wake();
            sent.extend(e.on_timer(at));
        }
        (sent, at)
    }

    /// Steps the engine's timer through `until`, collecting the instant of
    /// every *new* call the arrival process originates (retransmissions of
    /// outstanding calls are not arrivals).
    fn collect_arrivals(e: &mut CallEngine, until: SimTime) -> Vec<SimTime> {
        let mut arrivals = Vec::new();
        loop {
            let at = e.next_wake();
            if at > until {
                break;
            }
            let before = e.call_no;
            e.on_timer(at);
            arrivals.extend((before..e.call_no).map(|_| at));
        }
        arrivals
    }

    #[test]
    fn happy_call_flow_produces_two_ops() {
        let (cfg, mut e, invite) = closed_call(Transport::Udp);
        let inv = parse_message(&invite).unwrap();
        assert_eq!(inv.method(), Some(Method::Invite));
        assert_eq!(inv.call_id, "c1-alice");
        assert_eq!(inv.branch(), Some("z9hG4bKalicei1"));

        // 100 then 180 stop retransmissions but complete nothing.
        let trying = respond(&invite, StatusCode::TRYING);
        assert!(e.on_response(t(1), &trying).is_empty());
        let ringing = respond(&invite, StatusCode::RINGING);
        assert!(e.on_response(t(2), &ringing).is_empty());

        // 200 → ACK + BYE.
        let ok = respond(&invite, StatusCode::OK);
        let msgs = e.on_response(t(3), &ok);
        assert_eq!(msgs.len(), 2);
        let ack = parse_message(&msgs[0]).unwrap();
        let bye = parse_message(&msgs[1]).unwrap();
        assert_eq!(ack.method(), Some(Method::Ack));
        assert_eq!(bye.method(), Some(Method::Bye));
        assert_eq!(ack.to.tag.as_deref(), Some("tt-bob"));
        assert_eq!(ack.branch(), Some("z9hG4bKalicea1"));
        assert_eq!(bye.branch(), Some("z9hG4bKaliceb1"));

        // 200 to BYE → the next call starts.
        let bye_ok = respond(&msgs[1], StatusCode::OK);
        let next = e.on_response(t(4), &bye_ok);
        assert_eq!(next.len(), 1);
        let next_inv = parse_message(&next[0]).unwrap();
        assert_eq!(next_inv.method(), Some(Method::Invite));
        assert_eq!(next_inv.call_id, "c2-alice");

        let stats = cfg.stats.borrow();
        assert_eq!(stats.invite_ok, 1);
        assert_eq!(stats.bye_ok, 1);
        assert_eq!(stats.ops_total, 2);
        assert_eq!(stats.call_attempts, 2);
        assert_eq!(stats.call_failures, 0);
        assert_eq!(stats.open_calls_peak, 0, "closed loops report no pool");
        assert_eq!(e.ops_done, 2);
        assert_eq!(e.calls.len(), 1);
    }

    #[test]
    fn udp_engine_retransmits_until_response() {
        let (cfg, mut e, invite) = closed_call(Transport::Udp);
        // T1 later the clock demands a retransmission of the same INVITE.
        assert_eq!(e.next_wake(), t(500));
        let msgs = e.on_timer(t(500));
        assert_eq!(msgs.len(), 1, "expected one retransmission");
        assert_eq!(&*msgs[0], &*invite);
        assert_eq!(cfg.stats.borrow().phone_retransmits, 1);
        assert_eq!(e.next_wake(), t(1_500), "Timer A doubles");
        // A provisional response silences it.
        let trying = respond(&invite, StatusCode::TRYING);
        e.on_response(t(600), &trying);
        assert!(e.on_timer(t(1_500)).is_empty());
        assert_eq!(cfg.stats.borrow().phone_retransmits, 1);
    }

    #[test]
    fn provisional_response_clears_the_stale_t1_wake() {
        // Closed loop: after 100 Trying only Timer B remains.
        let (_cfg, mut e, invite) = closed_call(Transport::Udp);
        e.on_response(t(100), &respond(&invite, StatusCode::TRYING));
        assert_eq!(e.next_wake(), t(0) + TIMEOUT);

        // Open loop: the wake is the call's deadline or the next arrival,
        // never the T1 instant the provisional cancelled.
        let cfg = cfg(Transport::Udp, 6);
        let mut e = engine(&cfg, poisson(1.0));
        let (invites, at) = step_until_sent(&mut e, 1);
        let trying = respond(&invites[0], StatusCode::TRYING);
        e.on_response(at, &trying);
        assert_ne!(e.next_wake(), at + siperf_sip::txn::T1);
        assert_eq!(e.next_wake(), (at + TIMEOUT).min(e.next_arrival));
        // Waking at the stale instant would find nothing to do.
        assert!(e.next_wake() > at + siperf_sip::txn::T1);
    }

    #[test]
    fn reliable_engine_never_retransmits() {
        let (cfg, mut e, _invite) = closed_call(Transport::Tcp);
        assert!(e.on_timer(t(5_000)).is_empty());
        assert_eq!(e.next_wake(), t(32_000));
        assert_eq!(cfg.stats.borrow().phone_retransmits, 0);
    }

    #[test]
    fn timeout_fails_call_and_starts_next() {
        let (cfg, mut e, first) = closed_call(Transport::Udp);
        let next = e.on_timer(t(32_000));
        assert_eq!(next.len(), 1, "expected new call after timeout");
        let next_inv = parse_message(&next[0]).unwrap();
        assert_ne!(next_inv.call_id, parse_message(&first).unwrap().call_id);
        assert_eq!(cfg.stats.borrow().call_failures, 1);
        assert_eq!(cfg.stats.borrow().call_attempts, 2);
    }

    #[test]
    fn error_response_fails_call() {
        let (cfg, mut e, invite) = closed_call(Transport::Udp);
        let busy = respond(&invite, StatusCode::BUSY_HERE);
        assert_eq!(e.on_response(t(1), &busy).len(), 1, "expected next call");
        assert_eq!(cfg.stats.borrow().call_failures, 1);
    }

    #[test]
    fn stale_responses_are_ignored() {
        let (cfg, mut e, first) = closed_call(Transport::Udp);
        // Complete the first call.
        let ok = respond(&first, StatusCode::OK);
        let msgs = e.on_response(t(1), &ok);
        let bye_ok = respond(&msgs[1], StatusCode::OK);
        assert_eq!(e.on_response(t(2), &bye_ok).len(), 1);
        // A duplicate 200 for the finished call must not disturb call 2.
        let dup = respond(&first, StatusCode::OK);
        assert!(e.on_response(t(3), &dup).is_empty());
        assert_eq!(cfg.stats.borrow().invite_ok, 1);
        // Neither must a Call-ID this caller never issued.
        let mut foreign = respond(&first, StatusCode::OK);
        foreign.call_id = "c2-mallory".into();
        assert!(e.on_response(t(4), &foreign).is_empty());
        assert_eq!(e.calls.len(), 1);
    }

    #[test]
    fn rejected_call_backs_off_per_retry_after_then_retries() {
        let (cfg, mut e, invite) = closed_call(Transport::Udp);
        let req = parse_message(&invite).unwrap();

        // 503 + Retry-After: 2 → back off a jittered [1 s, 2 s], no failure
        // counted.
        let rejected = gen::service_unavailable(&req, 2);
        assert!(e.on_response(t(100), &rejected).is_empty());
        let until = e.next_wake();
        assert!(
            until >= t(1_100) && until <= t(2_100),
            "jittered backoff {until:?} outside [nominal/2, nominal]"
        );
        assert_eq!(e.calls.len(), 0, "shed call must leave the pool");
        {
            let s = cfg.stats.borrow();
            assert_eq!(s.calls_rejected, 1);
            assert_eq!(s.call_failures, 0, "a shed call is not a failure");
        }

        // Waking early keeps waiting; at the deadline the retry fires.
        assert!(e.on_timer(t(1_000)).is_empty());
        let msgs = e.on_timer(until);
        assert_eq!(msgs.len(), 1, "expected retry INVITE");
        let retry = parse_message(&msgs[0]).unwrap();
        assert_eq!(retry.method(), Some(Method::Invite));
        assert_ne!(retry.call_id, req.call_id, "retry is a fresh call");
        let s = cfg.stats.borrow();
        assert_eq!(s.rejection_retries, 1);
        assert_eq!(s.call_attempts, 2);
    }

    #[test]
    fn open_loop_rejected_call_leaves_pool_and_retries_with_jitter() {
        let cfg = cfg(Transport::Udp, 5);
        let mut e = engine(&cfg, poisson(10_000.0));
        let (invites, _) = step_until_sent(&mut e, 1);
        let in_flight = e.calls.len();
        let req = parse_message(&invites[0]).unwrap();
        let now = t(10);
        assert!(e
            .on_response(now, &gen::service_unavailable(&req, 2))
            .is_empty());
        assert_eq!(
            e.calls.len(),
            in_flight - 1,
            "shed call must leave the pool"
        );
        let Reverse(retry_at) = *e.retries.peek().expect("retry queued");
        let delay = retry_at - now;
        assert!(
            delay >= SimDuration::from_secs(1) && delay <= SimDuration::from_secs(2),
            "jittered retry delay {delay:?} outside [Retry-After/2, Retry-After]"
        );
        let s = cfg.stats.borrow();
        assert_eq!(s.calls_rejected, 1);
        assert_eq!(s.call_failures, 0, "a shed call is not a failure");
    }

    #[test]
    fn repeated_rejections_double_the_backoff_up_to_the_cap() {
        let (_cfg, mut e, mut invite) = closed_call(Transport::Udp);
        let mut now = t(0);
        let mut delays = Vec::new();
        for _ in 0..5 {
            let req = parse_message(&invite).unwrap();
            assert!(e
                .on_response(now, &gen::service_unavailable(&req, 1))
                .is_empty());
            let until = e.next_wake();
            delays.push((until - now).as_secs_f64());
            now = until;
            invite = e.on_timer(now).pop().expect("retry INVITE");
        }
        // The nominal delay doubles 1, 2, 4, 8, 8 (capped); jitter keeps
        // each draw inside [nominal/2, nominal].
        for (delay, nominal) in delays.iter().zip([1.0, 2.0, 4.0, 8.0, 8.0]) {
            assert!(
                (nominal / 2.0..=nominal).contains(delay),
                "delay {delay} outside [{}, {nominal}]",
                nominal / 2.0
            );
        }
        assert!(
            delays[4] <= REJECT_BACKOFF_CAP.as_secs_f64(),
            "cap exceeded: {delays:?}"
        );

        // An admitted, completed call resets the exponent.
        let msgs = e.on_response(now, &respond(&invite, StatusCode::OK));
        let invite = e
            .on_response(now, &respond(&msgs[1], StatusCode::OK))
            .pop()
            .expect("next call");
        let req = parse_message(&invite).unwrap();
        e.on_response(now, &gen::service_unavailable(&req, 1));
        let reset_delay = (e.next_wake() - now).as_secs_f64();
        assert!(
            (0.5..=1.0).contains(&reset_delay),
            "exponent was not reset: {reset_delay}"
        );
    }

    #[test]
    fn backoff_jitter_replays_from_the_seed_and_desynchronizes_phones() {
        let rejected_delays = |seed: u64| -> Vec<SimDuration> {
            let c = cfg(Transport::Udp, seed);
            let mut e = engine(&c, closed());
            let mut now = t(0);
            let mut out = Vec::new();
            for _ in 0..4 {
                let invite = e.on_timer(now).pop().expect("INVITE");
                let req = parse_message(&invite).unwrap();
                e.on_response(now, &gen::service_unavailable(&req, 1));
                let until = e.next_wake();
                out.push(until - now);
                now = until;
            }
            out
        };
        assert_eq!(
            rejected_delays(11),
            rejected_delays(11),
            "same seed must replay the same jitter"
        );
        assert_ne!(
            rejected_delays(11),
            rejected_delays(12),
            "different phones must not retry in lockstep"
        );
    }

    #[test]
    fn cancel_flow_abandons_a_ringing_call() {
        let mut c = cfg(Transport::Udp, 7);
        c.cancel_every = Some(1); // cancel every call
        let mut e = engine(&c, closed());
        let invite = e.on_timer(t(0)).pop().unwrap();
        let inv = parse_message(&invite).unwrap();

        // 100 Trying must not trigger the CANCEL (only RINGING does).
        let trying = respond(&invite, StatusCode::TRYING);
        assert!(e.on_response(t(1), &trying).is_empty());

        // 180 Ringing → the engine fires the CANCEL, same branch.
        let ringing = respond(&invite, StatusCode::RINGING);
        let msgs = e.on_response(t(2), &ringing);
        assert_eq!(msgs.len(), 1, "expected CANCEL");
        let cancel = parse_message(&msgs[0]).unwrap();
        assert_eq!(cancel.method(), Some(Method::Cancel));
        assert_eq!(cancel.branch(), inv.branch());
        assert_eq!(cancel.call_id, inv.call_id);

        // The proxy's 200 to the CANCEL is consumed quietly.
        let cancel_ok = gen::response(StatusCode::OK, &cancel, None, None);
        assert!(e.on_response(t(3), &cancel_ok).is_empty());

        // The 487 ends the call cleanly and starts the next one.
        let mut terminated = respond(&invite, StatusCode::REQUEST_TERMINATED);
        terminated.cseq_method = Method::Invite;
        let next = e.on_response(t(4), &terminated);
        assert_eq!(
            parse_message(&next[0]).unwrap().method(),
            Some(Method::Invite)
        );
        let stats = c.stats.borrow();
        assert_eq!(stats.calls_cancelled, 1);
        assert_eq!(stats.call_failures, 0);
        assert_eq!(stats.invite_ok, 0, "a cancelled call completes nothing");
    }

    #[test]
    fn redrive_resends_each_call_once_and_counts_recovery() {
        let (cfg, mut e, invite) = closed_call(Transport::Tcp);
        let again = e.redrive(t(10));
        assert_eq!(again.len(), 1);
        assert_eq!(&*again[0], &*invite, "the in-flight INVITE is re-sent");
        assert!(e.redrive(t(20)).is_empty(), "one re-drive per call");
        let msgs = e.on_response(t(30), &respond(&invite, StatusCode::OK));
        assert_eq!(cfg.stats.borrow().recovered_calls, 1);
        // The BYE phase may be re-driven again.
        let again = e.redrive(t(40));
        assert_eq!(&*again[0], &*msgs[1]);
        e.on_response(t(50), &respond(&msgs[1], StatusCode::OK));
        assert_eq!(cfg.stats.borrow().recovered_calls, 2);
        // The closed loop's successor is in flight, not yet re-driven.
        assert_eq!(e.redrive(t(60)).len(), 1);
    }

    #[test]
    fn poisson_arrivals_replay_from_seed_and_match_the_rate() {
        let c = cfg(Transport::Udp, 9);
        let mut a = engine(&c, poisson(1000.0));
        let mut b = engine(&c, poisson(1000.0));
        let ta = collect_arrivals(&mut a, t(2_000));
        let tb = collect_arrivals(&mut b, t(2_000));
        assert_eq!(ta, tb, "same seed must produce the same arrivals");
        // 1000 calls/s over 2 s → ~2000 arrivals; Poisson σ ≈ 45.
        assert!(
            (1700..2300).contains(&ta.len()),
            "arrival count {} far from the configured rate",
            ta.len()
        );

        let c2 = cfg(Transport::Udp, 10);
        let mut d = engine(&c2, poisson(1000.0));
        assert_ne!(
            collect_arrivals(&mut d, t(2_000)),
            ta,
            "different seeds must diverge"
        );
    }

    #[test]
    fn arrivals_continue_while_calls_are_outstanding() {
        let c = cfg(Transport::Udp, 3);
        let mut e = engine(&c, poisson(100.0));
        // Never answer anything: a closed loop would stall after call one,
        // the open loop keeps originating.
        let arrivals = collect_arrivals(&mut e, t(1_000));
        assert!(
            arrivals.len() >= 70,
            "open loop stalled with calls outstanding: {} arrivals",
            arrivals.len()
        );
        assert!(e.calls.len() >= 70, "pool should hold unanswered calls");
        assert_eq!(c.stats.borrow().call_attempts, arrivals.len() as u64);
        assert!(c.stats.borrow().open_calls_peak >= 70);
    }

    #[test]
    fn pool_completes_concurrent_calls_independently() {
        let c = cfg(Transport::Udp, 4);
        let mut e = engine(&c, poisson(10_000.0));
        let (invites, _) = step_until_sent(&mut e, 2);
        let inv0 = parse_message(&invites[0]).unwrap();
        let inv1 = parse_message(&invites[1]).unwrap();
        assert_ne!(inv0.call_id, inv1.call_id);
        let in_flight = e.calls.len();

        // Answer the *second* call first: the pool must route by Call-ID.
        let ok1 = gen::response(StatusCode::OK, &inv1, Some("tt"), None);
        let msgs = e.on_response(t(50), &ok1);
        assert_eq!(msgs.len(), 2, "expected ACK+BYE for call 2");
        let bye1 = parse_message(&msgs[1]).unwrap();
        assert_eq!(bye1.method(), Some(Method::Bye));
        assert_eq!(bye1.call_id, inv1.call_id);
        assert_eq!(bye1.to.uri.user, inv1.to.uri.user, "BYE goes to the callee");
        assert_eq!(e.calls.len(), in_flight, "call 1 still awaits its 200");

        let bye_ok1 = gen::response(StatusCode::OK, &bye1, Some("tt"), None);
        assert!(e.on_response(t(60), &bye_ok1).is_empty(), "no successor");
        assert_eq!(e.calls.len(), in_flight - 1, "call 2 left the pool");

        let ok0 = gen::response(StatusCode::OK, &inv0, Some("tt"), None);
        let msgs = e.on_response(t(70), &ok0);
        assert_eq!(msgs.len(), 2, "expected ACK+BYE for call 1");
        let bye0 = parse_message(&msgs[1]).unwrap();
        let bye_ok0 = gen::response(StatusCode::OK, &bye0, Some("tt"), None);
        e.on_response(t(80), &bye_ok0);
        assert_eq!(e.calls.len(), in_flight - 2);
        let s = c.stats.borrow();
        assert_eq!(s.invite_ok, 2);
        assert_eq!(s.bye_ok, 2);
        assert_eq!(s.call_failures, 0);
    }

    #[test]
    fn call_past_the_setup_deadline_completes_but_scores_no_goodput() {
        let mut c = cfg(Transport::Udp, 8);
        c.setup_deadline = Some(SimDuration::from_millis(200));
        let mut e = engine(&c, poisson(10_000.0));
        let (invites, _) = step_until_sent(&mut e, 2);
        let fast = parse_message(&invites[0]).unwrap();
        let slow = parse_message(&invites[1]).unwrap();
        let in_flight = e.calls.len();

        // First call answered within budget, second well past it.
        let msgs = e.on_response(
            t(100),
            &gen::response(StatusCode::OK, &fast, Some("tt"), None),
        );
        let bye = parse_message(&msgs[1]).unwrap();
        e.on_response(
            t(110),
            &gen::response(StatusCode::OK, &bye, Some("tt"), None),
        );

        let msgs = e.on_response(
            t(900),
            &gen::response(StatusCode::OK, &slow, Some("tt"), None),
        );
        assert_eq!(msgs.len(), 2, "late call still finishes its ACK+BYE");
        let bye = parse_message(&msgs[1]).unwrap();
        e.on_response(
            t(910),
            &gen::response(StatusCode::OK, &bye, Some("tt"), None),
        );

        assert_eq!(e.calls.len(), in_flight - 2, "both calls ran to completion");
        let s = c.stats.borrow();
        assert_eq!(s.calls_late, 1);
        assert_eq!(s.invite_ok, 1, "only the in-budget call counts");
        assert_eq!(s.bye_ok, 1);
        assert_eq!(s.call_failures, 0, "late is not failed");
    }

    #[test]
    fn unanswered_call_times_out_as_failure() {
        let c = cfg(Transport::Udp, 6);
        let mut e = engine(&c, poisson(1.0));
        let (invites, at) = step_until_sent(&mut e, 1);
        // Stop retransmissions with a provisional, then run past Timer B.
        // Later arrivals keep originating meanwhile — that's the open loop —
        // so assert on the timed-out call specifically.
        let req = parse_message(&invites[0]).unwrap();
        let trying = gen::response(StatusCode::TRYING, &req, None, None);
        e.on_response(at, &trying);
        e.on_timer(at + TIMEOUT + SimDuration::from_millis(1));
        assert!(
            e.route(&req.call_id).is_none(),
            "timed-out call must leave the pool"
        );
        assert_eq!(c.stats.borrow().call_failures, 1);
    }

    #[test]
    fn callee_answers_cancel_with_200_and_487() {
        let alice = CallParty::new("alice", "h1:1");
        let bob = CallParty::new("bob", "h2:2");
        let cancel = gen::cancel(&alice, &bob, "d", "c1", "z9hG4bKinv", "UDP");
        let answers = callee_answer_timed("bob", &cancel, SimDuration::ZERO).immediate;
        assert_eq!(answers.len(), 2);
        let ok = parse_message(&answers[0]).unwrap();
        let terminated = parse_message(&answers[1]).unwrap();
        assert_eq!(ok.status(), Some(StatusCode::OK));
        assert_eq!(ok.cseq_method, Method::Cancel);
        assert_eq!(terminated.status(), Some(StatusCode::REQUEST_TERMINATED));
        assert_eq!(
            terminated.cseq_method,
            Method::Invite,
            "the 487 answers the INVITE transaction"
        );
        assert_eq!(terminated.branch(), cancel.branch());
    }

    #[test]
    fn callee_answers_invite_with_ringing_then_ok() {
        let alice = CallParty::new("alice", "h1:1");
        let bob = CallParty::new("bob", "h2:2");
        let inv = gen::invite(&alice, &bob, "d", "c1", "z9hG4bKz", "UDP");
        let answer = callee_answer_timed("bob", &inv, SimDuration::ZERO);
        assert_eq!(answer.immediate.len(), 2);
        assert!(answer.delayed_ok.is_none());
        let first = parse_message(&answer.immediate[0]).unwrap();
        let second = parse_message(&answer.immediate[1]).unwrap();
        assert_eq!(first.status(), Some(StatusCode::RINGING));
        assert_eq!(second.status(), Some(StatusCode::OK));
        assert_eq!(second.to.tag.as_deref(), Some("tt-bob"));

        // With a ring time the 200 waits.
        let ringing = callee_answer_timed("bob", &inv, SimDuration::from_millis(20));
        assert_eq!(ringing.immediate.len(), 1);
        assert_eq!(
            parse_message(ringing.delayed_ok.as_ref().unwrap())
                .unwrap()
                .status(),
            Some(StatusCode::OK)
        );

        let bye = gen::bye(&alice, &bob, "d", "c1", "tt-bob", "z9hG4bKy", "UDP");
        assert_eq!(
            callee_answer_timed("bob", &bye, SimDuration::ZERO)
                .immediate
                .len(),
            1
        );

        let ack = gen::ack(&alice, &bob, "d", "c1", "tt-bob", "z9hG4bKx", "UDP");
        assert!(callee_answer_timed("bob", &ack, SimDuration::ZERO)
            .immediate
            .is_empty());
    }

    /// The caller's address; callee `i` listens on `h2:{20001 + i}`.
    const CALLER: SockAddr = SockAddr::new(HostId(1), 20000);

    /// One caller and its callees wired through a stateful [`ProxyCore`].
    /// Every request the caller writes is compared with the builders'
    /// (through [`build_request`], which the templates are cut from), and
    /// every answer a callee writes with [`callee_answer_timed`]'s.
    struct Rig {
        core: ProxyCore,
        cfg: PhoneCfg,
        engine: CallEngine,
        callees: Vec<(String, Callee)>,
        /// 200 OKs held for the ring delay, sent once nothing else moves.
        ringing: VecDeque<(SockAddr, Bytes)>,
        requests_checked: u64,
        answers_checked: u64,
    }

    impl Rig {
        fn new(cfg: PhoneCfg, arrivals: Arrivals) -> Rig {
            let callees: Vec<String> = match &arrivals {
                Arrivals::Closed { peer } => vec![peer.clone()],
                Arrivals::Poisson { callees, .. } => callees.clone(),
            };
            let mut core = ProxyCore::new("h0:5060".into(), cfg.transport, true);
            let token = cfg.transport.token();
            let mut phones = vec![(cfg.user.clone(), CALLER)];
            phones.extend((0..callees.len()).map(|i| {
                (
                    callees[i].clone(),
                    SockAddr::new(HostId(2), 20001 + i as u16),
                )
            }));
            for (user, addr) in phones {
                let party = CallParty::new(user, format!("h{}:{}", addr.host.0, addr.port));
                let reg = gen::register(&party, &cfg.domain, 1, "z9hG4bKreg", token);
                assert!(core.handle_message(t(0), reg, addr).registered);
            }
            Rig {
                core,
                engine: CallEngine::new(&cfg, &arrivals, HostId(1)),
                cfg,
                callees: callees
                    .into_iter()
                    .map(|user| (user, Callee::default()))
                    .collect(),
                ringing: VecDeque::new(),
                requests_checked: 0,
                answers_checked: 0,
            }
        }

        /// A request from the caller, checked against the builders.
        fn check_request(&mut self, wire: &Bytes) {
            let msg = parse_message(wire).expect("requests parse");
            let method = msg.method().expect("a request");
            let (no, user) = msg
                .call_id
                .strip_prefix('c')
                .unwrap()
                .split_once('-')
                .unwrap();
            assert_eq!(user, self.cfg.user);
            // The callee the engine dialed for this call, and its tag.
            let call = &self.engine.calls[&no.parse().unwrap()];
            let requests = &self.engine.requests;
            let peer = &requests.peers[call.peer];
            let to_tag = match method {
                Method::Ack | Method::Bye => format!("tt-{}", peer.user),
                _ => String::new(),
            };
            let want = build_request(
                method,
                (&requests.party, peer),
                (&self.cfg.domain, self.cfg.transport.token()),
                no,
                &to_tag,
            );
            assert_eq!(
                String::from_utf8_lossy(wire),
                String::from_utf8_lossy(&want.to_bytes()),
                "{method} template"
            );
            self.requests_checked += 1;
        }

        /// Places calls until the caller has started `calls` more, passing
        /// every message through the proxy, then lets the last ones finish.
        fn run(&mut self, calls: u64) {
            let last = self.engine.call_no + calls;
            let mut now = t(0);
            let mut to_proxy: VecDeque<(SockAddr, Bytes)> = VecDeque::new();
            loop {
                let Some((src, bytes)) = to_proxy.pop_front() else {
                    if let Some(ok) = self.ringing.pop_front() {
                        to_proxy.push_back(ok);
                        continue;
                    }
                    if self.engine.call_no >= last {
                        return;
                    }
                    now = now.max(self.engine.next_wake());
                    for req in self.engine.on_timer(now) {
                        self.check_request(&req);
                        to_proxy.push_back((CALLER, req));
                    }
                    continue;
                };
                now += SimDuration::from_micros(10);
                let msg = Inbound::read(&bytes).expect("phones send what parses");
                for out in self.core.handle(now, msg, src).out {
                    if out.dest == CALLER {
                        for req in self.engine.on_wire(now, &out.bytes) {
                            self.check_request(&req);
                            if self.engine.call_no <= last {
                                to_proxy.push_back((CALLER, req));
                            }
                        }
                        continue;
                    }
                    let (user, callee) = &mut self.callees[usize::from(out.dest.port - 20001)];
                    let ring = self.cfg.ring_delay;
                    let answer = callee.answer(user, &out.bytes, ring);
                    let want = callee_answer_timed(user, &parse_message(&out.bytes).unwrap(), ring);
                    assert_eq!(answer, want, "{}", String::from_utf8_lossy(&out.bytes));
                    assert_eq!(answer.reply_to, Some(SockAddr::new(HostId(0), 5060)));
                    self.answers_checked += 1;
                    to_proxy.extend(answer.immediate.into_iter().map(|b| (out.dest, b)));
                    self.ringing
                        .extend(answer.delayed_ok.map(|b| (out.dest, b)));
                }
            }
        }
    }

    #[test]
    fn templates_and_echoed_answers_match_the_builders_through_the_proxy() {
        for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
            for arrivals in [closed(), poisson(200.0)] {
                for (cancel_every, ring_ms) in [(None, 0), (Some(3), 0), (Some(2), 20)] {
                    // Call numbers cross 9 → 10 and 99 → 100, then 10⁶.
                    for (first, calls) in [(0, 120), (999_990, 20)] {
                        let mut c = cfg(transport, 3);
                        c.cancel_every = cancel_every;
                        c.ring_delay = SimDuration::from_millis(ring_ms);
                        let mut rig = Rig::new(c, arrivals.clone());
                        rig.engine.call_no = first;
                        rig.run(calls);
                        let case = format!(
                            "{transport:?} {arrivals:?} {cancel_every:?} {ring_ms} ms from {first}"
                        );
                        let stats = rig.cfg.stats.borrow();
                        assert!(
                            stats.invite_ok + stats.calls_cancelled >= calls - 2,
                            "{case}"
                        );
                        assert_eq!(stats.call_failures, 0, "{case}");
                        assert!(stats.bye_ok > 0, "{case}");
                        if cancel_every.is_some() && ring_ms > 0 {
                            assert!(stats.calls_cancelled > 0, "{case}: no CANCEL won");
                        }
                        assert!(rig.requests_checked >= 2 * (calls - 2), "{case}");
                        assert!(rig.answers_checked >= 2 * (calls - 2), "{case}");
                    }
                }
            }
        }
    }
}
