//! The proxy's wire path against its parsed path. Two cores get the same
//! messages. One reads each as received ([`Inbound::read`]): it scans the
//! call's messages and splices their forwards, relays and 100 Trying. The
//! other parses each and answers through the builders
//! ([`ProxyCore::handle_message`]). Every plan, every timer pass and the
//! final statistics must be equal.

use siperf_overload::QueueThreshold;
use siperf_proxy::config::Transport;
use siperf_proxy::core::{Inbound, Outgoing, Plan, ProxyCore, TimerPass};
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::{HostId, SockAddr};
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::{SipMessage, StatusCode, Via};
use siperf_sip::parse::parse_message;

const DOMAIN: &str = "sip.lab";

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Phone `i`: its party and the address it sends from.
fn phone(i: u16) -> (CallParty, SockAddr) {
    let port = 20_000 + i;
    let party = CallParty::new(format!("p{i}"), format!("h{}:{port}", i + 1));
    (party, SockAddr::new(HostId(u32::from(i) + 1), port))
}

#[track_caller]
fn assert_outs_equal(what: &str, wire: &[Outgoing], parsed: &[Outgoing]) {
    assert_eq!(wire.len(), parsed.len(), "{what}: message count");
    for (a, b) in wire.iter().zip(parsed) {
        assert_eq!(
            String::from_utf8_lossy(&a.bytes),
            String::from_utf8_lossy(&b.bytes),
            "{what}: bytes"
        );
        assert_eq!((a.dest, a.alt), (b.dest, b.alt), "{what}: destination");
    }
}

/// The two cores, fed alike.
struct Pair {
    wire: ProxyCore,
    parsed: ProxyCore,
    transport: Transport,
    /// Messages the wire core read by scanning.
    scanned: usize,
    /// Messages fed.
    fed: usize,
}

impl Pair {
    /// Two cores with phones `0..phones` registered.
    fn new(transport: Transport, stateful: bool, phones: u16) -> Pair {
        let core = || ProxyCore::new("h0:5060".into(), transport, stateful);
        let mut pair = Pair {
            wire: core(),
            parsed: core(),
            transport,
            scanned: 0,
            fed: 0,
        };
        for i in 0..phones {
            let (party, src) = phone(i);
            let reg = gen::register(&party, DOMAIN, 1, "z9hG4bKreg", transport.token());
            assert!(pair.feed(t(0), &reg, src).registered);
        }
        pair
    }

    /// Feeds `msg`'s wire bytes to both cores and checks that they agree.
    #[track_caller]
    fn feed(&mut self, now: SimTime, msg: &SipMessage, src: SockAddr) -> Plan {
        self.feed_raw(now, &msg.to_bytes(), src)
    }

    #[track_caller]
    fn feed_raw(&mut self, now: SimTime, raw: &[u8], src: SockAddr) -> Plan {
        let shown = String::from_utf8_lossy(raw).into_owned();
        let inbound = Inbound::read(raw).expect("test messages parse");
        self.fed += 1;
        self.scanned += usize::from(matches!(inbound, Inbound::Scanned(_)));
        let wire = self.wire.handle(now, inbound, src);
        let msg = parse_message(raw).expect("test messages parse");
        let parsed = self.parsed.handle_message(now, msg, src);
        assert_outs_equal(&shown, &wire.out, &parsed.out);
        assert_eq!(
            (
                wire.absorbed,
                wire.txn_created,
                wire.registered,
                wire.rejected
            ),
            (
                parsed.absorbed,
                parsed.txn_created,
                parsed.registered,
                parsed.rejected
            ),
            "{shown}: flags"
        );
        wire
    }

    #[track_caller]
    fn timer_pass(&mut self, now: SimTime) -> TimerPass {
        let wire = self.wire.timer_pass(now);
        let parsed = self.parsed.timer_pass(now);
        assert_outs_equal("retransmits", &wire.retransmits, &parsed.retransmits);
        assert_outs_equal("timeouts", &wire.timeouts, &parsed.timeouts);
        assert_eq!(
            (wire.examined, wire.reaped),
            (parsed.examined, parsed.reaped)
        );
        wire
    }

    /// The INVITE from phone `from` to phone `to` for call `no`, fed; the
    /// plan and the forward as the callee parses it.
    fn invite(&mut self, now: SimTime, from: u16, to: u16, no: u64) -> (Plan, SipMessage) {
        let ((caller, src), (callee, _)) = (phone(from), phone(to));
        let token = self.transport.token();
        let (id, branch) = (format!("c{no}-{}", caller.user), format!("z9hG4bKi{no}"));
        let invite = gen::invite(&caller, &callee, DOMAIN, &id, &branch, token);
        let plan = self.feed(now, &invite, src);
        let fwd = parse_message(&plan.out.last().expect("a forward").bytes).unwrap();
        (plan, fwd)
    }

    /// One whole call from phone `from` to phone `to`.
    fn call(&mut self, now: SimTime, from: u16, to: u16, no: u64) {
        let ((caller, src), (callee, dst)) = (phone(from), phone(to));
        let token = self.transport.token();
        let (plan, fwd) = self.invite(now, from, to, no);
        assert!(!plan.rejected, "call {no} admitted");
        let tag = Some("tt-callee");
        let ringing = gen::response(StatusCode::RINGING, &fwd, tag, None);
        self.feed(now, &ringing, dst);
        let ok = gen::response(StatusCode::OK, &fwd, tag, Some(callee.contact()));
        self.feed(now, &ok, dst);
        let id = format!("c{no}-{}", caller.user);
        let ack = gen::ack(
            &caller,
            &callee,
            DOMAIN,
            &id,
            "tt-callee",
            &format!("z9hG4bKa{no}"),
            token,
        );
        self.feed(now, &ack, src);
        let bye = gen::bye(
            &caller,
            &callee,
            DOMAIN,
            &id,
            "tt-callee",
            &format!("z9hG4bKb{no}"),
            token,
        );
        let plan = self.feed(now, &bye, src);
        let fwd_bye = parse_message(&plan.out[0].bytes).unwrap();
        let bye_ok = gen::response(StatusCode::OK, &fwd_bye, None, None);
        self.feed(now, &bye_ok, dst);
    }

    fn finish(self) {
        assert_eq!(
            format!("{:?}", self.wire.stats),
            format!("{:?}", self.parsed.stats),
            "final statistics"
        );
    }
}

#[test]
fn the_call_mix_routes_alike_and_scans() {
    for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
        let mut pair = Pair::new(transport, true, 4);
        let registrations = pair.fed;
        for no in 0..12 {
            let from = (no % 4) as u16;
            pair.call(t(10 + no), from, (from + 1) % 4, no);
        }
        // INVITE, 180, 200, ACK, BYE and the BYE's 200, all scanned.
        assert_eq!(pair.scanned, 6 * 12, "{transport:?}");
        assert_eq!(pair.fed, registrations + 6 * 12);
        pair.timer_pass(t(10_000));
        pair.finish();
    }
}

#[test]
fn retransmissions_and_odd_requests_route_alike() {
    for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
        let token = transport.token();
        let mut pair = Pair::new(transport, true, 2);
        let ((alice, a_src), (bob, b_src)) = (phone(0), phone(1));

        // Retransmitted INVITE: before and after a provisional answer.
        let invite = gen::invite(&alice, &bob, DOMAIN, "c1", "z9hG4bKi1", token);
        let fwd = parse_message(&pair.feed(t(1), &invite, a_src).out[1].bytes).unwrap();
        assert!(pair.feed(t(2), &invite, a_src).absorbed);
        let ringing = gen::response(StatusCode::RINGING, &fwd, Some("tt-b"), None);
        pair.feed(t(3), &ringing, b_src);
        assert_eq!(pair.feed(t(4), &invite, a_src).out.len(), 1);
        let ok = gen::response(StatusCode::OK, &fwd, Some("tt-b"), Some(bob.contact()));
        pair.feed(t(5), &ok, b_src);
        // The callee's retransmitted 200 is relayed again.
        pair.feed(t(6), &ok, b_src);
        let ack = gen::ack(&alice, &bob, DOMAIN, "c1", "tt-b", "z9hG4bKa1", token);
        pair.feed(t(7), &ack, a_src);
        pair.feed(t(8), &ack, a_src);

        // Retransmitted BYE.
        let bye = gen::bye(&alice, &bob, DOMAIN, "c1", "tt-b", "z9hG4bKb1", token);
        let fwd_bye = parse_message(&pair.feed(t(9), &bye, a_src).out[0].bytes).unwrap();
        assert!(pair.feed(t(10), &bye, a_src).absorbed);
        let bye_ok = gen::response(StatusCode::OK, &fwd_bye, None, None);
        pair.feed(t(11), &bye_ok, b_src);
        assert!(pair.feed(t(12), &bye, a_src).absorbed);

        // No hop left: a 500.
        let mut tired = gen::invite(&alice, &bob, DOMAIN, "c2", "z9hG4bKi2", token);
        tired.max_forwards = 0;
        assert_eq!(pair.feed(t(13), &tired, a_src).out.len(), 1);

        // An unknown callee: a 404.
        let nobody = CallParty::new("nobody", "h9:29999");
        let lost = gen::invite(&alice, &nobody, DOMAIN, "c3", "z9hG4bKi3", token);
        assert_eq!(pair.feed(t(14), &lost, a_src).out.len(), 1);

        // A response whose top Via is someone else's: dropped.
        let stray = gen::response(StatusCode::OK, &invite, Some("tt-b"), None);
        assert!(pair.feed(t(15), &stray, b_src).out.is_empty());

        // A response after its transaction was reaped: dropped.
        pair.timer_pass(t(6_000));
        pair.timer_pass(t(12_000));
        assert_eq!(pair.wire.live_txns(), 0);
        assert!(pair.feed(t(12_001), &ok, b_src).out.is_empty());
        assert!(pair.feed(t(12_002), &bye_ok, b_src).out.is_empty());

        // A request with a longer Via stack, as from another proxy.
        let mut relayed = gen::invite(&alice, &bob, DOMAIN, "c4", "z9hG4bKi4", token);
        relayed
            .vias
            .insert(0, Via::new(token, "h7:5060", "z9hG4bKup4"));
        let plan = pair.feed(t(12_003), &relayed, SockAddr::new(HostId(7), 5060));
        let fwd = parse_message(&plan.out[1].bytes).unwrap();
        assert_eq!(fwd.vias.len(), 3);
        let ok = gen::response(StatusCode::OK, &fwd, Some("tt-b"), Some(bob.contact()));
        pair.feed(t(12_004), &ok, b_src);

        // Trailing bytes after the body are not part of the message.
        let mut padded = gen::invite(&alice, &bob, DOMAIN, "c5", "z9hG4bKi5", token).to_bytes();
        padded.extend_from_slice(b"\r\n");
        pair.feed_raw(t(12_005), &padded, a_src);

        // Unreliable transports retransmit the forward, then time out.
        let timed_out = pair.timer_pass(t(60_000));
        if transport.is_reliable() {
            assert!(timed_out.retransmits.is_empty());
        }
        pair.finish();
    }
}

#[test]
fn cancel_and_its_487_route_alike() {
    for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
        let token = transport.token();
        let mut pair = Pair::new(transport, true, 2);
        let ((alice, a_src), (bob, b_src)) = (phone(0), phone(1));
        let (_, fwd) = pair.invite(t(1), 0, 1, 1);
        let ringing = gen::response(StatusCode::RINGING, &fwd, Some("tt-b"), None);
        pair.feed(t(2), &ringing, b_src);
        let cancel = gen::cancel(&alice, &bob, DOMAIN, "c1-p0", "z9hG4bKi1", token);
        let plan = pair.feed(t(3), &cancel, a_src);
        assert_eq!(plan.out.len(), 2, "the 200 and the relayed CANCEL");
        let fwd_cancel = parse_message(&plan.out[1].bytes).unwrap();
        let cancel_ok = gen::response(StatusCode::OK, &fwd_cancel, Some("tt-b"), None);
        assert!(pair.feed(t(4), &cancel_ok, b_src).out.is_empty());
        let mut terminated = gen::response(
            StatusCode::REQUEST_TERMINATED,
            &fwd_cancel,
            Some("tt-b"),
            None,
        );
        terminated.cseq_method = siperf_sip::msg::Method::Invite;
        assert_eq!(pair.feed(t(5), &terminated, b_src).out.len(), 1);
        // A CANCEL for nothing: a 481.
        let orphan = gen::cancel(&alice, &bob, DOMAIN, "c9-p0", "z9hG4bKi9", token);
        assert_eq!(pair.feed(t(6), &orphan, a_src).out.len(), 1);
        pair.finish();
    }
}

#[test]
fn shedding_routes_alike() {
    for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
        let mut pair = Pair::new(transport, true, 4);
        for core in [&mut pair.wire, &mut pair.parsed] {
            core.set_overload_policy(Box::new(QueueThreshold::new(2, 1, 3)));
        }
        let mut shed = 0;
        let mut pending = vec![];
        for no in 0..20 {
            let from = (no % 4) as u16;
            let (plan, fwd) = pair.invite(t(no), from, (from + 2) % 4, no);
            if plan.rejected {
                shed += 1;
            } else {
                pending.push((fwd, phone((from + 2) % 4).1));
            }
            if no % 3 == 2 {
                // Answer the oldest pending call: the level drains.
                let (fwd, dst) = pending.remove(0);
                let ok = gen::response(StatusCode::OK, &fwd, Some("tt-x"), None);
                pair.feed(t(no), &ok, dst);
            }
        }
        assert!(shed > 0 && shed < 20, "{transport:?}: {shed} shed");
        pair.finish();
    }
}

#[test]
fn a_stateless_core_routes_alike() {
    for transport in [Transport::Udp, Transport::Tcp, Transport::Sctp] {
        let mut pair = Pair::new(transport, false, 2);
        for no in 0..3 {
            pair.call(t(no), 0, 1, no);
        }
        let (plan, _) = pair.invite(t(9), 0, 1, 9);
        assert_eq!(plan.out.len(), 1, "no 100 Trying");
        pair.finish();
    }
}
