//! Heap allocations of the proxy's routing, counted by a wrapping global
//! allocator. Matching a message to its transaction borrows the branch from
//! the message: absorbing a retransmission or relaying a response copies no
//! key. Forwarding an INVITE read from the wire parses nothing and builds
//! no message. A finished transaction holds only what its linger needs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use siperf_proxy::config::Transport;
use siperf_proxy::core::{Inbound, Plan, ProxyCore};
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::{HostId, SockAddr};
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::{SipMessage, StatusCode};
use siperf_sip::parse::parse_message;

/// Counts this thread's allocations and the bytes it holds, so tests
/// running in parallel on other threads do not disturb each other's counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated less bytes freed.
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

fn note(allocs: u64, bytes: isize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// Bytes this thread holds on the heap now.
fn live_bytes() -> isize {
    LIVE.with(Cell::get)
}

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

const ALICE_SRC: SockAddr = SockAddr::new(HostId(1), 33000);
const BOB_SRC: SockAddr = SockAddr::new(HostId(2), 33001);

/// A stateful UDP core with alice and bob registered and alice's INVITE
/// forwarded to bob: the core, the INVITE, and the forward as bob parses
/// it.
fn invite_in_flight() -> (ProxyCore, SipMessage, SipMessage) {
    let alice = CallParty::new("alice", "h1:20001");
    let bob = CallParty::new("bob", "h2:20002");
    let mut core = ProxyCore::new("h0:5060".into(), Transport::Udp, true);
    for (party, src) in [(&alice, ALICE_SRC), (&bob, BOB_SRC)] {
        let reg = gen::register(party, "sip.lab", 1, "z9hG4bKreg", "UDP");
        assert!(core.handle_message(t(0), reg, src).registered);
    }
    let invite = gen::invite(&alice, &bob, "sip.lab", "c1", "z9hG4bKi1", "UDP");
    let plan = core.handle_message(t(1), invite.clone(), ALICE_SRC);
    assert!(plan.txn_created);
    let fwd = plan
        .out
        .iter()
        .find(|out| out.dest == BOB_SRC)
        .expect("the INVITE is forwarded to bob");
    let fwd = parse_message(&fwd.bytes).expect("forwards parse");
    (core, invite, fwd)
}

/// Relays one response from bob, returning the plan and its allocations.
fn relay(core: &mut ProxyCore, fwd: &SipMessage, code: StatusCode) -> (Plan, u64) {
    let resp = gen::response(code, fwd, Some("tt-bob"), None);
    counted(|| core.handle_message(t(2), resp, BOB_SRC))
}

#[test]
fn relaying_a_response_copies_no_transaction_key() {
    let (mut core, _, fwd) = invite_in_flight();
    for code in [StatusCode::RINGING, StatusCode::OK] {
        let (plan, allocs) = relay(&mut core, &fwd, code);
        assert_eq!(plan.out.len(), 1, "{code}: relayed upstream");
        assert_eq!(plan.out[0].dest, ALICE_SRC);
        // The serialized response, its shared copy, and the plan's list.
        assert!(allocs <= 3, "{code}: {allocs} allocations, want at most 3");
    }
}

#[test]
fn absorbing_a_retransmission_copies_no_transaction_key() {
    let (mut core, invite, fwd) = invite_in_flight();
    relay(&mut core, &fwd, StatusCode::RINGING);
    let retransmission = invite.clone();
    let (plan, allocs) = counted(|| core.handle_message(t(3), retransmission, ALICE_SRC));
    assert!(plan.absorbed);
    assert_eq!(plan.out.len(), 1, "the stored 180 is replayed");
    // Only the plan's list: the replayed response is shared.
    assert!(allocs <= 1, "{allocs} allocations, want at most 1");
}

#[test]
fn forwarding_an_invite_from_the_wire_builds_no_message() {
    let (mut core, _, _) = invite_in_flight();
    let alice = CallParty::new("alice", "h1:20001");
    let bob = CallParty::new("bob", "h2:20002");
    let mut forward = |no: u32| {
        let (id, branch) = (format!("c{no}"), format!("z9hG4bKi{no}"));
        let wire = gen::invite(&alice, &bob, "sip.lab", &id, &branch, "UDP").to_bytes();
        counted(|| {
            let msg = Inbound::read(&wire).expect("the INVITE reads");
            assert!(matches!(msg, Inbound::Scanned(_)), "the INVITE scans");
            core.handle(t(3), msg, ALICE_SRC)
        })
    };
    // The first splice grows the core's write buffer.
    forward(2);
    let (plan, allocs) = forward(3);
    assert!(plan.txn_created);
    assert_eq!(plan.out.len(), 2, "the 100 Trying and the forward");
    // Debug builds also build every splice through the builders, to check
    // it; the bound holds where that check is off.
    if cfg!(debug_assertions) {
        return;
    }
    // The 100 and the forward (one shared copy each), the two transaction
    // keys and the plan's list; one more when a transaction-table node
    // splits.
    assert!(allocs <= 6, "{allocs} allocations, want at most 6");
}

/// Routes `wire` from `src` as a worker does: read, then handled.
fn route(core: &mut ProxyCore, wire: &[u8], src: SockAddr) -> Plan {
    let msg = Inbound::read(wire).expect("the message reads");
    assert!(matches!(msg, Inbound::Scanned(_)), "the message scans");
    core.handle(t(3), msg, src)
}

/// One whole call from the wire: INVITE, 100, 180, 200, ACK, then BYE and
/// its 200. It leaves two transactions lingering.
fn whole_call(core: &mut ProxyCore, no: u32) {
    let alice = CallParty::new("alice", "h1:20001");
    let bob = CallParty::new("bob", "h2:20002");
    let id = format!("c{no}");
    let invite = gen::invite(
        &alice,
        &bob,
        "sip.lab",
        &id,
        &format!("z9hG4bKi{no}"),
        "UDP",
    );
    let plan = route(core, &invite.to_bytes(), ALICE_SRC);
    assert_eq!(plan.out.len(), 2, "the 100 Trying and the forward");
    let fwd = parse_message(&plan.out[1].bytes).expect("forwards parse");
    for (code, contact) in [
        (StatusCode::RINGING, None),
        (StatusCode::OK, Some(bob.contact())),
    ] {
        let resp = gen::response(code, &fwd, Some("tt-bob"), contact);
        assert_eq!(route(core, &resp.to_bytes(), BOB_SRC).out.len(), 1);
    }
    let ack = gen::ack(
        &alice,
        &bob,
        "sip.lab",
        &id,
        "tt-bob",
        &format!("z9hG4bKk{no}"),
        "UDP",
    );
    assert_eq!(route(core, &ack.to_bytes(), ALICE_SRC).out.len(), 1);
    let bye = gen::bye(
        &alice,
        &bob,
        "sip.lab",
        &id,
        "tt-bob",
        &format!("z9hG4bKb{no}"),
        "UDP",
    );
    let plan = route(core, &bye.to_bytes(), ALICE_SRC);
    let fwd = parse_message(&plan.out[0].bytes).expect("forwards parse");
    let ok = gen::response(StatusCode::OK, &fwd, Some("tt-bob"), None);
    assert_eq!(route(core, &ok.to_bytes(), BOB_SRC).out.len(), 1);
}

/// What a lingering transaction may hold, on average over an INVITE and a
/// BYE: its last response, its two keys, its index entries and its table
/// slot, each with the slack of a growing table. Near 650 bytes; its
/// forward would add about 400 more.
const BOUND: isize = 800;

#[test]
fn a_lingering_transaction_holds_no_forward() {
    let (mut core, _, _) = invite_in_flight();
    // The first call grows the core's write buffer.
    whole_call(&mut core, 100);
    let before = live_bytes();
    for no in 101..=200 {
        whole_call(&mut core, no);
    }
    let per_txn = (live_bytes() - before) / 200;
    assert_eq!(core.live_txns(), 203, "every transaction lingers");
    assert_eq!(core.stats.txns_reaped, 0);
    assert!(
        per_txn <= BOUND,
        "{per_txn} bytes per transaction, want at most {BOUND}"
    );
}
