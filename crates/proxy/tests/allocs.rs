//! Heap allocations of the proxy's transaction lookups, counted by a
//! wrapping global allocator. Matching a message to its transaction borrows
//! the branch from the message: absorbing a retransmission or relaying a
//! response copies no key.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use siperf_proxy::config::Transport;
use siperf_proxy::core::{Plan, ProxyCore};
use siperf_simcore::time::{SimDuration, SimTime};
use siperf_simnet::addr::{HostId, SockAddr};
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::{SipMessage, StatusCode};
use siperf_sip::parse::parse_message;

/// Counts this thread's allocations, so tests running in parallel on
/// other threads do not disturb each other's counts.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
