//! Heap allocations on the SIP hot path, counted by a wrapping global
//! allocator. Parsing a call-mix message allocates only the shared header
//! copy, the Via vector and the body; a response built from a parsed
//! request shares the request's text instead of copying it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::{SipMessage, StatusCode, Via};
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

/// The messages of one call as a proxy sees them: REGISTER, the INVITE
/// as forwarded (two Vias), 100, 180, 200, ACK and BYE.
fn call_mix() -> Vec<(&'static str, SipMessage)> {
    let (t, d) = ("UDP", "sip.lab");
    let caller = CallParty::new("c0", "h1:20000");
    let callee = CallParty::new("e0", "h2:20001");
    let mut invite = gen::invite(&caller, &callee, d, "mix", "z9hG4bKi0", t);
    invite.vias.insert(0, Via::new(t, "h0:5060", "z9hG4bKpx1"));
    vec![
        ("REGISTER", gen::register(&callee, d, 1, "z9hG4bKr0", t)),
        (
            "100",
            gen::response(StatusCode::TRYING, &invite, None, None),
        ),
        (
            "180",
            gen::response(StatusCode::RINGING, &invite, Some("bt-e0"), None),
        ),
        (
            "200",
            gen::response(
                StatusCode::OK,
                &invite,
                Some("bt-e0"),
                Some(callee.contact()),
            ),
        ),
        (
            "ACK",
            gen::ack(&caller, &callee, d, "mix", "bt-e0", "z9hG4bKa0", t),
        ),
        (
            "BYE",
            gen::bye(&caller, &callee, d, "mix", "bt-e0", "z9hG4bKb0", t),
        ),
        ("INVITE", invite),
    ]
}

#[test]
fn parsing_allocates_the_header_copy_the_vias_and_the_body() {
    for (name, msg) in call_mix() {
        let wire = msg.to_bytes();
        let (parsed, allocs) = counted(|| parse_message(&wire).expect("generated wire parses"));
        let want = 2 + u64::from(!parsed.body.is_empty());
        assert!(
            allocs <= want,
            "{name}: {allocs} allocations, want at most {want}"
        );
        assert_eq!(parsed, msg);
    }
}

#[test]
fn a_response_shares_its_requests_header_text() {
    let invite = call_mix().pop().expect("the mix ends with the INVITE").1;
    let req = parse_message(&invite.to_bytes()).expect("INVITE parses");
    let same = |a: &str, b: &str| std::ptr::eq(a.as_ptr(), b.as_ptr()) && a == b;
    for (code, tag, new_tag) in [
        (StatusCode::TRYING, None, false),
        (StatusCode::RINGING, Some("bt-e0"), true),
        (StatusCode::SERVICE_UNAVAILABLE, None, false),
    ] {
        let (resp, allocs) = counted(|| gen::response(code, &req, tag, None));
        // The Via vector, plus the To tag when the response adds one.
        assert_eq!(allocs, 1 + u64::from(new_tag), "{code}");
        for (ours, theirs) in resp.vias.iter().zip(&req.vias) {
            assert!(same(&ours.transport, &theirs.transport));
            assert!(same(&ours.sent_by, &theirs.sent_by));
            assert!(same(&ours.branch, &theirs.branch));
        }
        assert!(same(&resp.from.uri.user, &req.from.uri.user));
        assert!(same(&resp.from.uri.host, &req.from.uri.host));
        assert!(same(
            resp.from.tag.as_deref().unwrap(),
            req.from.tag.as_deref().unwrap()
        ));
        assert!(same(&resp.to.uri.user, &req.to.uri.user));
        assert!(same(&resp.to.uri.host, &req.to.uri.host));
        assert!(same(&resp.call_id, &req.call_id));
    }
}
