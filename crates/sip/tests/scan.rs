//! The phone-side scanner against the parser: over the messages of a call
//! as a phone receives them, and over every single-byte change to them,
//! `scan` either declines or agrees with `parse_message` on every field it
//! reads (see `common::assert_scan_agrees`). The torture battery runs the
//! same check on each of its inputs.

mod common;

use common::assert_scan_agrees;
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::{SipMessage, StatusCode, Via};

/// The messages of one call as the phones receive them: the caller gets
/// the responses with one Via, the callee the forwarded requests with two.
/// The last three must fall back to the parser.
fn phone_mix() -> Vec<(&'static str, SipMessage)> {
    let (t, d) = ("UDP", "sip.lab");
    let caller = CallParty::new("c0", "h1:20000");
    let callee = CallParty::new("e0", "h2:20001");
    let invite = gen::invite(&caller, &callee, d, "c12-c0", "z9hG4bKc0i12", t);
    let ack = gen::ack(&caller, &callee, d, "c12-c0", "tt-e0", "z9hG4bKc0a12", t);
    let bye = gen::bye(&caller, &callee, d, "c12-c0", "tt-e0", "z9hG4bKc0b12", t);
    let cancel = gen::cancel(&caller, &callee, d, "c12-c0", "z9hG4bKc0i12", t);
    let forwarded = |msg: &SipMessage| {
        let mut fwd = msg.clone();
        fwd.vias.insert(0, Via::new(t, "h0:5060", "z9hG4bKpx7"));
        fwd.max_forwards -= 1;
        fwd
    };
    let tag = Some("tt-e0");
    vec![
        (
            "100",
            gen::response(StatusCode::TRYING, &invite, None, None),
        ),
        (
            "180",
            gen::response(StatusCode::RINGING, &invite, tag, None),
        ),
        (
            "200",
            gen::response(StatusCode::OK, &invite, tag, Some(callee.contact())),
        ),
        ("200 BYE", gen::response(StatusCode::OK, &bye, tag, None)),
        ("INVITE", forwarded(&invite)),
        ("ACK", forwarded(&ack)),
        ("BYE", forwarded(&bye)),
        ("503", gen::service_unavailable(&invite, 2)),
        ("CANCEL", forwarded(&cancel)),
        ("REGISTER", gen::register(&caller, d, 1, "z9hG4bKr0", t)),
    ]
}

#[test]
fn the_call_mix_scans_and_agrees_with_the_parser() {
    for (i, (name, msg)) in phone_mix().into_iter().enumerate() {
        let accepted = assert_scan_agrees(&msg.to_bytes());
        assert_eq!(accepted, i < 7, "{name}");
    }
}

#[test]
fn every_single_byte_change_scans_alike_or_falls_back() {
    const BYTES: &[u8] = b" \t\r\n;:<>@=/-.0179aAzZ~\x00\x7f\x80\xff";
    let mut accepted = 0;
    let mut tried = 0;
    for (_, msg) in phone_mix() {
        let wire = msg.to_bytes();
        for at in 0..wire.len() {
            let mut variants = vec![];
            for &b in BYTES {
                let mut changed = wire.clone();
                changed[at] = b;
                variants.push(changed);
                let mut inserted = wire.clone();
                inserted.insert(at, b);
                variants.push(inserted);
            }
            let mut removed = wire.clone();
            removed.remove(at);
            variants.push(removed);
            for variant in variants {
                tried += 1;
                accepted += u32::from(assert_scan_agrees(&variant));
            }
        }
    }
    // Changes inside names, numbers, tags and the body still scan; the
    // check must not pass by declining everything.
    assert!(
        accepted > tried / 20,
        "only {accepted} of {tried} variants scanned"
    );
}
