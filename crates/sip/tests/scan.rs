//! The scanner against the parser: over the messages of a call as a phone
//! receives them, and over every single-byte change to them, `scan` either
//! declines or agrees with `parse_message` on every field it reads (see
//! `common::assert_scan_agrees`). The torture battery runs the same check
//! on each of its inputs. On the same inputs, each splice of a scanned
//! message writes what editing the parsed message and serializing it
//! writes (`assert_splices_agree`).

mod common;

use common::assert_scan_agrees;
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::{SipMessage, StatusCode, Via};
use siperf_sip::parse::parse_message;
use siperf_sip::scan::{scan, Tail};

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

/// Every single-byte change, insertion and removal of `wire`.
fn variants(wire: &[u8]) -> Vec<Vec<u8>> {
    const BYTES: &[u8] = b" \t\r\n;:<>@=/-.0179aAzZ~\x00\x7f\x80\xff";
    let mut variants = vec![];
    for at in 0..wire.len() {
        for &b in BYTES {
            let mut changed = wire.to_vec();
            changed[at] = b;
            variants.push(changed);
            let mut inserted = wire.to_vec();
            inserted.insert(at, b);
            variants.push(inserted);
        }
        let mut removed = wire.to_vec();
        removed.remove(at);
        variants.push(removed);
    }
    variants
}

#[test]
fn every_single_byte_change_scans_alike_or_falls_back() {
    let mut accepted = 0;
    let mut tried = 0;
    for (_, msg) in phone_mix() {
        for variant in variants(&msg.to_bytes()) {
            tried += 1;
            accepted += u32::from(assert_scan_agrees(&variant));
        }
    }
    // Changes inside names, numbers, tags and the body still scan; the
    // check must not pass by declining everything.
    assert!(
        accepted > tried / 20,
        "only {accepted} of {tried} variants scanned"
    );
}

/// Checks every splice of `raw` against the parsed message edited the same
/// way and serialized; returns whether `raw` scanned.
#[track_caller]
fn assert_splices_agree(raw: &[u8]) -> bool {
    let Some(s) = scan(raw) else {
        return false;
    };
    let msg = parse_message(raw).expect("whatever scans parses");
    let shown = String::from_utf8_lossy(raw);
    let check = |what: &str, spliced: &[u8], built: &SipMessage| {
        assert_eq!(
            String::from_utf8_lossy(spliced),
            String::from_utf8_lossy(&built.to_bytes()),
            "{what} of {shown:?}"
        );
    };

    if s.max_forwards > 0 {
        let mut out = b"kept".to_vec();
        s.write_forward(&mut out, "SCTP", "h0:5060", "z9hG4bKpx1234");
        let mut fwd = msg.clone();
        fwd.vias
            .insert(0, Via::new("SCTP", "h0:5060", "z9hG4bKpx1234"));
        fwd.max_forwards -= 1;
        assert!(out.starts_with(b"kept"), "the writers append");
        check("the forward", &out[4..], &fwd);
    }

    let mut out = vec![];
    s.write_relay(&mut out);
    let mut relayed = msg.clone();
    relayed.vias.remove(0);
    check("the relay", &out, &relayed);

    for (code, tag) in [
        (StatusCode::TRYING, None),
        (StatusCode::RINGING, Some("tt-x")),
        (StatusCode::NOT_FOUND, None),
    ] {
        out.clear();
        s.write_reply(&mut out, code, tag, Tail::Bare);
        check("a bare reply", &out, &gen::response(code, &msg, tag, None));
    }
    let ok = gen::response(StatusCode::OK, &msg, Some("tt-x"), Some(msg.to.uri.clone()));
    let mut rest = format!(
        "Max-Forwards: 70\r\nContent-Length: {}\r\n\r\n",
        ok.body.len()
    )
    .into_bytes();
    rest.extend_from_slice(&ok.body);
    out.clear();
    let tail = Tail::Contact {
        uri: s.to_uri,
        rest: &rest,
    };
    s.write_reply(&mut out, StatusCode::OK, Some("tt-x"), tail);
    check("a 200 with Contact", &out, &ok);
    out.clear();
    let tail = Tail::RetryAfter(17);
    s.write_reply(&mut out, StatusCode::SERVICE_UNAVAILABLE, None, tail);
    check("a 503", &out, &gen::service_unavailable(&msg, 17));
    true
}

#[test]
fn the_call_mix_splices_as_the_builders_write() {
    for (i, (name, msg)) in phone_mix().into_iter().enumerate() {
        let accepted = assert_splices_agree(&msg.to_bytes());
        assert_eq!(accepted, i < 7, "{name}");
    }
}

#[test]
fn every_scanned_single_byte_change_splices_as_the_builders_write() {
    let mut accepted = 0;
    for (_, msg) in phone_mix() {
        for variant in variants(&msg.to_bytes()) {
            accepted += u32::from(assert_splices_agree(&variant));
        }
    }
    assert!(accepted > 1000, "only {accepted} variants scanned");
}
