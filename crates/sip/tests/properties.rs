//! Property-based tests for the SIP layer: serialization round-trips and
//! framing under arbitrary stream segmentation.

mod common;

use proptest::prelude::*;

use siperf_sip::framer::StreamFramer;
use siperf_sip::msg::{Method, NameAddr, SipMessage, SipUri, StartLine, StatusCode, Via};
use siperf_sip::parse::parse_message;

fn token() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9]{1,12}".prop_map(|s| s)
}

fn method() -> impl Strategy<Value = Method> {
    prop_oneof![
        Just(Method::Invite),
        Just(Method::Ack),
        Just(Method::Bye),
        Just(Method::Cancel),
        Just(Method::Register),
        Just(Method::Options),
    ]
}

/// The methods the phones' scanner reads.
fn phone_method() -> impl Strategy<Value = Method> {
    prop_oneof![Just(Method::Invite), Just(Method::Ack), Just(Method::Bye)]
}

fn status() -> impl Strategy<Value = StatusCode> {
    prop_oneof![
        Just(StatusCode::TRYING),
        Just(StatusCode::RINGING),
        Just(StatusCode::OK),
        Just(StatusCode::NOT_FOUND),
        Just(StatusCode::BUSY_HERE),
        (100u16..700).prop_map(StatusCode),
    ]
}

fn uri() -> impl Strategy<Value = SipUri> {
    (token(), token()).prop_map(|(u, h)| SipUri::new(u, h))
}

fn name_addr() -> impl Strategy<Value = NameAddr> {
    (uri(), proptest::option::of(token())).prop_map(|(uri, tag)| NameAddr {
        uri,
        tag: tag.map(Into::into),
    })
}

fn via() -> impl Strategy<Value = Via> {
    (
        prop_oneof![Just("UDP"), Just("TCP"), Just("SCTP")],
        token(),
        token(),
    )
        .prop_map(|(t, host, b)| Via::new(t, format!("{host}:5060"), format!("z9hG4bK{b}")))
}

prop_compose! {
    fn message()(
        is_request in any::<bool>(),
        m in method(),
        code in status(),
        req_uri in uri(),
        vias in proptest::collection::vec(via(), 1..4),
        from in name_addr(),
        to in name_addr(),
        call_id in token(),
        cseq in 1u32..1000,
        cseq_method in method(),
        contact in proptest::option::of(uri()),
        max_forwards in 0u32..100,
        expires in proptest::option::of(0u32..100_000),
        retry_after in proptest::option::of(0u32..100_000),
        extra_vals in proptest::collection::vec((token(), token()), 0..3),
        body in proptest::collection::vec(any::<u8>(), 0..600),
    ) -> SipMessage {
        let start = if is_request {
            StartLine::Request { method: m, uri: req_uri }
        } else {
            StartLine::Response { code }
        };
        // Avoid header names that collide with parsed ones.
        let extra = extra_vals
            .into_iter()
            .map(|(n, v)| (format!("X-{n}").into(), v.into()))
            .collect();
        SipMessage {
            start, vias, from, to, call_id: call_id.into(), cseq, cseq_method,
            contact, max_forwards, expires, retry_after, extra, body,
        }
    }
}

/// A run of the whitespace `str::trim` removes: SP, HT, VT, FF, CR, LF,
/// U+00A0 and U+2003, with CR and LF never adjacent as CRLF (which would
/// end the line).
fn pad() -> impl Strategy<Value = String> {
    "[ \t\u{b}\u{c}\r\n\u{a0}\u{2003}]{0,4}".prop_map(|s| s.replace("\r\n", "\r \n"))
}

/// A header value with non-ASCII text inside it.
fn non_ascii() -> impl Strategy<Value = String> {
    ("[a-z]{1,4}", "[é日€\u{a0}\u{2003}ü ]{1,3}", "[a-z]{1,4}").prop_map(|(a, b, c)| a + &b + &c)
}

/// `wire` with every header line's name and value padded by `pads`
/// (taken in turn, four per line): before and after the name, after the
/// colon and after the value.
fn padded(wire: &[u8], pads: &[String]) -> Vec<u8> {
    let end = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("a header end");
    let head = std::str::from_utf8(&wire[..end]).expect("own output is text");
    let mut pads = pads.iter().cycle();
    let mut lines = head.split("\r\n");
    let mut out = lines.next().expect("a start line").to_string();
    for line in lines {
        let (name, value) = line
            .split_once(": ")
            .expect("own headers are `Name: value`");
        let mut pad = || pads.next().expect("pads cycle").as_str();
        out += &format!("\r\n{}{name}{}: {}{value}{}", pad(), pad(), pad(), pad());
    }
    let mut out = out.into_bytes();
    out.extend_from_slice(&wire[end..]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Whitespace around header names and values does not change the
    /// parse, and non-ASCII text inside values survives the round trip.
    #[test]
    fn padding_with_trim_whitespace_parses_like_the_bare_wire(
        msg in message(),
        call_id in non_ascii(),
        extra in proptest::collection::vec(non_ascii(), 0..3),
        pads in proptest::collection::vec(pad(), 1..40),
    ) {
        let mut msg = msg;
        msg.call_id = call_id.into();
        for (i, value) in extra.into_iter().enumerate() {
            msg.extra.push((format!("X-U{i}").into(), value.into()));
        }
        let wire = msg.to_bytes();
        let bare = parse_message(&wire).expect("own output must parse");
        prop_assert_eq!(&bare, &msg);
        let padded = padded(&wire, &pads);
        prop_assert_eq!(parse_message(&padded).expect("padded wire parses"), bare);
        common::assert_scan_agrees(&padded);
    }

    /// The phones' scanner reads every message of the shapes it serves,
    /// whatever its names, numbers, tags, Vias and body, and agrees with
    /// the parser on it.
    #[test]
    fn the_scanner_reads_every_phone_shaped_message(
        msg in message(),
        method in phone_method(),
        code in prop_oneof![
            Just(StatusCode::TRYING),
            Just(StatusCode::RINGING),
            Just(StatusCode::OK),
        ],
        cseq_method in phone_method(),
    ) {
        let mut msg = msg;
        msg.start = match msg.start {
            StartLine::Request { uri, .. } => StartLine::Request { method, uri },
            StartLine::Response { .. } => StartLine::Response { code },
        };
        msg.cseq_method = cseq_method;
        msg.expires = None;
        msg.retry_after = None;
        msg.extra.clear();
        prop_assert!(common::assert_scan_agrees(&msg.to_bytes()), "{:?}", msg);
    }

    /// Anything we can serialize parses back to an identical message.
    #[test]
    fn serialize_parse_roundtrip(msg in message()) {
        let wire = msg.to_bytes();
        let parsed = parse_message(&wire).expect("own output must parse");
        prop_assert_eq!(parsed, msg);
    }

    /// Any Retry-After value survives the 503 generate → serialize → parse
    /// path the overload-control subsystem rides on.
    #[test]
    fn retry_after_roundtrips_on_503(req in message(), secs in 0u32..1_000_000) {
        if req.is_request() {
            let resp = siperf_sip::gen::service_unavailable(&req, secs);
            let wire = resp.to_bytes();
            let parsed = parse_message(&wire).expect("own output must parse");
            prop_assert_eq!(parsed.retry_after, Some(secs));
            prop_assert_eq!(parsed.status(), Some(StatusCode(503)));
            prop_assert_eq!(parsed, resp);
        }
    }

    /// A stream of messages survives any segmentation: however the bytes
    /// are chunked, the framer yields exactly the original messages.
    #[test]
    fn framer_is_segmentation_invariant(
        msgs in proptest::collection::vec(message(), 1..6),
        cuts in proptest::collection::vec(1usize..200, 0..40),
    ) {
        let wires: Vec<Vec<u8>> = msgs.iter().map(|m| m.to_bytes()).collect();
        let stream: Vec<u8> = wires.concat();

        let mut framer = StreamFramer::new();
        let mut got = Vec::new();
        let mut pos = 0;
        let mut cut_iter = cuts.into_iter();
        while pos < stream.len() {
            let step = cut_iter.next().unwrap_or(stream.len());
            let end = (pos + step).min(stream.len());
            framer.push(&stream[pos..end]);
            while let Some(m) = framer.next_message().expect("valid stream") {
                got.push(m);
            }
            pos = end;
        }
        prop_assert_eq!(got, wires);
        prop_assert_eq!(framer.buffered(), 0);
    }

    /// Truncated messages never parse, never panic.
    #[test]
    fn truncation_fails_cleanly(msg in message(), keep in 0.0f64..1.0) {
        let wire = msg.to_bytes();
        let cut = ((wire.len() as f64) * keep) as usize;
        if cut < wire.len() {
            // Either a clean error or (for cuts inside a trailing body that
            // content-length happens to cover) success — never a panic.
            let _ = parse_message(&wire[..cut]);
        }
    }

    /// The framer never hands out a partial message.
    #[test]
    fn framer_output_always_parses(msg in message(), split in 1usize..64) {
        let wire = msg.to_bytes();
        let mut framer = StreamFramer::new();
        for chunk in wire.chunks(split) {
            framer.push(chunk);
            if let Some(m) = framer.next_message().expect("valid stream") {
                prop_assert!(parse_message(&m).is_ok());
            }
        }
    }
}
