//! A torture battery for the SIP parser, in the spirit of RFC 4475: every
//! malformation a proxy's hot path can meet must map to a clean error (the
//! proxy counts it and drops the message), never a panic or a bogus parse.

use siperf_sip::msg::{Method, StatusCode};
use siperf_sip::parse::{parse_message, ParseError};

fn parses(raw: &[u8]) -> Result<(), ParseError> {
    parse_message(raw).map(|_| ())
}

#[test]
fn a_fully_loaded_valid_request_parses() {
    let raw = b"INVITE sip:bob@biloxi.example.com SIP/2.0\r\n\
        Via: SIP/2.0/TCP h9:5060;branch=z9hG4bK776asdhds;received=192.0.2.1\r\n\
        Via: SIP/2.0/UDP h1:20001;branch=z9hG4bKnashds8\r\n\
        Max-Forwards: 68\r\n\
        To: Bob <sip:bob@biloxi.example.com>\r\n\
        From: Alice <sip:alice@atlanta.example.com>;tag=1928301774\r\n\
        Call-ID: a84b4c76e66710@pc33.atlanta.example.com\r\n\
        CSeq: 314159 INVITE\r\n\
        Contact: <sip:alice@h1:20001;transport=tcp>\r\n\
        Subject: lunch\r\n\
        X-Custom: anything goes ;;; here\r\n\
        Content-Length: 4\r\n\r\nbody";
    let msg = parse_message(raw).expect("valid request");
    assert_eq!(msg.method(), Some(Method::Invite));
    assert_eq!(msg.vias.len(), 2);
    assert_eq!(msg.cseq, 314159);
    assert_eq!(msg.max_forwards, 68);
    assert_eq!(msg.body, b"body");
    assert_eq!(
        msg.extra.len(),
        2,
        "unknown headers preserved: {:?}",
        msg.extra
    );
}

#[test]
fn responses_with_unusual_codes_parse() {
    for code in [
        100u16, 181, 199, 200, 299, 300, 404, 499, 500, 599, 600, 699,
    ] {
        let raw = format!(
            "SIP/2.0 {code} Whatever Reason Text Here\r\n\
             Via: SIP/2.0/UDP h1:1;branch=z9hG4bKx\r\n\
             From: sip:a@b\r\nTo: sip:c@d\r\nCall-ID: x\r\nCSeq: 1 INVITE\r\n\
             Content-Length: 0\r\n\r\n"
        );
        let msg = parse_message(raw.as_bytes()).expect("valid response");
        assert_eq!(msg.status(), Some(StatusCode(code)));
    }
}

#[test]
fn garbage_start_lines_fail_cleanly() {
    for raw in [
        &b""[..],
        b"\r\n\r\n",
        b" \r\n\r\n",
        b"INVITE\r\n\r\n",
        b"INVITE sip:a@b\r\n\r\n",
        b"INVITE sip:a@b HTTP/1.1\r\n\r\n",
        b"GET sip:a@b SIP/2.0\r\n\r\n",
        b"SIP/2.0\r\n\r\n",
        b"SIP/2.0 abc Huh\r\n\r\n",
        b"SIP/2.0 20 TooSmall\r\n\r\n",
        b"SIP/2.0 1000 TooBig\r\n\r\n",
        b"sip/2.0 200 lowercase\r\n\r\n",
        b"INVITE mailto:a@b SIP/2.0\r\n\r\n",
    ] {
        assert!(
            parses(raw).is_err(),
            "should reject {:?}",
            String::from_utf8_lossy(raw)
        );
    }
}

#[test]
fn missing_each_required_header_fails_with_its_name() {
    let full = "INVITE sip:a@b SIP/2.0\r\n\
        Via: SIP/2.0/UDP h1:1;branch=z9hG4bKq\r\n\
        From: sip:x@y\r\nTo: sip:a@b\r\nCall-ID: cid\r\nCSeq: 1 INVITE\r\n\
        Content-Length: 0\r\n\r\n";
    for (field, expect) in [
        ("From:", ParseError::Missing("From")),
        ("To:", ParseError::Missing("To")),
        ("Call-ID:", ParseError::Missing("Call-ID")),
        ("CSeq:", ParseError::Missing("CSeq")),
        ("Content-Length:", ParseError::Missing("Content-Length")),
    ] {
        let raw: String = full
            .split("\r\n")
            .filter(|line| !line.starts_with(field))
            .collect::<Vec<_>>()
            .join("\r\n");
        assert_eq!(
            parse_message(raw.as_bytes()).unwrap_err(),
            expect,
            "dropping {field}"
        );
    }
}

#[test]
fn malformed_values_fail_cleanly() {
    let cases: &[(&str, &str)] = &[
        ("CSeq", "CSeq: banana INVITE"),
        ("CSeq", "CSeq: 1"),
        ("CSeq", "CSeq: 1 NOTAMETHOD"),
        ("Via", "Via: not a via at all"),
        ("Via", "Via: SIP/2.0/UDP"),
        ("Via", "Via: SIP/2.0/UDP host:1"), // no branch
        ("Max-Forwards", "Max-Forwards: many"),
        ("Content-Length", "Content-Length: -1"),
        ("Content-Length", "Content-Length: 4e2"),
        ("Expires", "Expires: soon"),
        ("From", "From: <not-a-uri>"),
        ("To", "To: @@@"),
    ];
    for (what, line) in cases {
        let raw = format!(
            "OPTIONS sip:a@b SIP/2.0\r\n\
             Via: SIP/2.0/UDP h1:1;branch=z9hG4bKok\r\n\
             From: sip:x@y\r\nTo: sip:a@b\r\nCall-ID: cid\r\nCSeq: 9 OPTIONS\r\n\
             {line}\r\nContent-Length: 0\r\n\r\n"
        );
        let got = parse_message(raw.as_bytes());
        assert!(got.is_err(), "{what}: {line:?} should fail, got {got:?}");
    }
}

#[test]
fn binary_garbage_and_truncations_never_panic() {
    // Deterministic pseudo-garbage of many lengths and seeds.
    let mut state = 0x9E37u64;
    for len in [0usize, 1, 2, 3, 7, 64, 513, 4096] {
        let mut buf = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            buf.push((state >> 33) as u8);
        }
        let _ = parse_message(&buf); // must not panic
                                     // Also garbage after a valid-looking prefix.
        let mut mixed = b"INVITE sip:a@b SIP/2.0\r\n".to_vec();
        mixed.extend_from_slice(&buf);
        let _ = parse_message(&mixed);
    }
}

#[test]
fn whitespace_and_casing_liberality() {
    let raw = b"REGISTER sip:u@dom SIP/2.0\r\n\
        VIA:   SIP/2.0/UDP   h3:9;branch=z9hG4bKw  \r\n\
        from:\tsip:u@dom;tag=abc\r\n\
        TO: sip:u@dom\r\n\
        call-id:    spaced-out   \r\n\
        cseq: 2 REGISTER\r\n\
        content-length:  0  \r\n\r\n";
    let msg = parse_message(raw).expect("liberal header parsing");
    assert_eq!(msg.method(), Some(Method::Register));
    assert_eq!(msg.vias[0].sent_by, "h3:9");
    assert_eq!(msg.from.tag.as_deref(), Some("abc"));
    assert_eq!(msg.call_id, "spaced-out");
}

#[test]
fn utf8_boundary_in_headers_is_rejected_not_panicked() {
    let mut raw = b"INVITE sip:a@b SIP/2.0\r\nX-Bin: ".to_vec();
    raw.extend_from_slice(&[0xFF, 0xFE, 0x80]);
    raw.extend_from_slice(b"\r\n\r\n");
    assert_eq!(parse_message(&raw).unwrap_err(), ParseError::BadEncoding);
}

#[test]
fn enormous_but_bounded_messages_parse() {
    let body = vec![b'x'; 100_000];
    let raw = format!(
        "INVITE sip:a@b SIP/2.0\r\n\
         Via: SIP/2.0/UDP h1:1;branch=z9hG4bKbig\r\n\
         From: sip:x@y\r\nTo: sip:a@b\r\nCall-ID: big\r\nCSeq: 1 INVITE\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    );
    let mut buf = raw.into_bytes();
    buf.extend_from_slice(&body);
    let msg = parse_message(&buf).expect("large body");
    assert_eq!(msg.body.len(), 100_000);
}

#[test]
fn reversed_contact_brackets_fail_cleanly() {
    for contact in ["><", "sip:a@b> <x", "> <sip:a@b"] {
        let raw = format!(
            "OPTIONS sip:a@b SIP/2.0\r\n\
             Via: SIP/2.0/UDP h1:1;branch=z9hG4bKok\r\n\
             From: sip:x@y\r\nTo: sip:a@b\r\nCall-ID: cid\r\nCSeq: 9 OPTIONS\r\n\
             Contact: {contact}\r\nContent-Length: 0\r\n\r\n"
        );
        assert_eq!(
            parse_message(raw.as_bytes()).unwrap_err(),
            ParseError::BadValue("Contact"),
            "{contact:?}"
        );
    }
}
