//! The stream framer against the `str` walk its `Content-Length` scan
//! replaced. The oracle below is that walk: `from_utf8` over the header
//! section, `split("\r\n")`, `split_once(':')` and a trimmed,
//! case-insensitive name match. On every input here, pushed whole or in
//! pieces, `StreamFramer::next_message` and the oracle must give the same
//! result: the same message, a wait for more bytes, or the same
//! `FrameError`.

use std::iter::once;

use siperf_sip::framer::{FrameError, StreamFramer};
use siperf_sip::gen::{self, CallParty};
use siperf_sip::msg::{SipMessage, StatusCode, Via};
use siperf_sip::parse::header_end;

/// The framer's limit on an unterminated header section.
const MAX_HEADER: usize = 16 * 1024;
/// The framer's limit on one message, head plus body, enforced once more
/// than that many bytes are buffered.
const MAX_MESSAGE: usize = 64 * 1024;

/// The `Content-Length` scan as it was written over `str`.
fn oracle_content_length(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    for line in text.split("\r\n").skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") || name.eq_ignore_ascii_case("l") {
            return value.trim().parse().ok();
        }
    }
    None
}

/// `next_message` over the unframed `window`, with the oracle's scan: the
/// length of the message framed, if one is complete.
fn oracle_next(window: &[u8]) -> Result<Option<usize>, FrameError> {
    let Some(head_len) = header_end(window) else {
        if window.len() > MAX_HEADER {
            return Err(FrameError::HeaderTooLong {
                buffered: window.len(),
            });
        }
        return Ok(None);
    };
    let body_len =
        oracle_content_length(&window[..head_len]).ok_or(FrameError::MissingContentLength)?;
    let total = head_len
        .checked_add(body_len)
        .ok_or(FrameError::LengthOverflow {
            content_length: body_len,
        })?;
    if total > MAX_MESSAGE && window.len() > MAX_MESSAGE {
        return Err(FrameError::MessageTooLong { length: total });
    }
    Ok((window.len() >= total).then_some(total))
}

/// How often each kind of result came up, so a test can show that its
/// inputs reach all of them.
#[derive(Debug, Default)]
struct Seen {
    frames: usize,
    waits: usize,
    errors: usize,
}

/// Pushes `stream` into a framer in the pieces that the ascending offsets
/// `cuts` make, frames everything buffered after each push, and checks
/// each result against the oracle. The first error ends the stream, as it
/// drops a connection.
fn assert_frames_alike(stream: &[u8], cuts: &[usize], seen: &mut Seen) {
    let mut framer = StreamFramer::new();
    let (mut read, mut pushed) = (0, 0);
    for &cut in cuts.iter().chain(once(&stream.len())) {
        framer.push(&stream[pushed..cut]);
        pushed = cut;
        loop {
            let want = oracle_next(&stream[read..pushed]);
            let want_msg = want
                .clone()
                .map(|len| len.map(|len| stream[read..read + len].to_vec()));
            assert_eq!(
                framer.next_message(),
                want_msg,
                "{:?} cut at {cuts:?}",
                String::from_utf8_lossy(stream)
            );
            match want {
                Ok(Some(len)) => {
                    read += len;
                    seen.frames += 1;
                }
                Ok(None) => {
                    seen.waits += 1;
                    break;
                }
                Err(_) => {
                    seen.errors += 1;
                    return;
                }
            }
        }
    }
}

/// Checks `stream` pushed whole, and split in two at every byte.
fn assert_frames_alike_split(stream: &[u8], seen: &mut Seen) {
    assert_frames_alike(stream, &[], seen);
    for at in 0..=stream.len() {
        assert_frames_alike(stream, &[at], seen);
    }
}

/// The messages of one call over TCP as the proxy and the phones receive
/// them, with the forwarded requests carrying the proxy's Via on top.
fn call_mix() -> Vec<SipMessage> {
    let (t, d) = ("TCP", "sip.lab");
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
        gen::register(&caller, d, 1, "z9hG4bKr0", t),
        gen::response(
            StatusCode::OK,
            &gen::register(&caller, d, 1, "z9hG4bKr0", t),
            None,
            None,
        ),
        invite.clone(),
        forwarded(&invite),
        gen::response(StatusCode::TRYING, &invite, None, None),
        gen::response(StatusCode::RINGING, &invite, tag, None),
        gen::response(StatusCode::OK, &invite, tag, Some(callee.contact())),
        ack.clone(),
        forwarded(&ack),
        bye.clone(),
        forwarded(&bye),
        gen::response(StatusCode::OK, &bye, tag, None),
        cancel.clone(),
        forwarded(&cancel),
        gen::response(StatusCode(487), &invite, tag, None),
        gen::service_unavailable(&invite, 2),
    ]
}

fn call_stream() -> Vec<u8> {
    call_mix().iter().flat_map(SipMessage::to_bytes).collect()
}

#[test]
fn the_call_mix_frames_alike_whole_split_and_byte_by_byte() {
    let stream = call_stream();
    let mut seen = Seen::default();
    assert_frames_alike_split(&stream, &mut seen);
    let every_byte: Vec<usize> = (1..stream.len()).collect();
    assert_frames_alike(&stream, &every_byte, &mut seen);
    assert_eq!(seen.errors, 0, "{seen:?}");
    assert!(
        seen.frames > stream.len() && seen.waits > stream.len(),
        "{seen:?}"
    );
}

/// The inputs of `torture.rs`, as streams of their own.
fn torture_inputs() -> Vec<Vec<u8>> {
    let mut inputs: Vec<Vec<u8>> = vec![
        b"INVITE sip:bob@biloxi.example.com SIP/2.0\r\n\
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
        Content-Length: 4\r\n\r\nbody"
            .to_vec(),
        b"REGISTER sip:u@dom SIP/2.0\r\n\
        VIA:   SIP/2.0/UDP   h3:9;branch=z9hG4bKw  \r\n\
        from:\tsip:u@dom;tag=abc\r\n\
        TO: sip:u@dom\r\n\
        call-id:    spaced-out   \r\n\
        cseq: 2 REGISTER\r\n\
        content-length:  0  \r\n\r\n"
            .to_vec(),
    ];
    for code in [
        100u16, 181, 199, 200, 299, 300, 404, 499, 500, 599, 600, 699,
    ] {
        inputs.push(
            format!(
                "SIP/2.0 {code} Whatever Reason Text Here\r\n\
                 Via: SIP/2.0/UDP h1:1;branch=z9hG4bKx\r\n\
                 From: sip:a@b\r\nTo: sip:c@d\r\nCall-ID: x\r\nCSeq: 1 INVITE\r\n\
                 Content-Length: 0\r\n\r\n"
            )
            .into_bytes(),
        );
    }
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
        inputs.push(raw.to_vec());
    }
    let full = "INVITE sip:a@b SIP/2.0\r\n\
        Via: SIP/2.0/UDP h1:1;branch=z9hG4bKq\r\n\
        From: sip:x@y\r\nTo: sip:a@b\r\nCall-ID: cid\r\nCSeq: 1 INVITE\r\n\
        Content-Length: 0\r\n\r\n";
    for field in ["From:", "To:", "Call-ID:", "CSeq:", "Content-Length:"] {
        let raw: Vec<&str> = full
            .split("\r\n")
            .filter(|line| !line.starts_with(field))
            .collect();
        inputs.push(raw.join("\r\n").into_bytes());
    }
    for line in [
        "CSeq: banana INVITE",
        "CSeq: 1",
        "CSeq: 1 NOTAMETHOD",
        "Via: not a via at all",
        "Via: SIP/2.0/UDP",
        "Via: SIP/2.0/UDP host:1",
        "Max-Forwards: many",
        "Content-Length: -1",
        "Content-Length: 4e2",
        "Expires: soon",
        "From: <not-a-uri>",
        "To: @@@",
    ] {
        inputs.push(
            format!(
                "OPTIONS sip:a@b SIP/2.0\r\n\
                 Via: SIP/2.0/UDP h1:1;branch=z9hG4bKok\r\n\
                 From: sip:x@y\r\nTo: sip:a@b\r\nCall-ID: cid\r\nCSeq: 9 OPTIONS\r\n\
                 {line}\r\nContent-Length: 0\r\n\r\n"
            )
            .into_bytes(),
        );
    }
    let mut state = 0x9E37u64;
    for len in [0usize, 1, 2, 3, 7, 64, 513, 4096] {
        let mut buf = Vec::with_capacity(len);
        for _ in 0..len {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            buf.push((state >> 33) as u8);
        }
        let mut mixed = b"INVITE sip:a@b SIP/2.0\r\n".to_vec();
        mixed.extend_from_slice(&buf);
        inputs.push(buf);
        inputs.push(mixed);
    }
    let mut bad_utf8 = b"INVITE sip:a@b SIP/2.0\r\nX-Bin: ".to_vec();
    bad_utf8.extend_from_slice(&[0xFF, 0xFE, 0x80]);
    bad_utf8.extend_from_slice(b"\r\n\r\n");
    inputs.push(bad_utf8);
    let mut big = format!(
        "INVITE sip:a@b SIP/2.0\r\n\
         Via: SIP/2.0/UDP h1:1;branch=z9hG4bKbig\r\n\
         From: sip:x@y\r\nTo: sip:a@b\r\nCall-ID: big\r\nCSeq: 1 INVITE\r\n\
         Content-Length: {}\r\n\r\n",
        100_000
    )
    .into_bytes();
    big.resize(big.len() + 100_000, b'x');
    inputs.push(big);
    for contact in ["><", "sip:a@b> <x", "> <sip:a@b"] {
        inputs.push(
            format!(
                "OPTIONS sip:a@b SIP/2.0\r\n\
                 Via: SIP/2.0/UDP h1:1;branch=z9hG4bKok\r\n\
                 From: sip:x@y\r\nTo: sip:a@b\r\nCall-ID: cid\r\nCSeq: 9 OPTIONS\r\n\
                 Contact: {contact}\r\nContent-Length: 0\r\n\r\n"
            )
            .into_bytes(),
        );
    }
    inputs
}

#[test]
fn the_torture_inputs_frame_alike_alone_and_before_a_message() {
    let next = &call_mix()[4].to_bytes();
    let mut seen = Seen::default();
    for raw in torture_inputs() {
        let mut then = raw.clone();
        then.extend_from_slice(next);
        if raw.len() > 8 * 1024 {
            assert_frames_alike(&raw, &[], &mut seen);
            assert_frames_alike(&then, &[], &mut seen);
        } else {
            assert_frames_alike_split(&raw, &mut seen);
            assert_frames_alike_split(&then, &mut seen);
        }
    }
    assert!(
        seen.frames > 0 && seen.waits > 0 && seen.errors > 0,
        "{seen:?}"
    );
}

#[test]
fn every_byte_value_at_every_head_position_frames_alike() {
    let mix = call_mix();
    let next = mix[4].to_bytes();
    let mut seen = Seen::default();
    for msg in [&mix[3], &mix[6]] {
        let wire = msg.to_bytes();
        let head_len = header_end(&wire).expect("a whole message");
        for at in 0..head_len {
            for b in 0..=u8::MAX {
                let mut changed = wire.clone();
                changed[at] = b;
                changed.extend_from_slice(&next);
                assert_frames_alike(&changed, &[], &mut seen);
            }
        }
    }
    assert!(
        seen.frames > 0 && seen.waits > 0 && seen.errors > 0,
        "{seen:?}"
    );
}

/// A BYE whose length header reads `{name}:{value}`, and then `tail`.
fn bye_with(name: &str, value: &str, tail: &str) -> Vec<u8> {
    format!(
        "BYE sip:e0@sip.lab SIP/2.0\r\nVia: SIP/2.0/TCP h1:20000;branch=z9hG4bKb\r\n\
         {name}:{value}\r\nCall-ID: c1\r\n\r\nbodyNEXT{tail}"
    )
    .into_bytes()
}

#[test]
fn length_name_and_value_spellings_frame_alike() {
    let names = [
        "Content-Length",
        "content-length",
        "CONTENT-LENGTH",
        "cOnTeNt-LeNgTh",
        "l",
        "L",
        " Content-Length",
        "\tl\t",
        "Content-Length \t",
        "\u{a0}l",
        "\u{2003}Content-Length\u{3000}",
        "\u{85}L",
        "Content-Lengths",
        "Content_Length",
        "ll",
        "",
        "\u{130}",
    ];
    let values = [
        "4",
        " 4",
        "4 ",
        "\t4\t",
        "\u{a0}4",
        "4\u{2003}",
        "\u{3000}4\u{3000}",
        "\u{85}4\u{2028}",
        "04",
        "+4",
        "-4",
        "4 4",
        "",
        "x",
        "\u{ff14}",
        "18446744073709551615",
        "18446744073709551616",
    ];
    let mut seen = Seen::default();
    for name in names {
        for value in values {
            assert_frames_alike_split(&bye_with(name, value, ""), &mut seen);
        }
    }
    assert!(
        seen.frames > 0 && seen.waits > 0 && seen.errors > 0,
        "{seen:?}"
    );
}

#[test]
fn duplicates_missing_colons_bad_bytes_and_bare_line_feeds_frame_alike() {
    let start = "BYE sip:e0@sip.lab SIP/2.0\r\n";
    let mut cases: Vec<Vec<u8>> = [
        // The first length wins, even one whose value does not parse.
        "Content-Length: 4\r\nContent-Length: 0\r\n\r\nbody",
        "Content-Length: 0\r\nContent-Length: 4\r\n\r\nbody",
        "l: 2\r\nContent-Length: 4\r\n\r\nbody",
        "Content-Length: x\r\nContent-Length: 4\r\n\r\nbody",
        // A line without a colon is skipped.
        "Content-Length 4\r\nl: 4\r\n\r\nbody",
        "Content-Length 4\r\n\r\nbody",
        ": 4\r\nl: 4\r\n\r\nbody",
        "Content-Length:: 4\r\n\r\nbody",
        // Bare line feeds and carriage returns do not end a line.
        "X: y\nContent-Length: 4\r\n\r\nbody",
        "Content-Length: 4\nX: y\r\n\r\nbody",
        "Content-Length: 4\n\r\n\r\nbody",
        "Content-Length: 4\r\r\n\r\nbody",
        "Content-Length: 4\r\rX: y\r\n\r\nbody",
        "X: y\r\rContent-Length: 4\r\n\r\nbody",
    ]
    .iter()
    .map(|rest| format!("{start}{rest}").into_bytes())
    .collect();
    // The start line is never read as a header, nor one glued to it by a
    // bare line feed.
    cases.push(b"Content-Length: 4\r\n\r\nbody".to_vec());
    cases.push(b"BYE sip:e0@sip.lab SIP/2.0\nContent-Length: 4\r\n\r\nbody".to_vec());
    // A byte that is not UTF-8 anywhere in the head, even after the
    // length, leaves the head without one.
    for (before, after) in [
        (
            "BYE sip:e0@sip.",
            "lab SIP/2.0\r\nContent-Length: 4\r\n\r\nbody",
        ),
        (
            "BYE sip:e0@sip.lab SIP/2.0\r\nContent-Len",
            "gth: 4\r\n\r\nbody",
        ),
        (
            "BYE sip:e0@sip.lab SIP/2.0\r\nContent-Length: 4",
            "\r\n\r\nbody",
        ),
        (
            "BYE sip:e0@sip.lab SIP/2.0\r\nContent-Length: 4\r\nX: ",
            "\r\n\r\nbody",
        ),
    ] {
        for bad in [&[0x80u8][..], &[0xff], &[0xc3], &[0xe2, 0x80]] {
            let mut raw = before.as_bytes().to_vec();
            raw.extend_from_slice(bad);
            raw.extend_from_slice(after.as_bytes());
            cases.push(raw);
        }
    }
    // Lengths near the top of the address space.
    for len in [usize::MAX, usize::MAX - 40, usize::MAX - 80] {
        cases.push(format!("{start}Content-Length: {len}\r\n\r\nxyz").into_bytes());
    }
    let mut seen = Seen::default();
    for mut raw in cases {
        raw.extend_from_slice(b"NEXT");
        assert_frames_alike_split(&raw, &mut seen);
    }
    assert!(
        seen.frames > 0 && seen.waits > 0 && seen.errors > 0,
        "{seen:?}"
    );
}
