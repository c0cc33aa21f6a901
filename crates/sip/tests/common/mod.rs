//! The scanner's contract, checked against the parser: whatever
//! `scan::scan` accepts, `parse_message` accepts too, reads every field
//! alike, and serializes back to the scanned bytes.

use siperf_sip::msg::SipMessage;
use siperf_sip::parse::{header_end, parse_message};
use siperf_sip::scan::{scan, Start};

/// Checks the contract on one input; returns whether the scanner accepted
/// it.
#[track_caller]
pub fn assert_scan_agrees(raw: &[u8]) -> bool {
    let Some(s) = scan(raw) else {
        return false;
    };
    let shown = String::from_utf8_lossy(raw);
    let msg = parse_message(raw)
        .unwrap_or_else(|e| panic!("scanned what the parser rejects ({e}): {shown:?}"));
    let start = match (msg.method(), msg.status()) {
        (Some(method), _) => Start::Request(method),
        (_, Some(code)) => Start::Response(code),
        _ => unreachable!("a message is a request or a response"),
    };
    let top = &msg.vias[0];
    let to_uri = msg.to.uri.to_string();
    assert_eq!(s.start, start, "{shown:?}");
    assert_eq!(
        (s.sent_by, s.branch),
        (&*top.sent_by, &*top.branch),
        "{shown:?}"
    );
    assert_eq!(
        (s.to_uri, s.to_user),
        (&*to_uri, &*msg.to.uri.user),
        "{shown:?}"
    );
    assert_eq!(s.to_tag, msg.to.tag.as_deref(), "{shown:?}");
    assert_eq!(s.call_id, &*msg.call_id, "{shown:?}");
    assert_eq!(
        (s.cseq, s.cseq_method),
        (msg.cseq, msg.cseq_method),
        "{shown:?}"
    );
    assert_eq!(s.head(), head_of(&msg).as_bytes(), "{shown:?}");
    let dialog = format!(
        "\r\nCall-ID: {}\r\nCSeq: {} {}\r\n",
        msg.call_id, msg.cseq, msg.cseq_method
    );
    assert_eq!(s.dialog(), dialog.as_bytes(), "{shown:?}");
    let len = header_end(raw).expect("scanned") + msg.body.len();
    assert_eq!(
        String::from_utf8_lossy(&msg.to_bytes()),
        String::from_utf8_lossy(&raw[..len]),
        "a scanned message must serialize back to its bytes"
    );
    true
}

/// The Via lines, `From` and `To` of `msg` as `to_bytes` writes them, up
/// to the end of the `To` value.
fn head_of(msg: &SipMessage) -> String {
    let mut head = String::new();
    for via in &msg.vias {
        head += &format!(
            "Via: SIP/2.0/{} {};branch={}\r\n",
            via.transport, via.sent_by, via.branch
        );
    }
    for (name, addr) in [("From", &msg.from), ("To", &msg.to)] {
        head += &format!("{name}: <{}>", addr.uri);
        if let Some(tag) = &addr.tag {
            head += &format!(";tag={tag}");
        }
        if name == "From" {
            head += "\r\n";
        }
    }
    head
}
