//! Builders for the benchmark's message flows.
//!
//! These construct the exact messages of the paper's workload (§2): the
//! registration phase, then calls consisting of an **invite transaction**
//! (INVITE → 100 Trying → 180 Ringing → 200 OK → ACK) and a **bye
//! transaction** (BYE → 200 OK), all flowing through the proxy.

use crate::msg::{Method, NameAddr, SipMessage, SipUri, StartLine, StatusCode, Via};
use crate::text::Text;

/// The RFC 3261 branch magic cookie every transaction id starts with.
pub const BRANCH_COOKIE: &str = "z9hG4bK";

/// One endpoint of a call (a simulated phone).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallParty {
    /// SIP user name.
    pub user: Text,
    /// `host:port` the phone sends from (Via `sent-by` and Contact host).
    pub sent_by: Text,
}

impl CallParty {
    /// Builds a party.
    pub fn new(user: impl Into<Text>, sent_by: impl Into<Text>) -> Self {
        CallParty {
            user: user.into(),
            sent_by: sent_by.into(),
        }
    }

    /// The party's contact URI (directly reachable address).
    pub fn contact(&self) -> SipUri {
        SipUri::new(self.user.clone(), self.sent_by.clone())
    }
}

/// A small default body standing in for SDP, sized like a real offer.
fn fake_sdp(user: &str) -> Vec<u8> {
    format!(
        "v=0\r\no=- 3894 3894 IN IP4 {user}.invalid\r\ns=call\r\n\
         c=IN IP4 10.0.0.1\r\nt=0 0\r\nm=audio 49170 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n"
    )
    .into_bytes()
}

/// A CSeq-1 request from `from` to `to`'s address-of-record in `domain`,
/// with no Contact, Expires or body: what every builder below starts from.
/// The From tag is `rt-<user>` on a REGISTER and `ft-<user>` otherwise.
/// The new header text shares one buffer; the parties' text is shared with
/// them.
fn request(
    method: Method,
    from: &CallParty,
    to: &CallParty,
    to_tag: Option<&str>,
    [domain, call_id, branch, transport]: [&str; 4],
) -> SipMessage {
    let kind = if method == Method::Register {
        "rt"
    } else {
        "ft"
    };
    let from_tag = format!("{kind}-{}", from.user);
    let [domain, call_id, branch, transport, from_tag, to_tag_text] = Text::share([
        domain,
        call_id,
        branch,
        transport,
        &from_tag,
        to_tag.unwrap_or_default(),
    ]);
    let aor = |party: &CallParty| SipUri::new(party.user.clone(), domain.clone());
    SipMessage {
        start: StartLine::Request {
            method,
            uri: aor(to),
        },
        vias: vec![Via::new(transport, from.sent_by.clone(), branch)],
        from: NameAddr::with_tag(aor(from), from_tag),
        to: NameAddr {
            uri: aor(to),
            tag: to_tag.map(|_| to_tag_text),
        },
        call_id,
        cseq: 1,
        cseq_method: method,
        contact: None,
        max_forwards: 70,
        expires: None,
        retry_after: None,
        extra: vec![],
        body: vec![],
    }
}

/// Builds a REGISTER request binding `party`'s contact in `domain`.
pub fn register(
    party: &CallParty,
    domain: &str,
    cseq: u32,
    branch: &str,
    transport: &str,
) -> SipMessage {
    let call_id = format!("reg-{}@{}", party.user, party.sent_by);
    SipMessage {
        cseq,
        contact: Some(party.contact()),
        expires: Some(3600),
        ..request(
            Method::Register,
            party,
            party,
            None,
            [domain, &call_id, branch, transport],
        )
    }
}

/// Builds the INVITE opening a call (CSeq 1).
pub fn invite(
    caller: &CallParty,
    callee: &CallParty,
    domain: &str,
    call_id: &str,
    branch: &str,
    transport: &str,
) -> SipMessage {
    SipMessage {
        contact: Some(caller.contact()),
        body: fake_sdp(&caller.user),
        ..request(
            Method::Invite,
            caller,
            callee,
            None,
            [domain, call_id, branch, transport],
        )
    }
}

/// Builds the ACK for a 2xx answer (CSeq 1, its own transaction).
pub fn ack(
    caller: &CallParty,
    callee: &CallParty,
    domain: &str,
    call_id: &str,
    to_tag: &str,
    branch: &str,
    transport: &str,
) -> SipMessage {
    request(
        Method::Ack,
        caller,
        callee,
        Some(to_tag),
        [domain, call_id, branch, transport],
    )
}

/// Builds the CANCEL abandoning a ringing call. Per RFC 3261 §9.1 it
/// matches the INVITE it cancels: same Request-URI, Call-ID, From, To
/// (no tag yet), CSeq number — and, crucially, the *same branch*.
pub fn cancel(
    caller: &CallParty,
    callee: &CallParty,
    domain: &str,
    call_id: &str,
    invite_branch: &str,
    transport: &str,
) -> SipMessage {
    request(
        Method::Cancel,
        caller,
        callee,
        None,
        [domain, call_id, invite_branch, transport],
    )
}

/// Builds the BYE ending a call (CSeq 2, sent by the caller here, matching
/// the paper's workload where the same phone initiates and terminates).
pub fn bye(
    caller: &CallParty,
    callee: &CallParty,
    domain: &str,
    call_id: &str,
    to_tag: &str,
    branch: &str,
    transport: &str,
) -> SipMessage {
    SipMessage {
        cseq: 2,
        ..request(
            Method::Bye,
            caller,
            callee,
            Some(to_tag),
            [domain, call_id, branch, transport],
        )
    }
}

/// Builds a response to `request` per RFC 3261 §8.2.6: the Via stack,
/// `From`, `Call-ID`, and `CSeq` are copied; `To` gains `to_tag` if given.
/// The copies share the request's text; only a new tag is new text.
pub fn response(
    code: StatusCode,
    request: &SipMessage,
    to_tag: Option<&str>,
    contact: Option<SipUri>,
) -> SipMessage {
    let mut to = request.to.clone();
    if let Some(tag) = to_tag {
        if to.tag.is_none() {
            to.tag = Some(tag.into());
        }
    }
    let body = if code.is_success() && request.cseq_method == Method::Invite {
        fake_sdp(&to.uri.user)
    } else {
        vec![]
    };
    SipMessage {
        start: StartLine::Response { code },
        vias: request.vias.clone(),
        from: request.from.clone(),
        to,
        call_id: request.call_id.clone(),
        cseq: request.cseq,
        cseq_method: request.cseq_method,
        contact,
        max_forwards: 70,
        expires: request.expires,
        retry_after: None,
        extra: vec![],
        body,
    }
}

/// Builds the overload-shedding reply: `503 Service Unavailable` with a
/// `Retry-After` header telling the upstream to back off `retry_after`
/// seconds before trying again (RFC 3261 §21.5.4).
pub fn service_unavailable(request: &SipMessage, retry_after: u32) -> SipMessage {
    let mut resp = response(StatusCode::SERVICE_UNAVAILABLE, request, None, None);
    resp.retry_after = Some(retry_after);
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_message;

    fn parties() -> (CallParty, CallParty) {
        (
            CallParty::new("alice", "h1:40001"),
            CallParty::new("bob", "h2:40002"),
        )
    }

    #[test]
    fn register_shape() {
        let (alice, _) = parties();
        let msg = register(&alice, "proxy.lab", 1, "z9hG4bKr1", "UDP");
        assert_eq!(msg.method(), Some(Method::Register));
        assert_eq!(msg.expires, Some(3600));
        assert_eq!(msg.contact.as_ref().unwrap().host, "h1:40001");
        // Round-trips through the wire.
        assert_eq!(parse_message(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn invite_shape_and_size_is_realistic() {
        let (alice, bob) = parties();
        let msg = invite(&alice, &bob, "proxy.lab", "call-1", "z9hG4bKi1", "UDP");
        assert_eq!(msg.cseq, 1);
        assert!(!msg.body.is_empty(), "INVITE carries an SDP offer");
        let wire = msg.to_bytes();
        assert!(
            (300..1200).contains(&wire.len()),
            "INVITE should be a realistic size, got {}",
            wire.len()
        );
        assert_eq!(parse_message(&wire).unwrap(), msg);
    }

    #[test]
    fn call_flow_messages_share_dialog_ids() {
        let (alice, bob) = parties();
        let inv = invite(&alice, &bob, "d", "call-7", "z9hG4bKa", "TCP");
        let ack = ack(&alice, &bob, "d", "call-7", "bt-bob", "z9hG4bKb", "TCP");
        let bye = bye(&alice, &bob, "d", "call-7", "bt-bob", "z9hG4bKc", "TCP");
        assert_eq!(inv.call_id, ack.call_id);
        assert_eq!(ack.call_id, bye.call_id);
        assert_eq!(inv.from, ack.from);
        assert_eq!(bye.cseq, 2);
        assert_eq!(ack.to.tag.as_deref(), Some("bt-bob"));
        // Each transaction gets its own branch.
        assert_ne!(inv.branch(), ack.branch());
        assert_ne!(ack.branch(), bye.branch());
    }

    #[test]
    fn response_copies_transaction_identity() {
        let (alice, bob) = parties();
        let inv = invite(&alice, &bob, "d", "call-2", "z9hG4bKx", "UDP");
        let ringing = response(StatusCode::RINGING, &inv, Some("bt1"), None);
        assert_eq!(ringing.status(), Some(StatusCode::RINGING));
        assert_eq!(ringing.vias, inv.vias);
        assert_eq!(ringing.call_id, inv.call_id);
        assert_eq!(ringing.cseq, inv.cseq);
        assert_eq!(ringing.cseq_method, Method::Invite);
        assert_eq!(ringing.to.tag.as_deref(), Some("bt1"));
        assert!(ringing.body.is_empty(), "1xx carries no answer");
        let ok = response(StatusCode::OK, &inv, Some("bt1"), Some(bob.contact()));
        assert!(!ok.body.is_empty(), "2xx to INVITE carries an SDP answer");
        assert_eq!(parse_message(&ok.to_bytes()).unwrap(), ok);
    }

    #[test]
    fn service_unavailable_carries_retry_after() {
        let (alice, bob) = parties();
        let inv = invite(&alice, &bob, "d", "call-3", "z9hG4bKz", "UDP");
        let resp = service_unavailable(&inv, 7);
        assert_eq!(resp.status(), Some(StatusCode::SERVICE_UNAVAILABLE));
        assert_eq!(resp.retry_after, Some(7));
        assert_eq!(resp.vias, inv.vias, "transaction identity preserved");
        assert!(resp.body.is_empty(), "rejections carry no SDP");
        assert_eq!(parse_message(&resp.to_bytes()).unwrap(), resp);
    }

    /// The SDP stand-ins `fake_sdp` produces for alice and bob.
    const SDP_ALICE: &str = "v=0\r\no=- 3894 3894 IN IP4 alice.invalid\r\ns=call\r\n\
        c=IN IP4 10.0.0.1\r\nt=0 0\r\nm=audio 49170 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n";
    const SDP_BOB: &str = "v=0\r\no=- 3894 3894 IN IP4 bob.invalid\r\ns=call\r\n\
        c=IN IP4 10.0.0.1\r\nt=0 0\r\nm=audio 49170 RTP/AVP 0\r\na=rtpmap:0 PCMU/8000\r\n";

    /// Wire bytes from header lines and a body: every line CRLF-ended,
    /// then the blank line, then the body.
    fn wire(head: &[&str], body: &str) -> Vec<u8> {
        let mut out = String::new();
        for line in head {
            out.push_str(line);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(body);
        out.into_bytes()
    }

    #[track_caller]
    fn assert_wire(msg: &SipMessage, want: Vec<u8>) {
        let got = msg.to_bytes();
        assert_eq!(
            String::from_utf8_lossy(&got),
            String::from_utf8_lossy(&want),
            "serialized bytes changed"
        );
        assert_eq!(got, want);
    }

    #[test]
    fn builders_serialize_to_the_golden_wire_bytes() {
        let (alice, bob) = (
            CallParty::new("alice", "h1:40001"),
            CallParty::new("bob", "h2:40002"),
        );
        let d = "proxy.lab";
        assert_wire(
            &register(&alice, d, 1, "z9hG4bKr1", "UDP"),
            wire(
                &[
                    "REGISTER sip:alice@proxy.lab SIP/2.0",
                    "Via: SIP/2.0/UDP h1:40001;branch=z9hG4bKr1",
                    "From: <sip:alice@proxy.lab>;tag=rt-alice",
                    "To: <sip:alice@proxy.lab>",
                    "Call-ID: reg-alice@h1:40001",
                    "CSeq: 1 REGISTER",
                    "Contact: <sip:alice@h1:40001>",
                    "Max-Forwards: 70",
                    "Expires: 3600",
                    "Content-Length: 0",
                ],
                "",
            ),
        );
        let inv = invite(&alice, &bob, d, "call-1", "z9hG4bKi1", "UDP");
        assert_wire(
            &inv,
            wire(
                &[
                    "INVITE sip:bob@proxy.lab SIP/2.0",
                    "Via: SIP/2.0/UDP h1:40001;branch=z9hG4bKi1",
                    "From: <sip:alice@proxy.lab>;tag=ft-alice",
                    "To: <sip:bob@proxy.lab>",
                    "Call-ID: call-1",
                    "CSeq: 1 INVITE",
                    "Contact: <sip:alice@h1:40001>",
                    "Max-Forwards: 70",
                    "Content-Length: 122",
                ],
                SDP_ALICE,
            ),
        );
        assert_wire(
            &ack(&alice, &bob, d, "call-1", "bt-bob", "z9hG4bKa1", "UDP"),
            wire(
                &[
                    "ACK sip:bob@proxy.lab SIP/2.0",
                    "Via: SIP/2.0/UDP h1:40001;branch=z9hG4bKa1",
                    "From: <sip:alice@proxy.lab>;tag=ft-alice",
                    "To: <sip:bob@proxy.lab>;tag=bt-bob",
                    "Call-ID: call-1",
                    "CSeq: 1 ACK",
                    "Max-Forwards: 70",
                    "Content-Length: 0",
                ],
                "",
            ),
        );
        assert_wire(
            &bye(&alice, &bob, d, "call-1", "bt-bob", "z9hG4bKb1", "TCP"),
            wire(
                &[
                    "BYE sip:bob@proxy.lab SIP/2.0",
                    "Via: SIP/2.0/TCP h1:40001;branch=z9hG4bKb1",
                    "From: <sip:alice@proxy.lab>;tag=ft-alice",
                    "To: <sip:bob@proxy.lab>;tag=bt-bob",
                    "Call-ID: call-1",
                    "CSeq: 2 BYE",
                    "Max-Forwards: 70",
                    "Content-Length: 0",
                ],
                "",
            ),
        );
        assert_wire(
            &cancel(&alice, &bob, d, "call-1", "z9hG4bKi1", "SCTP"),
            wire(
                &[
                    "CANCEL sip:bob@proxy.lab SIP/2.0",
                    "Via: SIP/2.0/SCTP h1:40001;branch=z9hG4bKi1",
                    "From: <sip:alice@proxy.lab>;tag=ft-alice",
                    "To: <sip:bob@proxy.lab>",
                    "Call-ID: call-1",
                    "CSeq: 1 CANCEL",
                    "Max-Forwards: 70",
                    "Content-Length: 0",
                ],
                "",
            ),
        );
        // Responses copy the INVITE's Via, From, Call-ID and CSeq.
        let answer = |status: &'static str, to: &'static str, tail: &[&'static str]| {
            let mut head = vec![
                status,
                "Via: SIP/2.0/UDP h1:40001;branch=z9hG4bKi1",
                "From: <sip:alice@proxy.lab>;tag=ft-alice",
                to,
                "Call-ID: call-1",
                "CSeq: 1 INVITE",
            ];
            head.extend_from_slice(tail);
            head
        };
        let untagged = "To: <sip:bob@proxy.lab>";
        let tagged = "To: <sip:bob@proxy.lab>;tag=bt-bob";
        let bare_tail = ["Max-Forwards: 70", "Content-Length: 0"];
        assert_wire(
            &response(StatusCode::TRYING, &inv, None, None),
            wire(&answer("SIP/2.0 100 Trying", untagged, &bare_tail), ""),
        );
        assert_wire(
            &response(StatusCode::RINGING, &inv, Some("bt-bob"), None),
            wire(&answer("SIP/2.0 180 Ringing", tagged, &bare_tail), ""),
        );
        assert_wire(
            &response(StatusCode::OK, &inv, Some("bt-bob"), Some(bob.contact())),
            wire(
                &answer(
                    "SIP/2.0 200 OK",
                    tagged,
                    &[
                        "Contact: <sip:bob@h2:40002>",
                        "Max-Forwards: 70",
                        "Content-Length: 120",
                    ],
                ),
                SDP_BOB,
            ),
        );
        assert_wire(
            &response(StatusCode::REQUEST_TIMEOUT, &inv, None, None),
            wire(
                &answer("SIP/2.0 408 Request Timeout", untagged, &bare_tail),
                "",
            ),
        );
        assert_wire(
            &service_unavailable(&inv, 7),
            wire(
                &answer(
                    "SIP/2.0 503 Service Unavailable",
                    untagged,
                    &["Max-Forwards: 70", "Retry-After: 7", "Content-Length: 0"],
                ),
                "",
            ),
        );
    }

    #[test]
    fn response_does_not_overwrite_existing_to_tag() {
        let (alice, bob) = parties();
        let bye = bye(&alice, &bob, "d", "c", "orig-tag", "z9hG4bKy", "UDP");
        let ok = response(StatusCode::OK, &bye, Some("new-tag"), None);
        assert_eq!(ok.to.tag.as_deref(), Some("orig-tag"));
    }
}
