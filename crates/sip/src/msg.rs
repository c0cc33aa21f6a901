//! The SIP message model: methods, status codes, URIs, headers, messages.
//!
//! This is the subset of RFC 3261 a stateful proxy actually routes on — the
//! same headers OpenSER touches on its hot path: `Via` (with the `branch`
//! transaction id), `From`/`To` (with tags), `Call-ID`, `CSeq`, `Contact`,
//! `Max-Forwards`, `Expires`, and `Content-Length` (which TCP framing
//! depends on). Everything else round-trips through `extra` headers.

use std::fmt;

use crate::text::Text;

/// A SIP request method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Method {
    /// Initiates a session (a phone call).
    Invite,
    /// Acknowledges a final response to an INVITE.
    Ack,
    /// Terminates a session.
    Bye,
    /// Cancels a pending INVITE.
    Cancel,
    /// Binds a contact address with the registrar.
    Register,
    /// Capability query / keepalive.
    Options,
}

impl Method {
    /// Canonical wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Invite => "INVITE",
            Method::Ack => "ACK",
            Method::Bye => "BYE",
            Method::Cancel => "CANCEL",
            Method::Register => "REGISTER",
            Method::Options => "OPTIONS",
        }
    }

    /// Parses a wire token (case-sensitive, per RFC 3261).
    pub fn from_token(s: &str) -> Option<Method> {
        Some(match s {
            "INVITE" => Method::Invite,
            "ACK" => Method::Ack,
            "BYE" => Method::Bye,
            "CANCEL" => Method::Cancel,
            "REGISTER" => Method::Register,
            "OPTIONS" => Method::Options,
            _ => return None,
        })
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A SIP response status code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 100 Trying — the stateful proxy's receipt acknowledgment.
    pub const TRYING: StatusCode = StatusCode(100);
    /// 180 Ringing.
    pub const RINGING: StatusCode = StatusCode(180);
    /// 200 OK.
    pub const OK: StatusCode = StatusCode(200);
    /// 404 Not Found — callee not registered.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 408 Request Timeout — transaction timer expired.
    pub const REQUEST_TIMEOUT: StatusCode = StatusCode(408);
    /// 481 Call/Transaction Does Not Exist.
    pub const NO_TRANSACTION: StatusCode = StatusCode(481);
    /// 486 Busy Here.
    pub const BUSY_HERE: StatusCode = StatusCode(486);
    /// 487 Request Terminated — the INVITE's answer after a CANCEL.
    pub const REQUEST_TERMINATED: StatusCode = StatusCode(487);
    /// 500 Server Internal Error.
    pub const SERVER_ERROR: StatusCode = StatusCode(500);
    /// 503 Service Unavailable — overload shedding.
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// True for 1xx responses.
    pub fn is_provisional(self) -> bool {
        (100..200).contains(&self.0)
    }

    /// True for 2xx responses.
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// The default reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            100 => "Trying",
            180 => "Ringing",
            200 => "OK",
            404 => "Not Found",
            408 => "Request Timeout",
            481 => "Call/Transaction Does Not Exist",
            486 => "Busy Here",
            487 => "Request Terminated",
            500 => "Server Internal Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }
}

impl fmt::Display for StatusCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// A `sip:user@host` URI.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SipUri {
    /// The user part.
    pub user: Text,
    /// The host part (domain or address literal).
    pub host: Text,
}

impl SipUri {
    /// Builds a URI from its parts.
    pub fn new(user: impl Into<Text>, host: impl Into<Text>) -> Self {
        SipUri {
            user: user.into(),
            host: host.into(),
        }
    }

    /// Parses `sip:user@host`, as the message parser reads URIs: the user
    /// runs to the first `@`, and both parts are non-empty.
    pub fn parse(s: &str) -> Option<SipUri> {
        crate::parse::parse_uri(s)
    }
}

impl fmt::Display for SipUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sip:{}@{}", self.user, self.host)
    }
}

/// A `From`/`To` header value: URI plus optional `tag` parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameAddr {
    /// The address.
    pub uri: SipUri,
    /// The dialog tag, if assigned.
    pub tag: Option<Text>,
}

impl NameAddr {
    /// An address without a tag.
    pub fn new(uri: SipUri) -> Self {
        NameAddr { uri, tag: None }
    }

    /// An address with a tag.
    pub fn with_tag(uri: SipUri, tag: impl Into<Text>) -> Self {
        NameAddr {
            uri,
            tag: Some(tag.into()),
        }
    }
}

/// One `Via` header: the transport hop trace with the `branch` transaction
/// id. Proxies push their Via when forwarding requests and pop it when
/// forwarding responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Via {
    /// Transport token: "UDP", "TCP", or "SCTP".
    pub transport: Text,
    /// `host:port` this hop sent from.
    pub sent_by: Text,
    /// The branch parameter (RFC 3261 magic-cookie transaction id).
    pub branch: Text,
}

impl Via {
    /// Builds a Via hop.
    pub fn new(
        transport: impl Into<Text>,
        sent_by: impl Into<Text>,
        branch: impl Into<Text>,
    ) -> Self {
        Via {
            transport: transport.into(),
            sent_by: sent_by.into(),
            branch: branch.into(),
        }
    }
}

/// The first line of a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartLine {
    /// `METHOD uri SIP/2.0`
    Request {
        /// The method.
        method: Method,
        /// The request URI.
        uri: SipUri,
    },
    /// `SIP/2.0 code reason`
    Response {
        /// The status code.
        code: StatusCode,
    },
}

/// A parsed SIP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SipMessage {
    /// Request or response line.
    pub start: StartLine,
    /// Via stack, topmost first.
    pub vias: Vec<Via>,
    /// `From` (the caller in a dialog).
    pub from: NameAddr,
    /// `To` (the callee in a dialog).
    pub to: NameAddr,
    /// `Call-ID`.
    pub call_id: Text,
    /// `CSeq` sequence number.
    pub cseq: u32,
    /// `CSeq` method.
    pub cseq_method: Method,
    /// `Contact`, where the sender can be reached directly.
    pub contact: Option<SipUri>,
    /// `Max-Forwards` hop budget.
    pub max_forwards: u32,
    /// `Expires` (registrations).
    pub expires: Option<u32>,
    /// `Retry-After` in seconds (RFC 3261 §20.33): carried on 503
    /// Service Unavailable when the proxy sheds load, telling the
    /// upstream how long to back off before retrying.
    pub retry_after: Option<u32>,
    /// Headers this model does not interpret, preserved in order.
    pub extra: Vec<(Text, Text)>,
    /// The body (SDP in real calls; opaque bytes here).
    pub body: Vec<u8>,
}

impl SipMessage {
    /// True if this is a request.
    pub fn is_request(&self) -> bool {
        matches!(self.start, StartLine::Request { .. })
    }

    /// The request method, if a request.
    pub fn method(&self) -> Option<Method> {
        match &self.start {
            StartLine::Request { method, .. } => Some(*method),
            StartLine::Response { .. } => None,
        }
    }

    /// The status code, if a response.
    pub fn status(&self) -> Option<StatusCode> {
        match &self.start {
            StartLine::Response { code } => Some(*code),
            StartLine::Request { .. } => None,
        }
    }

    /// The topmost Via's branch — the transaction id for matching.
    pub fn branch(&self) -> Option<&str> {
        self.vias.first().map(|v| v.branch.as_str())
    }

    /// Serializes to wire bytes, computing `Content-Length` from the body.
    ///
    /// The buffer is sized exactly by a counting pass over the same layout,
    /// so the bytes are written once with no reallocation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut len = WireLen(0);
        self.write_wire(&mut len);
        let mut out = Vec::with_capacity(len.0);
        self.write_wire(&mut out);
        debug_assert_eq!(out.len(), len.0, "counting pass disagrees with writer");
        out
    }

    /// The wire layout: start line, headers in a fixed order, blank line,
    /// body.
    fn write_wire(&self, w: &mut impl Wire) {
        match &self.start {
            StartLine::Request { method, uri } => {
                w.text(method.as_str());
                w.text(" ");
                w.uri(uri);
                w.text(" SIP/2.0\r\n");
            }
            StartLine::Response { code } => {
                w.text("SIP/2.0 ");
                w.num(code.0.into());
                w.text(" ");
                w.text(code.reason());
                w.text("\r\n");
            }
        }
        for via in &self.vias {
            w.text("Via: SIP/2.0/");
            w.field(&via.transport);
            w.text(" ");
            w.field(&via.sent_by);
            w.text(";branch=");
            w.field(&via.branch);
            w.text("\r\n");
        }
        for (name, addr) in [("From: ", &self.from), ("To: ", &self.to)] {
            w.text(name);
            w.text("<");
            w.uri(&addr.uri);
            w.text(">");
            if let Some(tag) = &addr.tag {
                w.text(";tag=");
                w.field(tag);
            }
            w.text("\r\n");
        }
        w.text("Call-ID: ");
        w.field(&self.call_id);
        w.text("\r\nCSeq: ");
        w.num(self.cseq.into());
        w.text(" ");
        w.text(self.cseq_method.as_str());
        w.text("\r\n");
        if let Some(contact) = &self.contact {
            w.text("Contact: <");
            w.uri(contact);
            w.text(">\r\n");
        }
        w.text("Max-Forwards: ");
        w.num(self.max_forwards.into());
        w.text("\r\n");
        if let Some(expires) = self.expires {
            w.text("Expires: ");
            w.num(expires.into());
            w.text("\r\n");
        }
        if let Some(secs) = self.retry_after {
            w.text("Retry-After: ");
            w.num(secs.into());
            w.text("\r\n");
        }
        for (name, value) in &self.extra {
            w.field(name);
            w.text(": ");
            w.field(value);
            w.text("\r\n");
        }
        w.text("Content-Length: ");
        w.num(self.body.len() as u64);
        w.text("\r\n\r\n");
        w.bytes(&self.body);
    }
}

/// Where [`SipMessage::write_wire`] puts the message: a length counter
/// ([`WireLen`]) or the output buffer.
trait Wire {
    fn bytes(&mut self, bytes: &[u8]);

    /// Writes `n` in decimal.
    fn num(&mut self, n: u64);

    fn text(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }

    /// Writes a message field.
    fn field(&mut self, t: &Text) {
        self.text(t);
    }

    /// Writes `sip:user@host`.
    fn uri(&mut self, uri: &SipUri) {
        self.text("sip:");
        self.field(&uri.user);
        self.text("@");
        self.field(&uri.host);
    }
}

/// Counts the bytes a message serializes to.
struct WireLen(usize);

impl Wire for WireLen {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }

    fn field(&mut self, t: &Text) {
        self.0 += t.len();
    }

    fn num(&mut self, mut n: u64) {
        self.0 += 1;
        while n >= 10 {
            n /= 10;
            self.0 += 1;
        }
    }
}

impl Wire for Vec<u8> {
    fn bytes(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }

    fn num(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.extend_from_slice(&digits[at..]);
    }
}

impl fmt::Display for SipMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.start {
            StartLine::Request { method, uri } => {
                write!(f, "{method} {uri} (cseq {})", self.cseq)
            }
            StartLine::Response { code } => {
                write!(f, "{code} for {} (cseq {})", self.cseq_method, self.cseq)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_tokens_roundtrip() {
        for m in [
            Method::Invite,
            Method::Ack,
            Method::Bye,
            Method::Cancel,
            Method::Register,
            Method::Options,
        ] {
            assert_eq!(Method::from_token(m.as_str()), Some(m));
        }
        assert_eq!(Method::from_token("invite"), None, "case-sensitive");
        assert_eq!(Method::from_token("SUBSCRIBE"), None);
    }

    #[test]
    fn status_classification() {
        assert!(StatusCode::TRYING.is_provisional());
        assert!(StatusCode::RINGING.is_provisional());
        assert!(!StatusCode::OK.is_provisional());
        assert!(StatusCode::OK.is_success());
        assert!(!StatusCode::NOT_FOUND.is_success());
        assert_eq!(StatusCode::OK.to_string(), "200 OK");
    }

    #[test]
    fn uri_parse_and_display() {
        let u = SipUri::parse("sip:alice@rice.edu").unwrap();
        assert_eq!(u.user, "alice");
        assert_eq!(u.host, "rice.edu");
        assert_eq!(u.to_string(), "sip:alice@rice.edu");
        assert_eq!(SipUri::parse("sip:@host"), None);
        assert_eq!(SipUri::parse("sip:user@"), None);
        assert_eq!(SipUri::parse("http://x"), None);
        assert_eq!(SipUri::parse("alice@rice.edu"), None);
    }

    #[test]
    fn serialized_request_shape() {
        let msg = SipMessage {
            start: StartLine::Request {
                method: Method::Invite,
                uri: SipUri::new("bob", "proxy"),
            },
            vias: vec![Via::new("TCP", "caller:5060", "z9hG4bK1")],
            from: NameAddr::with_tag(SipUri::new("alice", "caller"), "a1"),
            to: NameAddr::new(SipUri::new("bob", "proxy")),
            call_id: "call-1@caller".into(),
            cseq: 1,
            cseq_method: Method::Invite,
            contact: Some(SipUri::new("alice", "caller")),
            max_forwards: 70,
            expires: None,
            retry_after: None,
            extra: vec![("User-Agent".into(), "siperf/0.1".into())],
            body: b"v=0 fake sdp".to_vec(),
        };
        let text = String::from_utf8(msg.to_bytes()).unwrap();
        assert!(text.starts_with("INVITE sip:bob@proxy SIP/2.0\r\n"));
        assert!(text.contains("Via: SIP/2.0/TCP caller:5060;branch=z9hG4bK1\r\n"));
        assert!(text.contains("From: <sip:alice@caller>;tag=a1\r\n"));
        assert!(text.contains("CSeq: 1 INVITE\r\n"));
        assert!(text.contains("User-Agent: siperf/0.1\r\n"));
        assert!(text.contains("Content-Length: 12\r\n"));
        assert!(text.ends_with("\r\n\r\nv=0 fake sdp"));
        assert_eq!(msg.branch(), Some("z9hG4bK1"));
        assert!(msg.is_request());
        assert_eq!(msg.method(), Some(Method::Invite));
        assert_eq!(msg.status(), None);
    }

    #[test]
    fn serialized_response_shape() {
        let msg = SipMessage {
            start: StartLine::Response {
                code: StatusCode::RINGING,
            },
            vias: vec![],
            from: NameAddr::new(SipUri::new("a", "h")),
            to: NameAddr::new(SipUri::new("b", "h")),
            call_id: "c".into(),
            cseq: 2,
            cseq_method: Method::Invite,
            contact: None,
            max_forwards: 70,
            expires: None,
            retry_after: None,
            extra: vec![],
            body: vec![],
        };
        let text = String::from_utf8(msg.to_bytes()).unwrap();
        assert!(text.starts_with("SIP/2.0 180 Ringing\r\n"));
        assert!(text.contains("Content-Length: 0\r\n"));
        assert_eq!(msg.status(), Some(StatusCode::RINGING));
        assert_eq!(msg.branch(), None);
    }
}
