//! A narrow reader for the messages a simulated phone expects.
//!
//! A phone of the benchmark receives a handful of message shapes, every
//! one of them written by [`SipMessage::to_bytes`](crate::msg::SipMessage::to_bytes):
//! the proxy's 100 Trying, the callee's 180 and 200 relayed back, and the
//! INVITE, ACK and BYE forwarded to the callee. [`scan`] reads exactly that
//! layout in place, copying and allocating nothing:
//!
//! ```text
//! start line                 SIP/2.0 100|180|200 <reason>   or   INVITE|ACK|BYE sip:u@h SIP/2.0
//! Via: SIP/2.0/T h;branch=b  one or more
//! From: <sip:u@h>[;tag=t]
//! To: <sip:u@h>[;tag=t]
//! Call-ID: id
//! CSeq: n INVITE|ACK|BYE
//! Contact: <sip:u@h>         optional
//! Max-Forwards: n
//! Content-Length: n
//! ```
//!
//! Each header appears once, in this order, with one space after its colon
//! and no parameters but the branch and the tag. A status other than 100,
//! 180 or 200 (or with another reason phrase), any other method, a
//! missing, repeated, reordered or unknown header, compact names, other
//! spacing, display names, numbers with leading zeros, or a byte outside
//! printable ASCII all read as `None`, and the caller falls back to
//! [`parse_message`](crate::parse::parse_message).
//!
//! Whatever `scan` accepts, `parse_message` accepts too and reads every
//! field alike, and the parsed message serializes back to the scanned
//! bytes. So a phone may answer from the scanned byte ranges: they are what
//! [`gen::response`](crate::gen::response) would copy.

use crate::msg::{Method, StatusCode};

/// The start line of a scanned message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Start {
    /// An INVITE, ACK or BYE request.
    Request(Method),
    /// A 100, 180 or 200 response.
    Response(StatusCode),
}

/// The fields of one scanned message; every `&str` is a range of the
/// scanned buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scan<'a> {
    /// Request method or status code.
    pub start: Start,
    /// The top Via's sent-by.
    pub sent_by: &'a str,
    /// The top Via's branch.
    pub branch: &'a str,
    /// The `To` URI, `sip:user@host`.
    pub to_uri: &'a str,
    /// The `To` URI's user.
    pub to_user: &'a str,
    /// The `To` tag, if any.
    pub to_tag: Option<&'a str>,
    /// `Call-ID`.
    pub call_id: &'a str,
    /// `CSeq` sequence number.
    pub cseq: u32,
    /// `CSeq` method: INVITE, ACK or BYE.
    pub cseq_method: Method,
    /// The Via lines through the `To` value, without its line end.
    head: &'a [u8],
    /// The `To` line's end through the `CSeq` line's end.
    dialog: &'a [u8],
}

impl<'a> Scan<'a> {
    /// The Via lines, `From` and `To` up to the end of its value: what a
    /// response copies before it may add its `To` tag.
    pub fn head(&self) -> &'a [u8] {
        self.head
    }

    /// `\r\n`, then the `Call-ID` and `CSeq` lines with their line ends:
    /// what a response copies after the `To` value.
    pub fn dialog(&self) -> &'a [u8] {
        self.dialog
    }
}

/// Reads `buf` if it is one message in the layout of the
/// [module docs](self); `None` otherwise.
pub fn scan(buf: &[u8]) -> Option<Scan<'_>> {
    let mut r = Reader { buf, at: 0 };
    let start = r.start_line()?;
    let head_start = r.at;
    let (sent_by, branch) = r.via()?;
    while r.buf[r.at..].starts_with(b"Via: ") {
        r.via()?;
    }
    r.name_addr(b"From: <")?;
    r.crlf()?;
    let (to_uri, to_user, to_tag) = r.name_addr(b"To: <")?;
    let to_end = r.at;
    r.crlf()?;
    r.lit(b"Call-ID: ")?;
    let call_id = r.run(&GRAPHIC)?;
    r.crlf()?;
    r.lit(b"CSeq: ")?;
    let cseq = r.number()?;
    r.lit(b" ")?;
    let cseq_method = r.method()?;
    r.crlf()?;
    let dialog_end = r.at;
    if r.eat(b"Contact: <") {
        r.uri()?;
        r.lit(b">")?;
        r.crlf()?;
    }
    r.lit(b"Max-Forwards: ")?;
    r.number::<u32>()?;
    r.crlf()?;
    r.lit(b"Content-Length: ")?;
    let content_length: usize = r.number()?;
    r.crlf()?;
    // No line above is empty and no CR or LF occurs inside one, so this
    // blank line ends the header section where `header_end` finds it.
    r.crlf()?;
    let head_end = r.at;
    if buf.len() - head_end < content_length {
        return None;
    }
    // Every byte up to here matched an ASCII literal or class.
    let text = std::str::from_utf8(&buf[..head_end]).ok()?;
    let str = |(start, end): Span| &text[start..end];
    Some(Scan {
        start,
        sent_by: str(sent_by),
        branch: str(branch),
        to_uri: str(to_uri),
        to_user: str(to_user),
        to_tag: to_tag.map(str),
        call_id: str(call_id),
        cseq,
        cseq_method,
        head: &buf[head_start..to_end],
        dialog: &buf[to_end..dialog_end],
    })
}

/// A byte range of the scanned buffer.
type Span = (usize, usize);

/// A cursor over the header section.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

/// Printable ASCII: the bytes of a `Call-ID`.
const GRAPHIC: [bool; 256] = class(b'!'..=b'~', b"");

/// The bytes of a URI part, tag, branch, transport or sent-by: printable
/// ASCII other than the delimiters the parser splits those fields at.
const WORD: [bool; 256] = class(b'!'..=b'~', b"<>;@");

const DIGIT: [bool; 256] = class(b'0'..=b'9', b"");

/// The bytes in `range` less `except`, as a lookup table.
const fn class(range: std::ops::RangeInclusive<u8>, except: &[u8]) -> [bool; 256] {
    let mut table = [false; 256];
    let mut b = *range.start();
    while b <= *range.end() {
        table[b as usize] = true;
        b += 1;
    }
    let mut i = 0;
    while i < except.len() {
        table[except[i] as usize] = false;
        i += 1;
    }
    table
}

impl Reader<'_> {
    /// Consumes `lit` if the input continues with it. Always inlined, so
    /// that each comparison is with a literal of known length.
    #[inline(always)]
    fn eat(&mut self, lit: &[u8]) -> bool {
        let hit = self.buf[self.at..].starts_with(lit);
        if hit {
            self.at += lit.len();
        }
        hit
    }

    #[inline(always)]
    fn lit(&mut self, lit: &[u8]) -> Option<()> {
        self.eat(lit).then_some(())
    }

    #[inline(always)]
    fn crlf(&mut self) -> Option<()> {
        self.lit(b"\r\n")
    }

    /// The non-empty run of bytes in `class` that starts here.
    fn run(&mut self, class: &[bool; 256]) -> Option<Span> {
        let start = self.at;
        let rest = &self.buf[start..];
        let len = rest
            .iter()
            .position(|&b| !class[usize::from(b)])
            .unwrap_or(rest.len());
        self.at += len;
        (len > 0).then_some((start, self.at))
    }

    /// A decimal number that fits `T`, without a leading zero (bar `0`
    /// itself).
    fn number<T: TryFrom<u64>>(&mut self) -> Option<T> {
        let (start, end) = self.run(&DIGIT)?;
        let digits = &self.buf[start..end];
        if digits.len() > 1 && digits[0] == b'0' {
            return None;
        }
        let mut n = 0u64;
        for &d in digits {
            n = n.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
        }
        T::try_from(n).ok()
    }

    /// INVITE, ACK or BYE.
    fn method(&mut self) -> Option<Method> {
        for (token, method) in [
            (&b"INVITE"[..], Method::Invite),
            (b"ACK", Method::Ack),
            (b"BYE", Method::Bye),
        ] {
            if self.eat(token) {
                // Another letter would make it a different token.
                let next = self.buf.get(self.at);
                return (!next.is_some_and(u8::is_ascii_uppercase)).then_some(method);
            }
        }
        None
    }

    /// `sip:user@host`, returned whole and with its user.
    fn uri(&mut self) -> Option<(Span, Span)> {
        let start = self.at;
        self.lit(b"sip:")?;
        let user = self.run(&WORD)?;
        self.lit(b"@")?;
        self.run(&WORD)?;
        Some(((start, self.at), user))
    }

    fn start_line(&mut self) -> Option<Start> {
        if self.eat(b"SIP/2.0 ") {
            let code = match self.number::<u16>()? {
                100 => StatusCode::TRYING,
                180 => StatusCode::RINGING,
                200 => StatusCode::OK,
                _ => return None,
            };
            self.lit(b" ")?;
            self.lit(code.reason().as_bytes())?;
            self.crlf()?;
            return Some(Start::Response(code));
        }
        let method = self.method()?;
        self.lit(b" ")?;
        self.uri()?;
        self.lit(b" SIP/2.0\r\n")?;
        Some(Start::Request(method))
    }

    /// One Via line: its sent-by and branch.
    fn via(&mut self) -> Option<(Span, Span)> {
        self.lit(b"Via: SIP/2.0/")?;
        self.run(&WORD)?;
        self.lit(b" ")?;
        let sent_by = self.run(&WORD)?;
        self.lit(b";branch=")?;
        let branch = self.run(&WORD)?;
        self.crlf()?;
        Some((sent_by, branch))
    }

    /// `<sip:user@host>` and an optional `;tag=`, after `name` (which
    /// ends with the `<`): the URI, its user and the tag. Stops before
    /// the line end.
    fn name_addr(&mut self, name: &[u8]) -> Option<(Span, Span, Option<Span>)> {
        self.lit(name)?;
        let (uri, user) = self.uri()?;
        self.lit(b">")?;
        let tag = if self.eat(b";tag=") {
            Some(self.run(&WORD)?)
        } else {
            None
        };
        Some((uri, user, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, CallParty};
    use crate::msg::Via;

    #[test]
    fn reads_a_forwarded_invite_and_its_answers() {
        let alice = CallParty::new("alice", "h1:20001");
        let bob = CallParty::new("bob", "h2:20002");
        let mut invite = gen::invite(&alice, &bob, "sip.lab", "c7-alice", "z9hG4bKi7", "UDP");
        invite
            .vias
            .insert(0, Via::new("UDP", "h0:5060", "z9hG4bKpx1"));
        invite.max_forwards = 69;
        let wire = invite.to_bytes();
        let s = scan(&wire).expect("a forwarded INVITE scans");
        assert_eq!(s.start, Start::Request(Method::Invite));
        assert_eq!((s.sent_by, s.branch), ("h0:5060", "z9hG4bKpx1"));
        assert_eq!(
            (s.to_uri, s.to_user, s.to_tag),
            ("sip:bob@sip.lab", "bob", None)
        );
        assert_eq!(
            (s.call_id, s.cseq, s.cseq_method),
            ("c7-alice", 1, Method::Invite)
        );
        assert!(s.head().starts_with(b"Via: SIP/2.0/UDP h0:5060;"));
        assert!(s.head().ends_with(b"To: <sip:bob@sip.lab>"));
        assert_eq!(s.dialog(), b"\r\nCall-ID: c7-alice\r\nCSeq: 1 INVITE\r\n");

        invite.vias.remove(0);
        let ok = gen::response(StatusCode::OK, &invite, Some("tt-bob"), Some(bob.contact()));
        let wire = ok.to_bytes();
        let s = scan(&wire).expect("a 200 OK scans");
        assert_eq!(s.start, Start::Response(StatusCode::OK));
        assert_eq!(s.to_tag, Some("tt-bob"));
    }

    #[test]
    fn other_shapes_fall_back() {
        let alice = CallParty::new("alice", "h1:20001");
        let bob = CallParty::new("bob", "h2:20002");
        let invite = gen::invite(&alice, &bob, "sip.lab", "c1-alice", "z9hG4bKi1", "UDP");
        let cancel = gen::cancel(&alice, &bob, "sip.lab", "c1-alice", "z9hG4bKi1", "UDP");
        let register = gen::register(&alice, "sip.lab", 1, "z9hG4bKr", "UDP");
        let shed = gen::service_unavailable(&invite, 2);
        let terminated = gen::response(StatusCode::REQUEST_TERMINATED, &invite, None, None);
        let mut extra = invite.clone();
        extra.extra.push(("Subject".into(), "lunch".into()));
        for msg in [cancel, register, shed, terminated, extra] {
            assert_eq!(scan(&msg.to_bytes()), None, "{:?}", msg.start);
        }
        let wire = String::from_utf8(invite.to_bytes()).unwrap();
        for (from, to) in [
            ("CSeq: 1", "CSeq: 01"),
            ("Call-ID: ", "i: "),
            ("To: <", "To: Bob <"),
            ("Via: SIP", "Via:  SIP"),
        ] {
            let changed = wire.replacen(from, to, 1);
            assert_eq!(scan(changed.as_bytes()), None, "{to:?}");
        }
        let truncated = &wire.as_bytes()[..wire.len() - 1];
        assert_eq!(scan(truncated), None, "body shorter than Content-Length");
    }
}
