//! The SIP message parser.
//!
//! Parsing is a real cost on a proxy's hot path — Cortes et al. found
//! parsing and string handling dominate SIP proxy CPU profiles — so this is
//! a genuine textual parser, not a stub: it handles case-insensitive header
//! names, RFC 3261 compact forms (`v`, `f`, `t`, `i`, `m`, `l`), display
//! names, header parameters, and `Content-Length`-delimited bodies. The
//! simulation charges calibrated CPU time per parse; the *code path* is the
//! real one.
//!
//! It works the way fast SIP parsers do: the header section is copied once
//! into a shared buffer, one pass over its bytes finds each line, colon
//! and parameter, and every textual field of the message is a [`Text`]
//! range of that buffer rather than a string of its own. Whitespace around
//! names and values is trimmed by `str::trim`'s Unicode rule.

use std::fmt;
use std::rc::Rc;

use crate::msg::{Method, NameAddr, SipMessage, SipUri, StartLine, StatusCode, Via};
use crate::text::Text;

/// Why a buffer failed to parse as a SIP message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The start line is not a valid request or status line.
    BadStartLine,
    /// The message is not valid UTF-8 in its header section.
    BadEncoding,
    /// A header line has no colon.
    BadHeader(String),
    /// A required header is missing.
    Missing(&'static str),
    /// A header value could not be interpreted.
    BadValue(&'static str),
    /// The body is shorter than `Content-Length` promised.
    BodyTooShort {
        /// Bytes promised by `Content-Length`.
        want: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// No blank line terminates the header section.
    NoHeaderTerminator,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::BadStartLine => write!(f, "malformed start line"),
            ParseError::BadEncoding => write!(f, "header section is not utf-8"),
            ParseError::BadHeader(line) => write!(f, "malformed header line: {line:?}"),
            ParseError::Missing(name) => write!(f, "missing required header {name}"),
            ParseError::BadValue(name) => write!(f, "malformed value for {name}"),
            ParseError::BodyTooShort { want, got } => {
                write!(f, "body too short: content-length {want}, got {got}")
            }
            ParseError::NoHeaderTerminator => write!(f, "no blank line after headers"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Finds the end of the header section (the `\r\n\r\n`), returning the
/// offset just past it. Used both here and by the TCP stream framer.
///
/// A Horspool search keyed on the byte under the terminator's last
/// position: header text is mostly neither CR nor LF, so it advances four
/// bytes at a time.
pub fn header_end(buf: &[u8]) -> Option<usize> {
    let mut at = 3;
    while let Some(&b) = buf.get(at) {
        match b {
            b'\n' if buf[at - 3..at] == *b"\r\n\r" => return Some(at + 1),
            b'\n' => at += 2,
            b'\r' => at += 1,
            _ => at += 4,
        }
    }
    None
}

/// A header the message model interprets, or [`HeaderName::Other`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HeaderName {
    Via,
    From,
    To,
    CallId,
    CSeq,
    Contact,
    MaxForwards,
    Expires,
    RetryAfter,
    ContentLength,
    Other,
}

impl HeaderName {
    /// Classifies a raw header name without allocating: surrounding
    /// whitespace is ignored, case does not matter, and the RFC 3261
    /// compact forms (`v`, `f`, `t`, `i`, `m`, `l`) name their headers.
    pub(crate) fn classify(raw: &str) -> HeaderName {
        let (start, end) = trim_span(raw, (0, raw.len()));
        let name = &raw.as_bytes()[start..end];
        let is = |canonical: &str| name.eq_ignore_ascii_case(canonical.as_bytes());
        match name.len() {
            1 => match name[0].to_ascii_lowercase() {
                b'v' => HeaderName::Via,
                b'f' => HeaderName::From,
                b't' => HeaderName::To,
                b'i' => HeaderName::CallId,
                b'm' => HeaderName::Contact,
                b'l' => HeaderName::ContentLength,
                _ => HeaderName::Other,
            },
            2 if is("to") => HeaderName::To,
            3 if is("via") => HeaderName::Via,
            4 if is("from") => HeaderName::From,
            4 if is("cseq") => HeaderName::CSeq,
            7 if is("call-id") => HeaderName::CallId,
            7 if is("contact") => HeaderName::Contact,
            7 if is("expires") => HeaderName::Expires,
            11 if is("retry-after") => HeaderName::RetryAfter,
            12 if is("max-forwards") => HeaderName::MaxForwards,
            14 if is("content-length") => HeaderName::ContentLength,
            _ => HeaderName::Other,
        }
    }
}

/// A byte range of the header section.
type Span = (usize, usize);

/// The header section of one message, copied once: every textual field of
/// the parsed message is a [`Text`] range of `shared`.
struct Head<'a> {
    shared: &'a Rc<str>,
}

impl Head<'_> {
    fn bytes(&self) -> &[u8] {
        self.shared.as_bytes()
    }

    fn str(&self, (start, end): Span) -> &str {
        &self.shared[start..end]
    }

    fn text(&self, (start, end): Span) -> Text {
        Text::slice(self.shared, start, end)
    }

    /// The first `byte` in `span`, as an offset into the section.
    fn find(&self, (start, end): Span, byte: u8) -> Option<usize> {
        memchr(byte, &self.bytes()[start..end]).map(|at| start + at)
    }

    /// Whether `span` starts with `prefix`.
    fn starts_with(&self, (start, end): Span, prefix: &[u8]) -> bool {
        self.bytes()[start..end].starts_with(prefix)
    }

    /// `span` less leading and trailing whitespace, with `str::trim`'s
    /// Unicode rule.
    fn trim(&self, span: Span) -> Span {
        trim_span(self.shared, span)
    }

    /// Splits `span` at its first `byte`: the part before it and the rest
    /// after it, or the whole span and `None`.
    fn split(&self, span: Span, byte: u8) -> (Span, Option<Span>) {
        match self.find(span, byte) {
            Some(at) => ((span.0, at), Some((at + 1, span.1))),
            None => (span, None),
        }
    }

    /// `sip:user@host` in `span`: the user runs to the first `@`, and both
    /// parts are non-empty.
    fn uri(&self, span: Span) -> Option<SipUri> {
        if !self.starts_with(span, b"sip:") {
            return None;
        }
        let (user, host) = self.split((span.0 + 4, span.1), b'@');
        let host = host?;
        if user.0 == user.1 || host.0 == host.1 {
            return None;
        }
        Some(SipUri {
            user: self.text(user),
            host: self.text(host),
        })
    }

    /// The value of the last `;`-separated parameter in `span` that reads
    /// `name` once trimmed.
    fn last_param(&self, span: Span, name: &[u8]) -> Option<Span> {
        let mut found = None;
        let mut rest = Some(span);
        while let Some(part) = rest {
            let (param, next) = self.split(part, b';');
            let param = self.trim(param);
            if self.starts_with(param, name) {
                found = Some((param.0 + name.len(), param.1));
            }
            rest = next;
        }
        found
    }
}

/// Parses `sip:user@host` on its own; see [`SipUri::parse`].
pub(crate) fn parse_uri(s: &str) -> Option<SipUri> {
    let shared: Rc<str> = Rc::from(s);
    let head = Head { shared: &shared };
    head.uri((0, s.len()))
}

/// The offset of the first `needle` in `hay`. Eight bytes are tested at
/// a time: XOR with the needle turns a match into a zero byte, and
/// `(x - 0x01..) & !x & 0x80..` flags zero bytes, exactly for the lowest.
pub(crate) fn memchr(needle: u8, hay: &[u8]) -> Option<usize> {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let mut words = hay.chunks_exact(8);
    for (i, word) in words.by_ref().enumerate() {
        let word: [u8; 8] = word.try_into().expect("chunks are eight bytes");
        let x = u64::from_le_bytes(word) ^ (ONES * u64::from(needle));
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(8 * i + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = hay.len() - words.remainder().len();
    let at = words.remainder().iter().position(|&b| b == needle)?;
    Some(tail + at)
}

/// `span` of `text` less the whitespace `str::trim` removes. ASCII bytes
/// are judged alone; a non-ASCII character at either edge is decoded.
fn trim_span(text: &str, (mut start, mut end): Span) -> Span {
    let bytes = text.as_bytes();
    while start < end {
        let width = match bytes[start] {
            b'\t'..=b'\r' | b' ' => 1,
            b if b.is_ascii() => break,
            _ => match text[start..end].chars().next() {
                Some(c) if c.is_whitespace() => c.len_utf8(),
                _ => break,
            },
        };
        start += width;
    }
    while start < end {
        let width = match bytes[end - 1] {
            b'\t'..=b'\r' | b' ' => 1,
            b if b.is_ascii() => break,
            _ => match text[start..end].chars().next_back() {
                Some(c) if c.is_whitespace() => c.len_utf8(),
                _ => break,
            },
        };
        end -= width;
    }
    (start, end)
}

fn parse_start_line(head: &Head<'_>, line: Span) -> Result<StartLine, ParseError> {
    if head.starts_with(line, b"SIP/2.0 ") {
        let (code, _) = head.split((line.0 + 8, line.1), b' ');
        let code: u16 = head
            .str(code)
            .parse()
            .map_err(|_| ParseError::BadStartLine)?;
        if !(100..700).contains(&code) {
            return Err(ParseError::BadStartLine);
        }
        return Ok(StartLine::Response {
            code: StatusCode(code),
        });
    }
    let (method, rest) = head.split(line, b' ');
    let method = Method::from_token(head.str(method)).ok_or(ParseError::BadStartLine)?;
    let (uri, version) = head.split(rest.ok_or(ParseError::BadStartLine)?, b' ');
    let uri = head.uri(uri).ok_or(ParseError::BadStartLine)?;
    match version.map(|v| head.split(v, b' ').0) {
        Some(v) if head.str(v) == "SIP/2.0" => Ok(StartLine::Request { method, uri }),
        _ => Err(ParseError::BadStartLine),
    }
}

/// Parses `<sip:u@h>;tag=x`, `sip:u@h;tag=x`, or `Name <sip:u@h>;tag=x`.
fn parse_name_addr(
    head: &Head<'_>,
    value: Span,
    which: &'static str,
) -> Result<NameAddr, ParseError> {
    let bad = || ParseError::BadValue(which);
    let (uri, params) = match head.find(value, b'<') {
        Some(open) => {
            let close = head.find((open, value.1), b'>').ok_or_else(bad)?;
            ((open + 1, close), (close + 1, value.1))
        }
        None => match head.find(value, b';') {
            Some(semi) => ((value.0, semi), (semi, value.1)),
            None => (value, (value.1, value.1)),
        },
    };
    let uri = head.uri(head.trim(uri)).ok_or_else(bad)?;
    let tag = head.last_param(params, b"tag=").map(|t| head.text(t));
    Ok(NameAddr { uri, tag })
}

/// Parses `SIP/2.0/UDP host:port;branch=z9hG4bK…;other=params`.
fn parse_via(head: &Head<'_>, value: Span) -> Result<Via, ParseError> {
    let bad = || ParseError::BadValue("Via");
    if !head.starts_with(value, b"SIP/2.0/") {
        return Err(bad());
    }
    let (transport, rest) = head.split((value.0 + 8, value.1), b' ');
    let (sent_by, params) = head.split(rest.ok_or_else(bad)?, b';');
    let sent_by = head.trim(sent_by);
    if sent_by.0 == sent_by.1 {
        return Err(bad());
    }
    let branch = params
        .and_then(|p| head.last_param(p, b"branch="))
        .filter(|b| b.0 < b.1)
        .ok_or_else(bad)?;
    Ok(Via {
        transport: head.text(transport),
        sent_by: head.text(sent_by),
        branch: head.text(branch),
    })
}

fn parse_cseq(head: &Head<'_>, value: Span) -> Result<(u32, Method), ParseError> {
    let bad = || ParseError::BadValue("CSeq");
    let (num, method) = head.split(value, b' ');
    let seq: u32 = head.str(num).parse().map_err(|_| bad())?;
    let method = head.str(head.trim(method.ok_or_else(bad)?));
    Ok((seq, Method::from_token(method).ok_or_else(bad)?))
}

fn parse_contact(head: &Head<'_>, value: Span) -> Result<SipUri, ParseError> {
    let inner = match (
        head.find(value, b'<'),
        head.bytes()[value.0..value.1]
            .iter()
            .rposition(|&b| b == b'>'),
    ) {
        (Some(open), Some(close)) if value.0 + close > open => (open + 1, value.0 + close),
        (Some(_), Some(_)) => return Err(ParseError::BadValue("Contact")),
        _ => value,
    };
    // Drop any URI parameters.
    let (bare, _) = head.split(inner, b';');
    head.uri(head.trim(bare))
        .ok_or(ParseError::BadValue("Contact"))
}

/// Parses one complete SIP message from `buf`.
///
/// `buf` must contain exactly the header section and at least
/// `Content-Length` bytes of body (extra trailing bytes are an error for
/// datagram transports; stream transports should frame with
/// [`crate::framer::StreamFramer`] first and hand in exact messages).
///
/// The header section is copied once into a shared buffer that every
/// textual field of the message borrows, and read in one pass over its
/// bytes; the only other allocations are the Via stack, the unknown
/// headers' list and the body.
///
/// # Errors
///
/// Every malformation maps to a specific [`ParseError`]; a proxy counts
/// these and drops the message, as OpenSER does.
pub fn parse_message(buf: &[u8]) -> Result<SipMessage, ParseError> {
    let head_end = header_end(buf).ok_or(ParseError::NoHeaderTerminator)?;
    let text = std::str::from_utf8(&buf[..head_end - 4]).map_err(|_| ParseError::BadEncoding)?;
    let shared: Rc<str> = Rc::from(text);
    let head = Head { shared: &shared };
    let mut lines = Lines::new(head.bytes());
    let start = parse_start_line(&head, lines.next().ok_or(ParseError::BadStartLine)?)?;

    let mut vias = Vec::new();
    let mut from = None;
    let mut to = None;
    let mut call_id = None;
    let mut cseq = None;
    let mut contact = None;
    let mut max_forwards = 70u32;
    let mut expires = None;
    let mut retry_after = None;
    let mut content_length = None;
    let mut extra = Vec::new();

    for line in lines {
        if line.0 == line.1 {
            continue;
        }
        let Some(colon) = head.find(line, b':') else {
            return Err(ParseError::BadHeader(head.str(line).to_string()));
        };
        let name = (line.0, colon);
        let value = head.trim((colon + 1, line.1));
        match HeaderName::classify(head.str(name)) {
            HeaderName::Via => vias.push(parse_via(&head, value)?),
            HeaderName::From => from = Some(parse_name_addr(&head, value, "From")?),
            HeaderName::To => to = Some(parse_name_addr(&head, value, "To")?),
            HeaderName::CallId => call_id = Some(head.text(value)),
            HeaderName::CSeq => cseq = Some(parse_cseq(&head, value)?),
            HeaderName::Contact => contact = Some(parse_contact(&head, value)?),
            HeaderName::MaxForwards => {
                max_forwards = head
                    .str(value)
                    .parse()
                    .map_err(|_| ParseError::BadValue("Max-Forwards"))?;
            }
            HeaderName::Expires => {
                expires = Some(
                    head.str(value)
                        .parse()
                        .map_err(|_| ParseError::BadValue("Expires"))?,
                );
            }
            HeaderName::RetryAfter => {
                // RFC 3261 §20.33 allows a comment and parameters
                // (`Retry-After: 5 (overload);duration=60`); the delta
                // seconds before them are all the shedding logic needs.
                let end = head.bytes()[value.0..value.1]
                    .iter()
                    .position(|b| matches!(b, b' ' | b';' | b'('))
                    .map_or(value.1, |at| value.0 + at);
                retry_after = Some(
                    head.str((value.0, end))
                        .parse()
                        .map_err(|_| ParseError::BadValue("Retry-After"))?,
                );
            }
            HeaderName::ContentLength => {
                content_length = Some(
                    head.str(value)
                        .parse::<usize>()
                        .map_err(|_| ParseError::BadValue("Content-Length"))?,
                );
            }
            HeaderName::Other => extra.push((head.text(head.trim(name)), head.text(value))),
        }
    }

    let want = content_length.ok_or(ParseError::Missing("Content-Length"))?;
    let body = &buf[head_end..];
    if body.len() < want {
        return Err(ParseError::BodyTooShort {
            want,
            got: body.len(),
        });
    }
    let (cseq, cseq_method) = cseq.ok_or(ParseError::Missing("CSeq"))?;

    Ok(SipMessage {
        start,
        vias,
        from: from.ok_or(ParseError::Missing("From"))?,
        to: to.ok_or(ParseError::Missing("To"))?,
        call_id: call_id.ok_or(ParseError::Missing("Call-ID"))?,
        cseq,
        cseq_method,
        contact,
        max_forwards,
        expires,
        retry_after,
        extra,
        body: body[..want].to_vec(),
    })
}

/// The `\r\n`-separated lines of a header section, as spans: the same
/// pieces, empty ones included, as `str::split("\r\n")` yields.
pub(crate) struct Lines<'a> {
    bytes: &'a [u8],
    /// Where the next line starts; `None` once the last line is out.
    at: Option<usize>,
}

impl<'a> Lines<'a> {
    /// The lines of `bytes`, from its first.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Lines { bytes, at: Some(0) }
    }
}

impl Iterator for Lines<'_> {
    type Item = Span;

    fn next(&mut self) -> Option<Span> {
        let start = self.at?;
        let mut from = start;
        while let Some(cr) = memchr(b'\r', &self.bytes[from..]) {
            let cr = from + cr;
            if self.bytes.get(cr + 1) == Some(&b'\n') {
                self.at = Some(cr + 2);
                return Some((start, cr));
            }
            from = cr + 1;
        }
        self.at = None;
        Some((start, self.bytes.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::StartLine;

    fn sample_request() -> SipMessage {
        SipMessage {
            start: StartLine::Request {
                method: Method::Invite,
                uri: SipUri::new("bob", "proxy.lab"),
            },
            vias: vec![
                Via::new("UDP", "proxy.lab:5060", "z9hG4bKp7"),
                Via::new("UDP", "caller:5060", "z9hG4bK1"),
            ],
            from: NameAddr::with_tag(SipUri::new("alice", "caller"), "a1"),
            to: NameAddr::new(SipUri::new("bob", "proxy.lab")),
            call_id: "8f3d@caller".into(),
            cseq: 1,
            cseq_method: Method::Invite,
            contact: Some(SipUri::new("alice", "caller")),
            max_forwards: 69,
            expires: None,
            retry_after: None,
            extra: vec![("User-Agent".into(), "siperf".into())],
            body: b"v=0\r\no=- 0 0 IN IP4 caller\r\n".to_vec(),
        }
    }

    #[test]
    fn roundtrip_request() {
        let msg = sample_request();
        let parsed = parse_message(&msg.to_bytes()).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn roundtrip_response() {
        let mut msg = sample_request();
        msg.start = StartLine::Response {
            code: StatusCode::OK,
        };
        msg.to.tag = Some("b7".into());
        let parsed = parse_message(&msg.to_bytes()).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn compact_forms_and_case_insensitivity() {
        let raw = b"INVITE sip:bob@h SIP/2.0\r\n\
            v: SIP/2.0/TCP c:5060;branch=z9hG4bK9\r\n\
            F: <sip:a@c>;tag=t1\r\n\
            t: sip:bob@h\r\n\
            i: abc123\r\n\
            CSEQ: 7 INVITE\r\n\
            m: <sip:a@c:5060;transport=tcp>\r\n\
            l: 0\r\n\r\n";
        let msg = parse_message(raw).unwrap();
        assert_eq!(msg.branch(), Some("z9hG4bK9"));
        assert_eq!(msg.from.tag.as_deref(), Some("t1"));
        assert_eq!(msg.to.uri.user, "bob");
        assert_eq!(msg.call_id, "abc123");
        assert_eq!(msg.cseq, 7);
        assert_eq!(msg.contact.as_ref().unwrap().user, "a");
        assert!(msg.body.is_empty());
    }

    #[test]
    fn mixed_case_and_compact_names_parse_like_canonical_ones() {
        let canonical = b"INVITE sip:bob@h SIP/2.0\r\n\
            Via: SIP/2.0/UDP c:5060;branch=z9hG4bK9\r\n\
            From: <sip:a@c>;tag=t1\r\n\
            To: <sip:bob@h>\r\n\
            Call-ID: abc123\r\n\
            CSeq: 7 INVITE\r\n\
            Contact: <sip:a@c:5060>\r\n\
            Max-Forwards: 12\r\n\
            Expires: 30\r\n\
            Retry-After: 4\r\n\
            Content-Length: 4\r\n\r\nbody";
        let scrambled = b"INVITE sip:bob@h SIP/2.0\r\n\
            VIA: SIP/2.0/UDP c:5060;branch=z9hG4bK9\r\n\
            f: <sip:a@c>;tag=t1\r\n\
            t : <sip:bob@h>\r\n\
            i: abc123\r\n\
            cseq: 7 INVITE\r\n\
            m: <sip:a@c:5060>\r\n\
            MAX-forwards: 12\r\n\
            eXpIrEs: 30\r\n\
            retry-AFTER: 4\r\n\
            content-LENGTH: 4\r\n\r\nbody";
        let compact_length = b"INVITE sip:bob@h SIP/2.0\r\n\
            v: SIP/2.0/UDP c:5060;branch=z9hG4bK9\r\n\
            F: <sip:a@c>;tag=t1\r\n\
            T: <sip:bob@h>\r\n\
            I: abc123\r\n\
            CSeq: 7 INVITE\r\n\
            M: <sip:a@c:5060>\r\n\
            Max-Forwards: 12\r\n\
            Expires: 30\r\n\
            Retry-After: 4\r\n\
            l: 4\r\n\r\nbody";
        let want = parse_message(canonical).unwrap();
        assert_eq!(want.max_forwards, 12);
        assert_eq!(want.expires, Some(30));
        assert_eq!(want.retry_after, Some(4));
        assert!(want.extra.is_empty());
        assert_eq!(parse_message(scrambled).unwrap(), want);
        assert_eq!(parse_message(compact_length).unwrap(), want);
    }

    #[test]
    fn unknown_headers_keep_their_spelling() {
        let raw = b"OPTIONS sip:a@h SIP/2.0\r\n\
            Via: SIP/2.0/UDP c:1;branch=z9hG4bK3\r\n\
            From: sip:a@c\r\nTo: sip:a@h\r\nCall-ID: y\r\nCSeq: 1 OPTIONS\r\n\
            uSeR-aGeNt : siperf/0.1\r\n\
            X: 1\r\n\
            Content-Length: 0\r\n\r\n";
        let msg = parse_message(raw).unwrap();
        assert_eq!(
            msg.extra,
            vec![
                ("uSeR-aGeNt".into(), "siperf/0.1".into()),
                ("X".into(), "1".into()),
            ]
        );
    }

    #[test]
    fn display_name_in_name_addr() {
        let raw = b"BYE sip:bob@h SIP/2.0\r\n\
            Via: SIP/2.0/UDP c:5060;branch=z9hG4bK2\r\n\
            From: \"Alice Smith\" <sip:alice@c>;tag=t9\r\n\
            To: Bob <sip:bob@h>;tag=t3\r\n\
            Call-ID: x\r\n\
            CSeq: 2 BYE\r\n\
            Content-Length: 0\r\n\r\n";
        let msg = parse_message(raw).unwrap();
        assert_eq!(msg.from.uri.user, "alice");
        assert_eq!(msg.from.tag.as_deref(), Some("t9"));
        assert_eq!(msg.to.tag.as_deref(), Some("t3"));
    }

    #[test]
    fn multiple_vias_keep_order() {
        let msg = sample_request();
        let parsed = parse_message(&msg.to_bytes()).unwrap();
        assert_eq!(parsed.vias.len(), 2);
        assert_eq!(parsed.vias[0].branch, "z9hG4bKp7");
        assert_eq!(parsed.vias[1].branch, "z9hG4bK1");
    }

    #[test]
    fn body_respects_content_length() {
        let raw = b"OPTIONS sip:a@h SIP/2.0\r\n\
            Via: SIP/2.0/UDP c:1;branch=z9hG4bK3\r\n\
            From: sip:a@c\r\n\
            To: sip:a@h\r\n\
            Call-ID: y\r\n\
            CSeq: 1 OPTIONS\r\n\
            Content-Length: 4\r\n\r\nbodyEXTRA";
        let msg = parse_message(raw).unwrap();
        assert_eq!(msg.body, b"body");
    }

    #[test]
    fn error_cases() {
        // No terminator.
        assert_eq!(
            parse_message(b"INVITE sip:a@b SIP/2.0\r\nVia: x\r\n"),
            Err(ParseError::NoHeaderTerminator)
        );
        // Bad start line.
        assert_eq!(
            parse_message(b"HELLO sip:a@b SIP/2.0\r\n\r\n"),
            Err(ParseError::BadStartLine)
        );
        assert_eq!(
            parse_message(b"INVITE sip:a@b SIP/3.0\r\n\r\n"),
            Err(ParseError::BadStartLine)
        );
        // Missing required header.
        let e = parse_message(
            b"INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP c:1;branch=z9hG4bK\r\n\
              From: sip:a@c\r\nTo: sip:a@b\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(e, Err(ParseError::Missing("Call-ID")));
        // Body shorter than promised.
        let e = parse_message(
            b"INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP c:1;branch=z9hG4bK\r\n\
              From: sip:a@c\r\nTo: sip:a@b\r\nCall-ID: z\r\nCSeq: 1 INVITE\r\n\
              Content-Length: 10\r\n\r\nabc",
        );
        assert_eq!(e, Err(ParseError::BodyTooShort { want: 10, got: 3 }));
        // Header without colon.
        let e = parse_message(b"INVITE sip:a@b SIP/2.0\r\nGarbageLine\r\n\r\n");
        assert!(matches!(e, Err(ParseError::BadHeader(_))));
        // Via without branch.
        let e = parse_message(
            b"INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/UDP c:1\r\n\
              From: sip:a@c\r\nTo: sip:a@b\r\nCall-ID: z\r\nCSeq: 1 INVITE\r\n\
              Content-Length: 0\r\n\r\n",
        );
        assert_eq!(e, Err(ParseError::BadValue("Via")));
        // Unparsable status code.
        assert_eq!(
            parse_message(b"SIP/2.0 xx OK\r\n\r\n"),
            Err(ParseError::BadStartLine)
        );
        assert_eq!(
            parse_message(b"SIP/2.0 99 Low\r\n\r\n"),
            Err(ParseError::BadStartLine)
        );
    }

    #[test]
    fn retry_after_roundtrips_and_tolerates_params() {
        let mut msg = sample_request();
        msg.start = StartLine::Response {
            code: StatusCode::SERVICE_UNAVAILABLE,
        };
        msg.retry_after = Some(12);
        let text = String::from_utf8(msg.to_bytes()).unwrap();
        assert!(text.contains("Retry-After: 12\r\n"));
        assert_eq!(parse_message(msg.to_bytes().as_slice()).unwrap(), msg);

        // Comment and parameter forms parse down to the delta seconds.
        for value in ["5 (overloaded)", "5;duration=60", "5"] {
            let raw = format!(
                "SIP/2.0 503 Service Unavailable\r\n\
                 Via: SIP/2.0/UDP c:1;branch=z9hG4bK5\r\n\
                 From: sip:a@c\r\nTo: sip:b@h\r\nCall-ID: z\r\nCSeq: 1 INVITE\r\n\
                 Retry-After: {value}\r\nContent-Length: 0\r\n\r\n"
            );
            let parsed = parse_message(raw.as_bytes()).unwrap();
            assert_eq!(parsed.retry_after, Some(5), "value {value:?}");
        }
        let bad = parse_message(
            b"SIP/2.0 503 Service Unavailable\r\n\
              Via: SIP/2.0/UDP c:1;branch=z9hG4bK5\r\n\
              From: sip:a@c\r\nTo: sip:b@h\r\nCall-ID: z\r\nCSeq: 1 INVITE\r\n\
              Retry-After: soon\r\nContent-Length: 0\r\n\r\n",
        );
        assert_eq!(bad, Err(ParseError::BadValue("Retry-After")));
    }

    #[test]
    fn unknown_headers_preserved() {
        let msg = sample_request();
        let parsed = parse_message(&msg.to_bytes()).unwrap();
        assert_eq!(parsed.extra, vec![("User-Agent".into(), "siperf".into())]);
    }

    #[test]
    fn header_end_finds_the_first_blank_line() {
        let naive = |buf: &[u8]| buf.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        let cases: [&[u8]; 10] = [
            b"",
            b"\r\n\r",
            b"\r\n\r\n",
            b"a\r\n\r\nbody",
            b"\r\r\n\r\n",
            b"\n\r\n\r\n",
            b"ab\r\n\rx\r\n",
            b"x\r\nab\r\n\r\nzz\r\n\r\n",
            b"\r\n\n\r\n\r\n",
            b"Via: x\r\n\r\r\n\r\n",
        ];
        for buf in cases {
            assert_eq!(header_end(buf), naive(buf), "{buf:?}");
        }
        let wire = sample_request().to_bytes();
        assert_eq!(header_end(&wire), naive(&wire));
    }

    #[test]
    fn memchr_finds_the_first_match_at_every_offset() {
        for len in 0..40 {
            for at in 0..=len {
                let mut hay = vec![b'a'; len];
                if at < len {
                    hay[at] = b'\r';
                }
                hay.extend_from_slice(b"\r\r");
                let naive = hay.iter().position(|&b| b == b'\r');
                assert_eq!(memchr(b'\r', &hay), naive, "len {len}, at {at}");
                assert_eq!(memchr(b'\r', &hay[..len]), naive.filter(|&p| p < len));
            }
        }
        // A high byte next to a match does not hide or fake one.
        assert_eq!(
            memchr(0x0d, &[0x8d, 0x0e, 0xff, 0x0c, 0, 0, 0, 0x0d, 0x0d]),
            Some(7)
        );
        assert_eq!(memchr(0x80, &[0x00; 16]), None);
        assert_eq!(memchr(0x00, &[0x01, 0x00]), Some(1));
    }

    #[test]
    fn errors_display_lowercase() {
        let e = ParseError::Missing("CSeq");
        assert_eq!(e.to_string(), "missing required header CSeq");
    }
}
