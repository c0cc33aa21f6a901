//! The SIP message parser.
//!
//! Parsing is a real cost on a proxy's hot path — Cortes et al. found
//! parsing and string handling dominate SIP proxy CPU profiles — so this is
//! a genuine textual parser, not a stub: it handles case-insensitive header
//! names, RFC 3261 compact forms (`v`, `f`, `t`, `i`, `m`, `l`), display
//! names, header parameters, and `Content-Length`-delimited bodies. The
//! simulation charges calibrated CPU time per parse; the *code path* is the
//! real one.

use std::fmt;

use crate::msg::{Method, NameAddr, SipMessage, SipUri, StartLine, StatusCode, Via};

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
        let name = raw.trim().as_bytes();
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

fn parse_start_line(line: &str) -> Result<StartLine, ParseError> {
    if let Some(rest) = line.strip_prefix("SIP/2.0 ") {
        let code_txt = rest.split(' ').next().ok_or(ParseError::BadStartLine)?;
        let code: u16 = code_txt.parse().map_err(|_| ParseError::BadStartLine)?;
        if !(100..700).contains(&code) {
            return Err(ParseError::BadStartLine);
        }
        return Ok(StartLine::Response {
            code: StatusCode(code),
        });
    }
    let mut parts = line.split(' ');
    let method = parts
        .next()
        .and_then(Method::from_token)
        .ok_or(ParseError::BadStartLine)?;
    let uri = parts
        .next()
        .and_then(SipUri::parse)
        .ok_or(ParseError::BadStartLine)?;
    if parts.next() != Some("SIP/2.0") {
        return Err(ParseError::BadStartLine);
    }
    Ok(StartLine::Request { method, uri })
}

/// Parses `<sip:u@h>;tag=x`, `sip:u@h;tag=x`, or `Name <sip:u@h>;tag=x`.
fn parse_name_addr(value: &str, which: &'static str) -> Result<NameAddr, ParseError> {
    let value = value.trim();
    let (uri_part, params) = if let Some(open) = value.find('<') {
        let close = value[open..]
            .find('>')
            .map(|c| open + c)
            .ok_or(ParseError::BadValue(which))?;
        (&value[open + 1..close], &value[close + 1..])
    } else {
        match value.find(';') {
            Some(semi) => (&value[..semi], &value[semi..]),
            None => (value, ""),
        }
    };
    let uri = SipUri::parse(uri_part.trim()).ok_or(ParseError::BadValue(which))?;
    let mut tag = None;
    for param in params.split(';') {
        if let Some(t) = param.trim().strip_prefix("tag=") {
            tag = Some(t.to_string());
        }
    }
    Ok(NameAddr { uri, tag })
}

/// Parses `SIP/2.0/UDP host:port;branch=z9hG4bK…;other=params`.
fn parse_via(value: &str) -> Result<Via, ParseError> {
    let value = value.trim();
    let rest = value
        .strip_prefix("SIP/2.0/")
        .ok_or(ParseError::BadValue("Via"))?;
    let (transport, rest) = rest.split_once(' ').ok_or(ParseError::BadValue("Via"))?;
    let mut parts = rest.split(';');
    let sent_by = parts.next().unwrap_or("").trim().to_string();
    if sent_by.is_empty() {
        return Err(ParseError::BadValue("Via"));
    }
    let mut branch = String::new();
    for param in parts {
        if let Some(b) = param.trim().strip_prefix("branch=") {
            branch = b.to_string();
        }
    }
    if branch.is_empty() {
        return Err(ParseError::BadValue("Via"));
    }
    Ok(Via {
        transport: transport.to_string(),
        sent_by,
        branch,
    })
}

fn parse_cseq(value: &str) -> Result<(u32, Method), ParseError> {
    let (num, method) = value
        .trim()
        .split_once(' ')
        .ok_or(ParseError::BadValue("CSeq"))?;
    let seq: u32 = num.parse().map_err(|_| ParseError::BadValue("CSeq"))?;
    let method = Method::from_token(method.trim()).ok_or(ParseError::BadValue("CSeq"))?;
    Ok((seq, method))
}

fn parse_contact(value: &str) -> Result<SipUri, ParseError> {
    let value = value.trim();
    let inner = if let (Some(open), Some(close)) = (value.find('<'), value.rfind('>')) {
        &value[open + 1..close]
    } else {
        value
    };
    // Drop any URI parameters.
    let bare = inner.split(';').next().unwrap_or(inner);
    SipUri::parse(bare.trim()).ok_or(ParseError::BadValue("Contact"))
}

/// Parses one complete SIP message from `buf`.
///
/// `buf` must contain exactly the header section and at least
/// `Content-Length` bytes of body (extra trailing bytes are an error for
/// datagram transports; stream transports should frame with
/// [`crate::framer::StreamFramer`] first and hand in exact messages).
///
/// # Errors
///
/// Every malformation maps to a specific [`ParseError`]; a proxy counts
/// these and drops the message, as OpenSER does.
pub fn parse_message(buf: &[u8]) -> Result<SipMessage, ParseError> {
    let head_end = header_end(buf).ok_or(ParseError::NoHeaderTerminator)?;
    let head = std::str::from_utf8(&buf[..head_end - 4]).map_err(|_| ParseError::BadEncoding)?;
    let mut lines = head.split("\r\n");
    let start = parse_start_line(lines.next().ok_or(ParseError::BadStartLine)?)?;

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
        if line.is_empty() {
            continue;
        }
        let (name_raw, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::BadHeader(line.to_string()))?;
        let value = value.trim();
        match HeaderName::classify(name_raw) {
            HeaderName::Via => vias.push(parse_via(value)?),
            HeaderName::From => from = Some(parse_name_addr(value, "From")?),
            HeaderName::To => to = Some(parse_name_addr(value, "To")?),
            HeaderName::CallId => call_id = Some(value.to_string()),
            HeaderName::CSeq => cseq = Some(parse_cseq(value)?),
            HeaderName::Contact => contact = Some(parse_contact(value)?),
            HeaderName::MaxForwards => {
                max_forwards = value
                    .parse()
                    .map_err(|_| ParseError::BadValue("Max-Forwards"))?;
            }
            HeaderName::Expires => {
                expires = Some(value.parse().map_err(|_| ParseError::BadValue("Expires"))?);
            }
            HeaderName::RetryAfter => {
                // RFC 3261 §20.33 allows a comment and parameters
                // (`Retry-After: 5 (overload);duration=60`); the delta
                // seconds before them are all the shedding logic needs.
                let secs = value.split([' ', ';', '(']).next().unwrap_or("");
                retry_after = Some(
                    secs.parse()
                        .map_err(|_| ParseError::BadValue("Retry-After"))?,
                );
            }
            HeaderName::ContentLength => {
                content_length = Some(
                    value
                        .parse::<usize>()
                        .map_err(|_| ParseError::BadValue("Content-Length"))?,
                );
            }
            HeaderName::Other => extra.push((name_raw.trim().to_string(), value.to_string())),
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
                ("uSeR-aGeNt".to_string(), "siperf/0.1".to_string()),
                ("X".to_string(), "1".to_string()),
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
    fn errors_display_lowercase() {
        let e = ParseError::Missing("CSeq");
        assert_eq!(e.to_string(), "missing required header CSeq");
    }
}
