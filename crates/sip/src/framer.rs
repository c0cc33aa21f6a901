//! Message framing over byte streams.
//!
//! TCP has no message boundaries: a SIP message can arrive split across
//! segments or coalesced with its neighbours. This is exactly why OpenSER
//! must dedicate a single worker to each TCP connection (§3.1 — "otherwise,
//! a message might be split across two worker processes"). The
//! [`StreamFramer`] reassembles a connection's byte stream into complete
//! messages using the `Content-Length` header, as RFC 3261 §18.3 requires.
//!
//! Every message on a stream is framed before it is read, so the
//! `Content-Length` pre-scan is on the TCP hot path. It works on the
//! header bytes, as the parser does: it walks the lines with the parser's
//! own line splitter, finds each colon eight bytes at a time, and builds
//! no string of its own. The
//! language it accepts is the one a `str::split("\r\n")` walk accepts: a
//! header section that is not UTF-8 has no length, the first
//! `Content-Length` (or compact `l`, in any case) wins even if its value
//! does not parse, and names and values are trimmed by `str::trim`'s
//! Unicode rule. `crates/sip/tests/framer.rs` keeps that walk as its
//! oracle.

use crate::parse::{header_end, memchr, HeaderName, Lines};

/// A framing failure; the connection should be dropped, as OpenSER does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The header section exceeds the sanity limit without terminating.
    HeaderTooLong {
        /// Bytes buffered so far.
        buffered: usize,
    },
    /// The headers contain no parseable `Content-Length`.
    MissingContentLength,
    /// `Content-Length` promises more bytes than a stream offset can hold.
    LengthOverflow {
        /// The promised body length.
        content_length: usize,
    },
    /// The message's head and body together exceed the size limit.
    MessageTooLong {
        /// Header section plus promised body, in bytes.
        length: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::HeaderTooLong { buffered } => {
                write!(
                    f,
                    "header section exceeds limit ({buffered} bytes buffered)"
                )
            }
            FrameError::MissingContentLength => {
                write!(f, "stream message lacks content-length")
            }
            FrameError::LengthOverflow { content_length } => {
                write!(f, "content-length {content_length} overflows the stream")
            }
            FrameError::MessageTooLong { length } => {
                write!(f, "message of {length} bytes exceeds limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A framing error, with the complete messages framed before it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Corrupt {
    /// The messages that preceded the error, in stream order; they are
    /// whole and should be handled before the connection is dropped.
    pub framed: Vec<Vec<u8>>,
    /// What made the rest of the stream unframeable.
    pub error: FrameError,
}

/// Maximum bytes of un-terminated header we will buffer before declaring
/// the stream corrupt.
const MAX_HEADER: usize = 16 * 1024;

/// Maximum size of one message, head plus body. A longer message is
/// rejected once more than this many bytes of it are buffered, as a
/// receive buffer of this size would overflow.
const MAX_MESSAGE: usize = 64 * 1024;

/// Reassembles SIP messages from an ordered byte stream.
#[derive(Debug, Default)]
pub struct StreamFramer {
    buf: Vec<u8>,
    read_at: usize,
}

impl StreamFramer {
    /// Creates an empty framer (one per TCP connection).
    pub fn new() -> Self {
        StreamFramer::default()
    }

    /// Appends stream bytes as they arrive from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so long-lived connections do not grow forever.
        if self.read_at > 0 && self.read_at == self.buf.len() {
            self.buf.clear();
            self.read_at = 0;
        } else if self.read_at > 64 * 1024 {
            self.buf.drain(..self.read_at);
            self.read_at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered and not yet framed.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.read_at
    }

    /// Extracts the next complete message's bytes, if one is fully
    /// buffered.
    ///
    /// # Errors
    ///
    /// [`FrameError`] when the stream cannot possibly frame (oversized or
    /// length-less headers, a length past the address space, or a message
    /// past 64 KiB once more than that is buffered); the caller should
    /// drop the connection.
    pub fn next_message(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let window = &self.buf[self.read_at..];
        let Some(head_len) = header_end(window) else {
            if window.len() > MAX_HEADER {
                return Err(FrameError::HeaderTooLong {
                    buffered: window.len(),
                });
            }
            return Ok(None);
        };
        let body_len =
            scan_content_length(&window[..head_len]).ok_or(FrameError::MissingContentLength)?;
        let total = head_len
            .checked_add(body_len)
            .ok_or(FrameError::LengthOverflow {
                content_length: body_len,
            })?;
        if total > MAX_MESSAGE && window.len() > MAX_MESSAGE {
            return Err(FrameError::MessageTooLong { length: total });
        }
        if window.len() < total {
            return Ok(None);
        }
        let msg = window[..total].to_vec();
        self.read_at += total;
        Ok(Some(msg))
    }

    /// Drains every complete message currently buffered.
    ///
    /// # Errors
    ///
    /// Stops at the first framing error and hands back, in [`Corrupt`],
    /// the messages framed before it.
    pub fn drain_messages(&mut self) -> Result<Vec<Vec<u8>>, Corrupt> {
        let mut framed = Vec::new();
        loop {
            match self.next_message() {
                Ok(Some(msg)) => framed.push(msg),
                Ok(None) => return Ok(framed),
                Err(error) => return Err(Corrupt { framed, error }),
            }
        }
    }
}

/// Finds `Content-Length` (or compact `l`) in a raw header section without
/// a full parse — the cheap pre-scan a stream transport performs.
fn scan_content_length(head: &[u8]) -> Option<usize> {
    let text = std::str::from_utf8(head).ok()?;
    // Line ends and colons are ASCII, so every span below is on a char
    // boundary of `text`.
    for (start, end) in Lines::new(head).skip(1) {
        let Some(colon) = memchr(b':', &head[start..end]) else {
            continue;
        };
        let colon = start + colon;
        if HeaderName::classify(&text[start..colon]) == HeaderName::ContentLength {
            return text[colon + 1..end].trim().parse().ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{self, CallParty};
    use crate::msg::Method;
    use crate::parse::parse_message;

    fn sample_bytes(n: u32) -> Vec<u8> {
        let caller = CallParty::new("alice", "h1:5060");
        let callee = CallParty::new("bob", "h2:5060");
        let msg = gen::invite(
            &caller,
            &callee,
            "proxy",
            &format!("call-{n}"),
            &format!("z9hG4bK{n}"),
            "TCP",
        );
        msg.to_bytes()
    }

    #[test]
    fn whole_message_in_one_push() {
        let mut f = StreamFramer::new();
        let bytes = sample_bytes(1);
        f.push(&bytes);
        let got = f.next_message().unwrap().unwrap();
        assert_eq!(got, bytes);
        assert_eq!(f.next_message().unwrap(), None);
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn message_split_byte_by_byte() {
        let mut f = StreamFramer::new();
        let bytes = sample_bytes(2);
        for b in &bytes {
            assert_eq!(f.next_message().unwrap(), None);
            f.push(std::slice::from_ref(b));
        }
        assert_eq!(f.next_message().unwrap().unwrap(), bytes);
    }

    #[test]
    fn coalesced_messages_split_correctly() {
        let mut f = StreamFramer::new();
        let a = sample_bytes(1);
        let b = sample_bytes(2);
        let c = sample_bytes(3);
        let mut all = a.clone();
        all.extend_from_slice(&b);
        all.extend_from_slice(&c);
        f.push(&all);
        let msgs = f.drain_messages().unwrap();
        assert_eq!(msgs, vec![a, b, c]);
    }

    #[test]
    fn framed_messages_parse() {
        let mut f = StreamFramer::new();
        f.push(&sample_bytes(9));
        let raw = f.next_message().unwrap().unwrap();
        let msg = parse_message(&raw).unwrap();
        assert_eq!(msg.method(), Some(Method::Invite));
        assert_eq!(msg.call_id, "call-9");
    }

    #[test]
    fn compact_and_uppercase_length_names_frame_alike() {
        for name in ["Content-Length", "l", "CONTENT-LENGTH"] {
            let msg = format!(
                "BYE sip:a@b SIP/2.0\r\nVia: SIP/2.0/TCP c:1;branch=z9hG4bK\r\n\
                 {name}: 4\r\n\r\nbody"
            );
            let mut f = StreamFramer::new();
            f.push(msg.as_bytes());
            f.push(b"NEXT");
            let framed = f.next_message().unwrap().unwrap();
            assert_eq!(framed, msg.as_bytes(), "{name}: frame ends after the body");
            assert_eq!(f.buffered(), 4, "{name}: the next bytes stay buffered");
        }
    }

    #[test]
    fn missing_content_length_is_fatal() {
        let mut f = StreamFramer::new();
        f.push(b"INVITE sip:a@b SIP/2.0\r\nVia: SIP/2.0/TCP c:1;branch=z9hG4bK\r\n\r\n");
        assert_eq!(f.next_message(), Err(FrameError::MissingContentLength));
    }

    #[test]
    fn a_length_past_the_address_space_is_fatal() {
        // Twenty digits, so the head is as long whatever the length.
        let framed = |len: usize| {
            let mut f = StreamFramer::new();
            f.push(
                format!("BYE sip:a@b SIP/2.0\r\nContent-Length: {len:020}\r\n\r\nxyz").as_bytes(),
            );
            f.next_message()
        };
        let head_len = "BYE sip:a@b SIP/2.0\r\nContent-Length: \r\n\r\n".len() + 20;
        assert_eq!(
            framed(usize::MAX),
            Err(FrameError::LengthOverflow {
                content_length: usize::MAX
            })
        );
        assert_eq!(
            framed(usize::MAX - head_len + 1),
            Err(FrameError::LengthOverflow {
                content_length: usize::MAX - head_len + 1
            })
        );
        // The largest length that fits only waits for its body.
        assert_eq!(framed(usize::MAX - head_len), Ok(None));
        assert_eq!(framed(3).unwrap().unwrap().len(), head_len + 3);
    }

    #[test]
    fn a_body_that_cannot_fit_drops_the_stream() {
        let head = |len: usize| format!("BYE sip:a@b SIP/2.0\r\nContent-Length: {len}\r\n\r\n");
        // A body that would take the message past the limit: waits while
        // the limit's worth is buffered, fails once more arrives.
        let len = usize::MAX - 1000;
        let mut f = StreamFramer::new();
        f.push(head(len).as_bytes());
        f.push(&vec![b'x'; MAX_MESSAGE - head(len).len()]);
        assert_eq!(f.next_message(), Ok(None));
        f.push(b"x");
        assert_eq!(
            f.next_message(),
            Err(FrameError::MessageTooLong {
                length: head(len).len() + len
            })
        );
        // A message of exactly the limit frames; one byte more does not.
        let framed = |len: usize| {
            let mut f = StreamFramer::new();
            f.push(head(len).as_bytes());
            f.push(&vec![b'x'; len]);
            f.next_message()
        };
        let len = MAX_MESSAGE - head(10_000).len();
        assert_eq!(framed(len).unwrap().unwrap().len(), MAX_MESSAGE);
        assert_eq!(
            framed(len + 1),
            Err(FrameError::MessageTooLong {
                length: MAX_MESSAGE + 1
            })
        );
    }

    #[test]
    fn a_framing_error_hands_back_the_messages_before_it() {
        let bye = "BYE sip:a@b SIP/2.0\r\nContent-Length: 0\r\n\r\n";
        let mut f = StreamFramer::new();
        f.push(bye.as_bytes());
        f.push(bye.as_bytes());
        f.push(b"BYE sip:a@b SIP/2.0\r\nCall-ID: c\r\n\r\n");
        assert_eq!(
            f.drain_messages(),
            Err(Corrupt {
                framed: vec![bye.as_bytes().to_vec(); 2],
                error: FrameError::MissingContentLength,
            })
        );
    }

    #[test]
    fn oversized_headers_are_fatal() {
        let mut f = StreamFramer::new();
        f.push(&vec![b'x'; MAX_HEADER + 1]);
        assert!(matches!(
            f.next_message(),
            Err(FrameError::HeaderTooLong { .. })
        ));
    }

    #[test]
    fn buffer_compacts_after_drain() {
        let mut f = StreamFramer::new();
        for i in 0..50 {
            f.push(&sample_bytes(i));
            f.next_message().unwrap().unwrap();
        }
        f.push(b"");
        assert_eq!(f.buffered(), 0);
    }
}
