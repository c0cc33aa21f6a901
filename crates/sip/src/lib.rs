//! # siperf-sip
//!
//! The SIP protocol layer for the SIPerf study — a reproduction of
//! *"Explaining the Impact of Network Transport Protocols on SIP Proxy
//! Performance"* (ISPASS 2008).
//!
//! The proxy under study parses, routes, and retransmits real SIP messages;
//! this crate provides those pieces as pure, kernel-independent code:
//!
//! * [`msg`] — the message model: methods, status codes, URIs, Via stacks
//!   with branch transaction ids, and wire serialization.
//! * [`text`] — [`Text`], the model's one string type: an immutable range
//!   of a shared `Rc<str>`. A parsed message holds one shared copy of its
//!   header section and every field is a range of it, so cloning a field
//!   or a message bumps a reference count. Every field keeps its message's
//!   header copy alive.
//! * [`parse`] — a genuine textual parser for the RFC 3261 subset a proxy's
//!   hot path touches (compact forms, display names, parameters), in one
//!   pass over the header bytes.
//! * [`scan`] — a narrow reader for the few message shapes a simulated
//!   phone expects, in place and without allocating; anything else reads
//!   as `None`, and the phone falls back to [`parse`].
//! * [`framer`] — `Content-Length`-based reassembly of messages from TCP
//!   byte streams, the reason a connection can only be read by one worker.
//! * [`txn`] — transaction keys and the RFC 3261 §17 retransmission
//!   clocks a stateful proxy runs on unreliable transports.
//! * [`gen`] — builders for the benchmark flows: REGISTER, and the
//!   INVITE/ACK and BYE transactions of each call. They take `&str`;
//!   a response shares its request's text.
//!
//! # Example
//!
//! ```
//! use siperf_sip::gen::{self, CallParty};
//! use siperf_sip::msg::{Method, StatusCode};
//! use siperf_sip::parse::parse_message;
//!
//! let alice = CallParty::new("alice", "client1:40000");
//! let bob = CallParty::new("bob", "client2:40000");
//! let invite = gen::invite(&alice, &bob, "proxy.lab", "call-1", "z9hG4bK1", "UDP");
//!
//! // What goes on the wire parses back identically.
//! let parsed = parse_message(&invite.to_bytes())?;
//! assert_eq!(parsed.method(), Some(Method::Invite));
//!
//! // The callee answers; the response carries the same transaction id.
//! let ok = gen::response(StatusCode::OK, &parsed, Some("tag-bob"), Some(bob.contact()));
//! assert_eq!(ok.branch(), invite.branch());
//! # Ok::<(), siperf_sip::parse::ParseError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod framer;
pub mod gen;
pub mod msg;
pub mod parse;
pub mod scan;
pub mod text;
pub mod txn;

pub use framer::{FrameError, StreamFramer};
pub use msg::{Method, NameAddr, SipMessage, SipUri, StartLine, StatusCode, Via};
pub use parse::{parse_message, ParseError};
pub use text::Text;
pub use txn::{RetransClock, TimerVerdict, TxnKey};
