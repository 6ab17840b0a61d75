//! The `spld` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — is one *frame*: a 4-byte
//! big-endian payload length followed by that many payload bytes. The
//! length must be between 1 and [`MAX_FRAME`]; anything else is a
//! protocol error and the connection is closed (an over-long length
//! cannot be resynchronized, because the stream offset is lost).
//!
//! Request payloads start with a verb byte:
//!
//! | verb | meaning | rest of payload |
//! |------|---------|-----------------|
//! | `T`  | transform | kind byte (`F` = complex DFT), `u64` LE size `n`, `u32` LE deadline in ms (0 = none), `2n` `f64` LE interleaved complex samples |
//! | `H`  | health  | empty |
//! | `S`  | stats   | empty |
//! | `D`  | drain   | empty |
//! | `W`  | reload wisdom | empty |
//!
//! Response payloads start with a status byte:
//!
//! | status | meaning | rest of payload |
//! |--------|---------|-----------------|
//! | `K` | OK | transform: tier byte (`n` native, `v` VM, `b` batched VM), then `2n` `f64` LE; control verbs: UTF-8 text |
//! | `O` | overloaded (admission queue full; retry later) | empty |
//! | `X` | deadline exceeded (request cancelled) | empty |
//! | `G` | draining (daemon shutting down; no new work) | empty |
//! | `E` | error | class byte (`p` protocol, `u` unsupported, `c` compile, `i` internal), then UTF-8 message |
//!
//! Numbers are little-endian (host-order on every supported target);
//! only the frame length is big-endian, following the usual
//! network-framing convention.

use std::io::{self, IoSlice, Read, Write};

/// Hard bound on one frame's payload (8 MiB ≈ a size-2¹⁹ complex
/// transform). Larger lengths are rejected before any allocation.
pub const MAX_FRAME: usize = 8 << 20;

/// Transform-kind byte for the complex DFT (the only kind today; the
/// byte exists so WHT or real DFT serving can be added without a frame
/// format change).
pub const KIND_DFT: u8 = b'F';

/// Which execution tier produced an OK transform reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// A natively compiled kernel.
    Native,
    /// The resolved VM program.
    Vm,
    /// A batched `I_m ⊗ A` VM dispatch covering several requests.
    BatchedVm,
}

impl Tier {
    /// The wire byte for this tier.
    pub fn to_byte(self) -> u8 {
        match self {
            Tier::Native => b'n',
            Tier::Vm => b'v',
            Tier::BatchedVm => b'b',
        }
    }

    /// Parses a wire tier byte.
    pub fn from_byte(b: u8) -> Option<Tier> {
        match b {
            b'n' => Some(Tier::Native),
            b'v' => Some(Tier::Vm),
            b'b' => Some(Tier::BatchedVm),
            _ => None,
        }
    }
}

/// Why a frame or payload was rejected. Every variant is a *typed*
/// error the daemon answers (where the stream allows) and logs — a
/// malformed client must never panic or wedge the daemon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The stream ended mid-frame (client disconnected).
    Truncated,
    /// The length prefix was zero.
    EmptyFrame,
    /// The length prefix exceeded [`MAX_FRAME`].
    Oversized {
        /// The claimed payload length.
        claimed: u64,
    },
    /// The verb byte was not one of `T`/`H`/`S`/`D`/`W`.
    BadVerb(u8),
    /// The transform kind byte is unknown.
    BadKind(u8),
    /// The payload length disagrees with the header's sample count.
    LengthMismatch {
        /// Samples the header promised.
        expected: usize,
        /// Payload bytes actually present.
        got: usize,
    },
    /// A transform header was shorter than its fixed fields.
    ShortHeader,
    /// The requested size is zero or beyond the server's limit.
    BadSize(u64),
    /// No frame arrived within the stream's read timeout (between
    /// frames only — the stream is still well-delimited). Used by the
    /// daemon to poll its shutdown flag on idle connections.
    IdleTimeout,
    /// Reading or writing the stream failed.
    Io(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Truncated => write!(f, "stream ended mid-frame"),
            ProtocolError::EmptyFrame => write!(f, "zero-length frame"),
            ProtocolError::Oversized { claimed } => {
                write!(f, "frame length {claimed} exceeds max {MAX_FRAME}")
            }
            ProtocolError::BadVerb(b) => write!(f, "unknown verb byte 0x{b:02x}"),
            ProtocolError::BadKind(b) => write!(f, "unknown transform kind 0x{b:02x}"),
            ProtocolError::LengthMismatch { expected, got } => {
                write!(
                    f,
                    "payload length {got} does not match header ({expected} expected)"
                )
            }
            ProtocolError::ShortHeader => write!(f, "transform header truncated"),
            ProtocolError::BadSize(n) => write!(f, "unsupported transform size {n}"),
            ProtocolError::IdleTimeout => write!(f, "idle read timeout between frames"),
            ProtocolError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl ProtocolError {
    /// Whether the connection can keep going after this error. Length
    /// errors lose the stream offset, and I/O errors lose the stream;
    /// everything else (including an idle timeout, which fires only on
    /// a frame boundary) leaves the stream well-delimited, so the next
    /// frame can still be served.
    pub fn recoverable(&self) -> bool {
        !matches!(
            self,
            ProtocolError::Truncated
                | ProtocolError::EmptyFrame
                | ProtocolError::Oversized { .. }
                | ProtocolError::Io(_)
        )
    }
}

/// One parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Apply a transform to a sample vector.
    Transform {
        /// Transform kind byte ([`KIND_DFT`]).
        kind: u8,
        /// Transform size (number of complex points).
        n: usize,
        /// Per-request deadline in milliseconds from admission
        /// (`None` = no deadline).
        deadline_ms: Option<u32>,
        /// `2n` interleaved re/im samples.
        data: Vec<f64>,
    },
    /// Liveness probe.
    Health,
    /// Telemetry snapshot request.
    Stats,
    /// Graceful shutdown: finish queued work, then stop.
    Drain,
    /// Re-read the wisdom sources (file and/or wisdom DB) so newly
    /// learned sizes become servable without a restart.
    ReloadWisdom,
}

/// One daemon reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed transform and the tier that produced it.
    Transformed {
        /// Execution tier of the reply.
        tier: Tier,
        /// `2n` interleaved re/im output samples.
        data: Vec<f64>,
    },
    /// Control-verb success (health, stats, drain) with a text body.
    Text(String),
    /// Admission queue full; the request was shed, not dropped.
    Overloaded,
    /// The deadline passed before the result could be produced.
    DeadlineExceeded,
    /// The daemon is draining and accepts no new transforms.
    Draining,
    /// The request failed; class byte per the module table.
    Error {
        /// Error class (`p`/`u`/`c`/`i`).
        class: u8,
        /// Human-readable detail.
        message: String,
    },
}

/// Reads one length-prefixed frame payload.
///
/// # Errors
///
/// [`ProtocolError::Truncated`] on a clean EOF before or inside the
/// frame, [`EmptyFrame`](ProtocolError::EmptyFrame) /
/// [`Oversized`](ProtocolError::Oversized) on a bad length, and
/// [`Io`](ProtocolError::Io) on transport failure.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, ProtocolError> {
    let mut len = [0u8; 4];
    read_exact_or(r, &mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len == 0 {
        return Err(ProtocolError::EmptyFrame);
    }
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized {
            claimed: len as u64,
        });
    }
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload)?;
    Ok(payload)
}

/// Like [`read_frame`], but a clean EOF *before any byte of the length
/// prefix* returns `Ok(None)` — the normal way a client ends a
/// connection — and a read timeout on that first byte returns
/// [`ProtocolError::IdleTimeout`] so a daemon can poll its shutdown
/// flag without abandoning an idle client.
///
/// # Errors
///
/// Same as [`read_frame`] for every other failure; a timeout *inside*
/// a frame is still an [`Io`](ProtocolError::Io) error (the offset is
/// lost).
pub fn read_frame_or_eof(r: &mut impl Read) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if filled == 0
                    && matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(ProtocolError::IdleTimeout)
            }
            Err(e) => return Err(io_error(e)),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len == 0 {
        return Err(ProtocolError::EmptyFrame);
    }
    if len > MAX_FRAME {
        return Err(ProtocolError::Oversized {
            claimed: len as u64,
        });
    }
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload)?;
    Ok(Some(payload))
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`ProtocolError::Io`] on transport failure; payloads over
/// [`MAX_FRAME`] are a caller bug reported as `Oversized`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    if payload.is_empty() {
        return Err(ProtocolError::EmptyFrame);
    }
    if payload.len() > MAX_FRAME {
        return Err(ProtocolError::Oversized {
            claimed: payload.len() as u64,
        });
    }
    // Prefix and payload leave in one vectored write: sent as two, the
    // peer is woken by the prefix, blocks again for the payload and is
    // woken a second time. `sent` counts bytes of the prefix + payload
    // sequence the sink has accepted; a short write resumes from there.
    let len = (payload.len() as u32).to_be_bytes();
    let mut sent = 0;
    while sent < len.len() + payload.len() {
        let bufs = [
            IoSlice::new(&len[sent.min(len.len())..]),
            IoSlice::new(&payload[sent.saturating_sub(len.len())..]),
        ];
        match w.write_vectored(&bufs) {
            Ok(0) => return Err(io_error(io::ErrorKind::WriteZero.into())),
            Ok(k) => sent += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    w.flush().map_err(io_error)
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtocolError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            ProtocolError::Truncated
        } else {
            io_error(e)
        }
    })
}

fn io_error(e: io::Error) -> ProtocolError {
    ProtocolError::Io(e.to_string())
}

/// Parses a request payload (the bytes of one frame).
///
/// # Errors
///
/// A typed [`ProtocolError`] for any malformation; parsing never
/// panics, whatever the bytes.
pub fn parse_request(payload: &[u8]) -> Result<Request, ProtocolError> {
    let (&verb, rest) = payload.split_first().ok_or(ProtocolError::EmptyFrame)?;
    match verb {
        b'H' => Ok(Request::Health),
        b'S' => Ok(Request::Stats),
        b'D' => Ok(Request::Drain),
        b'W' => Ok(Request::ReloadWisdom),
        b'T' => parse_transform(rest),
        other => Err(ProtocolError::BadVerb(other)),
    }
}

fn parse_transform(rest: &[u8]) -> Result<Request, ProtocolError> {
    // kind(1) + n(8) + deadline(4)
    if rest.len() < 13 {
        return Err(ProtocolError::ShortHeader);
    }
    let kind = rest[0];
    if kind != KIND_DFT {
        return Err(ProtocolError::BadKind(kind));
    }
    let n = u64::from_le_bytes(rest[1..9].try_into().expect("8 bytes"));
    let deadline_ms = u32::from_le_bytes(rest[9..13].try_into().expect("4 bytes"));
    // 2n f64 samples must fit the remaining payload exactly. Guard the
    // multiplication: a hostile n must not overflow before the check.
    let samples = n
        .checked_mul(2)
        .filter(|&s| s <= (MAX_FRAME as u64) / 8)
        .ok_or(ProtocolError::BadSize(n))?;
    if n == 0 {
        return Err(ProtocolError::BadSize(0));
    }
    let body = &rest[13..];
    let expected = (samples as usize) * 8;
    if body.len() != expected {
        return Err(ProtocolError::LengthMismatch {
            expected: samples as usize,
            got: body.len(),
        });
    }
    let data = body
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
        .collect();
    Ok(Request::Transform {
        kind,
        n: n as usize,
        deadline_ms: (deadline_ms != 0).then_some(deadline_ms),
        data,
    })
}

/// Encodes a request into a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    match req {
        Request::Health => vec![b'H'],
        Request::Stats => vec![b'S'],
        Request::Drain => vec![b'D'],
        Request::ReloadWisdom => vec![b'W'],
        Request::Transform {
            kind,
            n,
            deadline_ms,
            data,
        } => {
            let mut out = encode_transform(*n, *deadline_ms, data);
            out[1] = *kind;
            out
        }
    }
}

/// Encodes a complex-DFT transform request straight from the caller's
/// samples: the payload [`encode_request`] builds for the same
/// [`Request::Transform`], without a `Request` to own a copy of `data`.
pub fn encode_transform(n: usize, deadline_ms: Option<u32>, data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(14 + data.len() * 8);
    out.push(b'T');
    out.push(KIND_DFT);
    out.extend_from_slice(&(n as u64).to_le_bytes());
    out.extend_from_slice(&deadline_ms.unwrap_or(0).to_le_bytes());
    for v in data {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Transformed { tier, data } => {
            let mut out = Vec::with_capacity(2 + data.len() * 8);
            out.push(b'K');
            out.push(tier.to_byte());
            for v in data {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out
        }
        Response::Text(text) => {
            let mut out = Vec::with_capacity(2 + text.len());
            out.push(b'K');
            out.push(b't');
            out.extend_from_slice(text.as_bytes());
            out
        }
        Response::Overloaded => vec![b'O'],
        Response::DeadlineExceeded => vec![b'X'],
        Response::Draining => vec![b'G'],
        Response::Error { class, message } => {
            let mut out = Vec::with_capacity(2 + message.len());
            out.push(b'E');
            out.push(*class);
            out.extend_from_slice(message.as_bytes());
            out
        }
    }
}

/// Parses a response payload (client side).
///
/// # Errors
///
/// [`ProtocolError`] on any malformation.
pub fn parse_response(payload: &[u8]) -> Result<Response, ProtocolError> {
    let (&status, rest) = payload.split_first().ok_or(ProtocolError::EmptyFrame)?;
    match status {
        b'O' => Ok(Response::Overloaded),
        b'X' => Ok(Response::DeadlineExceeded),
        b'G' => Ok(Response::Draining),
        b'E' => {
            let (&class, msg) = rest.split_first().ok_or(ProtocolError::ShortHeader)?;
            Ok(Response::Error {
                class,
                message: String::from_utf8_lossy(msg).into_owned(),
            })
        }
        b'K' => {
            let (&tag, body) = rest.split_first().ok_or(ProtocolError::ShortHeader)?;
            if tag == b't' {
                return Ok(Response::Text(String::from_utf8_lossy(body).into_owned()));
            }
            let tier = Tier::from_byte(tag).ok_or(ProtocolError::BadKind(tag))?;
            if body.len() % 8 != 0 {
                return Err(ProtocolError::LengthMismatch {
                    expected: body.len() / 8 * 8,
                    got: body.len(),
                });
            }
            let data = body
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            Ok(Response::Transformed { tier, data })
        }
        other => Err(ProtocolError::BadVerb(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip() {
        let req = Request::Transform {
            kind: KIND_DFT,
            n: 4,
            deadline_ms: Some(250),
            data: (0..8).map(|i| i as f64 * 0.5).collect(),
        };
        assert_eq!(parse_request(&encode_request(&req)).unwrap(), req);
        for req in [
            Request::Health,
            Request::Stats,
            Request::Drain,
            Request::ReloadWisdom,
        ] {
            assert_eq!(parse_request(&encode_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn response_roundtrip() {
        let cases = [
            Response::Transformed {
                tier: Tier::Native,
                data: vec![1.0, -2.5],
            },
            Response::Transformed {
                tier: Tier::BatchedVm,
                data: vec![0.0; 8],
            },
            Response::Text("ok uptime_ms=12".into()),
            Response::Overloaded,
            Response::DeadlineExceeded,
            Response::Draining,
            Response::Error {
                class: b'p',
                message: "bad verb".into(),
            },
        ];
        for resp in cases {
            assert_eq!(parse_response(&encode_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, &[0xff; 3]).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xff; 3]);
        assert_eq!(read_frame_or_eof(&mut r).unwrap(), None);
    }

    /// A sink that takes at most `step` bytes per call — across the
    /// buffers of a vectored write, as a socket does — and, when
    /// `interrupt` is set, fails every other call with `Interrupted`.
    struct Trickle {
        got: Vec<u8>,
        step: usize,
        interrupt: bool,
        calls: usize,
    }

    impl Trickle {
        fn new(step: usize, interrupt: bool) -> Trickle {
            Trickle {
                got: Vec::new(),
                step,
                interrupt,
                calls: 0,
            }
        }
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt && self.calls % 2 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut left = self.step;
            for buf in bufs {
                let k = buf.len().min(left);
                self.got.extend_from_slice(&buf[..k]);
                left -= k;
            }
            Ok(self.step - left)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A sink with `write` alone: the default `write_vectored` hands it
    /// the first non-empty buffer only.
    struct WriteOnly(Vec<u8>);

    impl Write for WriteOnly {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let k = buf.len().min(3);
            self.0.extend_from_slice(&buf[..k]);
            Ok(k)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_the_sink_accepts_whole_is_one_write() {
        let mut sink = Trickle::new(usize::MAX, false);
        write_frame(&mut sink, &[7u8; 1024]).unwrap();
        assert_eq!(sink.calls, 1, "prefix and payload must leave together");
        assert_eq!(read_frame(&mut sink.got.as_slice()).unwrap(), [7u8; 1024]);
    }

    #[test]
    fn short_and_interrupted_writes_still_deliver_the_frame() {
        for len in [1usize, 1 << 10, 256 << 10] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            for (step, interrupt) in [(1, false), (3, false), (7, false), (5, true)] {
                let mut sink = Trickle::new(step, interrupt);
                write_frame(&mut sink, &payload).unwrap();
                let mut r = sink.got.as_slice();
                assert_eq!(read_frame(&mut r).unwrap(), payload, "step {step}");
                assert!(r.is_empty(), "step {step}: bytes after the frame");
            }
            let mut sink = WriteOnly(Vec::new());
            write_frame(&mut sink, &payload).unwrap();
            assert_eq!(read_frame(&mut sink.0.as_slice()).unwrap(), payload);
        }
    }

    #[test]
    fn a_sink_that_accepts_nothing_is_an_io_error() {
        let mut sink = Trickle::new(0, false);
        assert!(matches!(
            write_frame(&mut sink, b"x"),
            Err(ProtocolError::Io(_))
        ));
    }

    #[test]
    fn encode_transform_is_byte_identical_to_encode_request() {
        let data: Vec<f64> = (0..16).map(|i| i as f64 * -0.75).collect();
        for deadline_ms in [None, Some(250)] {
            let req = Request::Transform {
                kind: KIND_DFT,
                n: 8,
                deadline_ms,
                data: data.clone(),
            };
            assert_eq!(
                encode_transform(8, deadline_ms, &data),
                encode_request(&req)
            );
        }
    }

    #[test]
    fn zero_and_oversized_lengths_are_typed_errors() {
        let mut r: &[u8] = &[0, 0, 0, 0];
        assert_eq!(read_frame(&mut r), Err(ProtocolError::EmptyFrame));
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        assert!(matches!(
            read_frame(&mut r),
            Err(ProtocolError::Oversized { .. })
        ));
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        // Length promises 100 bytes, stream has 3.
        let mut bytes = 100u32.to_be_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = bytes.as_slice();
        assert_eq!(read_frame(&mut r), Err(ProtocolError::Truncated));
        // EOF mid-length-prefix.
        let mut r: &[u8] = &[0, 1];
        assert_eq!(read_frame_or_eof(&mut r), Err(ProtocolError::Truncated));
    }

    #[test]
    fn garbage_payloads_never_panic() {
        // Deterministic pseudo-random corpus (SplitMix64).
        let mut state = 0x5eed_cafe_f00du64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for round in 0..500 {
            let len = (next() % 64) as usize + 1;
            let mut payload: Vec<u8> = (0..len).map(|_| (next() & 0xff) as u8).collect();
            if round % 3 == 0 {
                // Bias some frames toward almost-valid transforms.
                payload[0] = b'T';
                if len > 1 {
                    payload[1] = KIND_DFT;
                }
            }
            let _ = parse_request(&payload); // must not panic
            let _ = parse_response(&payload);
        }
    }

    #[test]
    fn hostile_sample_counts_do_not_overflow() {
        // n = u64::MAX: 2n overflows u64 if unchecked.
        let mut payload = vec![b'T', KIND_DFT];
        payload.extend_from_slice(&u64::MAX.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            parse_request(&payload),
            Err(ProtocolError::BadSize(_))
        ));
        // n = 0 is rejected, not a divide-by-zero later.
        let mut payload = vec![b'T', KIND_DFT];
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(parse_request(&payload), Err(ProtocolError::BadSize(0)));
    }

    #[test]
    fn recoverability_is_classified() {
        assert!(!ProtocolError::Truncated.recoverable());
        assert!(!ProtocolError::Oversized { claimed: 1 << 40 }.recoverable());
        assert!(!ProtocolError::Io("reset".into()).recoverable());
        assert!(ProtocolError::BadVerb(b'Z').recoverable());
        assert!(ProtocolError::BadKind(b'Q').recoverable());
        assert!(ProtocolError::BadSize(3).recoverable());
    }
}
