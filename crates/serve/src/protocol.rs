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
//!
//! # How samples move
//!
//! A little-endian `f64` on the wire is an `f64` in memory, so samples
//! are never converted one by one: all four codec functions
//! ([`encode_transform`], [`encode_response`], [`parse_request`],
//! [`parse_response`]) copy them in bulk through a byte view of the
//! `[f64]` (`as_bytes` / `as_bytes_mut`, the crate's two `unsafe`
//! lines besides the kernel handle), and the vectored writer
//! (`write_samples_frame`) and the daemon's reader (`read_request`)
//! hand that view to the socket, so the samples are not copied in user
//! space at all. The one thing a big-endian host would add is the byte
//! swap `to_wire` / `from_wire` apply around the view — `u64::to_le` /
//! `from_le`, which compile to nothing where host order is wire order;
//! there is one code path, not one per endianness.

use std::borrow::Cow;
use std::io::{self, IoSlice, IoSliceMut, Read, Write};

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
    let mut payload = vec![0u8; frame_len(len)?];
    read_exact_or(r, &mut payload)?;
    Ok(payload)
}

/// The payload length a prefix announces, within the frame bounds.
fn frame_len(prefix: [u8; 4]) -> Result<usize, ProtocolError> {
    match u32::from_be_bytes(prefix) as usize {
        0 => Err(ProtocolError::EmptyFrame),
        len if len > MAX_FRAME => Err(ProtocolError::Oversized {
            claimed: len as u64,
        }),
        len => Ok(len),
    }
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
    let Some(len) = read_len_or_eof(r)? else {
        return Ok(None);
    };
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload)?;
    Ok(Some(payload))
}

/// The length prefix of the next frame, checked against the frame
/// bounds; `Ok(None)` and [`ProtocolError::IdleTimeout`] as in
/// [`read_frame_or_eof`].
fn read_len_or_eof(r: &mut impl Read) -> Result<Option<usize>, ProtocolError> {
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
    frame_len(len).map(Some)
}

/// What [`read_request`] found in one frame.
#[derive(Debug, PartialEq)]
pub(crate) enum Incoming {
    /// A transform whose `2n` samples now sit at the front of the
    /// caller's input buffer.
    Transform {
        /// Transform size (number of complex points).
        n: usize,
        /// Per-request deadline in milliseconds (`None` = no deadline).
        deadline_ms: Option<u32>,
    },
    /// Any other verb, as [`parse_request`] reads it.
    Control(Request),
}

/// Verb, kind, size and deadline of a transform request: what precedes
/// its samples.
const TRANSFORM_HEAD: usize = 14;

/// The daemon's reader: the next frame, with a transform's samples read
/// from the stream *into `input`* instead of into a payload that is
/// then parsed into a second vector. After the length prefix the whole
/// frame is taken with one vectored read — the fixed transform head
/// into a stack array, everything after it into `input`'s bytes — and
/// only then judged, so every refusal that is
/// [`recoverable`](ProtocolError::recoverable) leaves the stream on a
/// frame boundary. Verdicts are those of [`read_frame_or_eof`] followed
/// by [`parse_request`], error for error (the tests hold the two
/// against each other).
///
/// `input` only grows (and keeps its contents beyond the frame's own
/// samples): bounding what a connection keeps is the caller's business.
pub(crate) fn read_request(
    r: &mut impl Read,
    input: &mut Vec<f64>,
) -> Result<Option<Incoming>, ProtocolError> {
    let Some(len) = read_len_or_eof(r)? else {
        return Ok(None);
    };
    let mut head = [0u8; TRANSFORM_HEAD];
    let head_len = len.min(TRANSFORM_HEAD);
    let body_len = len - head_len;
    let room = body_len.div_ceil(8);
    if input.len() < room {
        input.resize(room, 0.0);
    }
    let body = &mut as_bytes_mut(input)[..body_len];
    let mut got = 0;
    while got < len {
        let mut parts = [
            IoSliceMut::new(&mut head[got.min(head_len)..head_len]),
            IoSliceMut::new(&mut body[got.saturating_sub(head_len)..]),
        ];
        match r.read_vectored(&mut parts) {
            Ok(0) => return Err(ProtocolError::Truncated),
            Ok(k) => got += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    let head = &head[..head_len];
    if head[0] != b'T' {
        // Control verbs carry nothing: the verb byte decides.
        return parse_request(head).map(|request| Some(Incoming::Control(request)));
    }
    let (n, deadline_ms) = check_transform_head(&head[1..], body_len)?;
    from_wire(&mut input[..2 * n]);
    Ok(Some(Incoming::Transform { n, deadline_ms }))
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// [`ProtocolError::Io`] on transport failure; payloads over
/// [`MAX_FRAME`] are a caller bug reported as `Oversized`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ProtocolError> {
    write_parts(w, payload, &[])
}

/// Writes one frame whose payload is `head` followed by `samples` in
/// wire order — a transform request or an OK transform reply — from
/// where the samples lie: the frame [`write_frame`] would send for the
/// encoded payload, without building that payload.
///
/// # Errors
///
/// As [`write_frame`].
pub(crate) fn write_samples_frame(
    w: &mut impl Write,
    head: &[u8],
    samples: &[f64],
) -> Result<(), ProtocolError> {
    write_parts(w, head, as_bytes(&to_wire(samples)))
}

/// One frame, its payload given in two parts.
fn write_parts(w: &mut impl Write, head: &[u8], tail: &[u8]) -> Result<(), ProtocolError> {
    let payload_len = head.len() + tail.len();
    if payload_len == 0 {
        return Err(ProtocolError::EmptyFrame);
    }
    if payload_len > MAX_FRAME {
        return Err(ProtocolError::Oversized {
            claimed: payload_len as u64,
        });
    }
    // Prefix and payload leave in one vectored write: sent as two, the
    // peer is woken by the prefix, blocks again for the payload and is
    // woken a second time. `sent` counts bytes of the prefix + payload
    // sequence the sink has accepted; a short write resumes from there.
    let len = (payload_len as u32).to_be_bytes();
    let parts = [&len[..], head, tail];
    let mut sent = 0;
    while sent < len.len() + payload_len {
        let mut skip = sent;
        let bufs = parts.map(|part| {
            let k = skip.min(part.len());
            skip -= k;
            IoSlice::new(&part[k..])
        });
        match w.write_vectored(&bufs) {
            Ok(0) => return Err(io_error(io::ErrorKind::WriteZero.into())),
            Ok(k) => sent += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    w.flush().map_err(io_error)
}

/// The bytes of `samples`, in host order.
fn as_bytes(samples: &[f64]) -> &[u8] {
    // SAFETY: the view covers exactly the slice's own memory
    // (`size_of_val` bytes from its pointer, for its lifetime), `u8`
    // has no alignment requirement, and an `f64` has no padding: every
    // one of its bytes is initialised.
    unsafe { std::slice::from_raw_parts(samples.as_ptr().cast(), std::mem::size_of_val(samples)) }
}

/// The bytes of `samples`, writable: whatever lands there is a sample.
fn as_bytes_mut(samples: &mut [f64]) -> &mut [u8] {
    // SAFETY: as `as_bytes`, and the exclusive borrow is handed on, not
    // duplicated; any eight bytes are a valid `f64`, so no write through
    // the view can leave the slice holding an invalid value.
    unsafe {
        std::slice::from_raw_parts_mut(samples.as_mut_ptr().cast(), std::mem::size_of_val(samples))
    }
}

/// `samples` as the wire wants their bytes: themselves on a
/// little-endian host, a byte-swapped copy on a big-endian one.
fn to_wire(samples: &[f64]) -> Cow<'_, [f64]> {
    if cfg!(target_endian = "little") {
        Cow::Borrowed(samples)
    } else {
        let swap = |v: &f64| f64::from_bits(v.to_bits().to_le());
        Cow::Owned(samples.iter().map(swap).collect())
    }
}

/// Turns samples whose bytes came off the wire into host order, in
/// place (nothing to do on a little-endian host).
fn from_wire(samples: &mut [f64]) {
    for v in samples {
        *v = f64::from_bits(u64::from_le(v.to_bits()));
    }
}

/// A vector of the samples whose wire bytes are `body` (a multiple of
/// eight long).
fn samples_from_wire(body: &[u8]) -> Vec<f64> {
    let mut samples = vec![0.0; body.len() / 8];
    as_bytes_mut(&mut samples).copy_from_slice(body);
    from_wire(&mut samples);
    samples
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
    let fixed = rest.len().min(TRANSFORM_HEAD - 1);
    let (n, deadline_ms) = check_transform_head(&rest[..fixed], rest.len() - fixed)?;
    Ok(Request::Transform {
        kind: KIND_DFT,
        n,
        deadline_ms,
        data: samples_from_wire(&rest[fixed..]),
    })
}

/// Validates a transform request from what follows its verb byte —
/// `head`, as much of kind(1) + n(8) + deadline(4) as the frame held —
/// and the number of bytes after that. The one place the checks and
/// their order live: [`parse_request`] and [`read_request`] both come
/// through here.
fn check_transform_head(
    head: &[u8],
    body_len: usize,
) -> Result<(usize, Option<u32>), ProtocolError> {
    if head.len() < TRANSFORM_HEAD - 1 {
        return Err(ProtocolError::ShortHeader);
    }
    let kind = head[0];
    if kind != KIND_DFT {
        return Err(ProtocolError::BadKind(kind));
    }
    let n = u64::from_le_bytes(head[1..9].try_into().expect("8 bytes"));
    let deadline_ms = u32::from_le_bytes(head[9..13].try_into().expect("4 bytes"));
    // 2n f64 samples must fit the remaining payload exactly. Guard the
    // multiplication: a hostile n must not overflow before the check.
    let samples = n
        .checked_mul(2)
        .filter(|&s| s <= (MAX_FRAME as u64) / 8)
        .ok_or(ProtocolError::BadSize(n))?;
    if n == 0 {
        return Err(ProtocolError::BadSize(0));
    }
    if body_len != (samples as usize) * 8 {
        return Err(ProtocolError::LengthMismatch {
            expected: samples as usize,
            got: body_len,
        });
    }
    Ok((n as usize, (deadline_ms != 0).then_some(deadline_ms)))
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
    let mut out = Vec::with_capacity(TRANSFORM_HEAD + data.len() * 8);
    out.extend_from_slice(&transform_head(n, deadline_ms));
    out.extend_from_slice(as_bytes(&to_wire(data)));
    out
}

/// What precedes the samples of a complex-DFT transform request.
pub(crate) fn transform_head(n: usize, deadline_ms: Option<u32>) -> [u8; TRANSFORM_HEAD] {
    let mut head = [0u8; TRANSFORM_HEAD];
    head[0] = b'T';
    head[1] = KIND_DFT;
    head[2..10].copy_from_slice(&(n as u64).to_le_bytes());
    head[10..].copy_from_slice(&deadline_ms.unwrap_or(0).to_le_bytes());
    head
}

/// Encodes a response into a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    match resp {
        Response::Transformed { tier, data } => {
            let mut out = Vec::with_capacity(2 + data.len() * 8);
            out.push(b'K');
            out.push(tier.to_byte());
            out.extend_from_slice(as_bytes(&to_wire(data)));
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
            let data = samples_from_wire(body);
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
            let payload = encode_transform(8, deadline_ms, &data);
            assert_eq!(payload, encode_request(&req));
            // The vectored form puts the frame of that payload on the wire.
            let (mut framed, mut vectored) = (Vec::new(), Vec::new());
            write_frame(&mut framed, &payload).unwrap();
            write_samples_frame(&mut vectored, &transform_head(8, deadline_ms), &data).unwrap();
            assert_eq!(vectored, framed);
        }
    }

    #[test]
    fn a_samples_frame_survives_short_and_interrupted_writes() {
        let data: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.37).sin()).collect();
        let reply = Response::Transformed {
            tier: Tier::Native,
            data: data.clone(),
        };
        let mut framed = Vec::new();
        write_frame(&mut framed, &encode_response(&reply)).unwrap();
        // Steps that end inside the prefix, the head and the samples.
        for (step, interrupt) in [(1, false), (5, false), (4099, false), (3, true)] {
            let mut sink = Trickle::new(step, interrupt);
            write_samples_frame(&mut sink, b"Kn", &data).unwrap();
            assert_eq!(sink.got, framed, "step {step}");
        }
        let mut sink = WriteOnly(Vec::new());
        write_samples_frame(&mut sink, b"Kn", &data).unwrap();
        assert_eq!(sink.0, framed);
        let mut sink = Trickle::new(usize::MAX, false);
        write_samples_frame(&mut sink, b"Kn", &data).unwrap();
        assert_eq!(
            sink.calls, 1,
            "prefix, head and samples must leave together"
        );
    }

    /// Samples a bulk copy could only get right by copying bits: NaNs
    /// with payloads (quiet, signalling, negative), −0.0, subnormals,
    /// infinities, and the extremes.
    fn awkward_samples() -> Vec<f64> {
        let mut v: Vec<f64> = [
            0x7ff8_dead_beef_0001u64,
            0x7ff0_0000_0000_0001,
            0xfff8_0000_0000_0000,
            0xffff_ffff_ffff_ffff,
            0x8000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x800f_ffff_ffff_ffff,
            0x0102_0304_0506_0708,
        ]
        .into_iter()
        .map(f64::from_bits)
        .collect();
        v.extend([
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN_POSITIVE,
        ]);
        v.extend([0.0, 1.0, -2.5, std::f64::consts::PI]);
        v
    }

    fn bits(samples: &[f64]) -> Vec<u64> {
        samples.iter().map(|v| v.to_bits()).collect()
    }

    /// The wire bytes of `samples`, one `to_le_bytes` at a time.
    fn per_element_bytes(samples: &[f64]) -> Vec<u8> {
        samples.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn bulk_codec_is_bitwise_the_per_element_codec() {
        let data = awkward_samples();
        let n = data.len() / 2;
        let wire = per_element_bytes(&data);
        let one_by_one: Vec<u64> = wire
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()).to_bits())
            .collect();
        assert_eq!(one_by_one, bits(&data));

        // encode_transform / parse_request
        let mut request = vec![b'T', KIND_DFT];
        request.extend_from_slice(&(n as u64).to_le_bytes());
        request.extend_from_slice(&7u32.to_le_bytes());
        request.extend_from_slice(&wire);
        assert_eq!(encode_transform(n, Some(7), &data), request);
        match parse_request(&request).unwrap() {
            Request::Transform {
                n: got_n,
                deadline_ms,
                data: got,
                ..
            } => {
                assert_eq!((got_n, deadline_ms), (n, Some(7)));
                assert_eq!(bits(&got), one_by_one);
            }
            other => panic!("parsed {other:?}"),
        }

        // encode_response / parse_response
        let mut reply = vec![b'K', b'v'];
        reply.extend_from_slice(&wire);
        let encoded = encode_response(&Response::Transformed {
            tier: Tier::Vm,
            data: data.clone(),
        });
        assert_eq!(encoded, reply);
        match parse_response(&reply).unwrap() {
            Response::Transformed { tier, data: got } => {
                assert_eq!(tier, Tier::Vm);
                assert_eq!(bits(&got), one_by_one);
            }
            other => panic!("parsed {other:?}"),
        }

        // The byte views themselves, both directions, at an odd offset
        // into a larger buffer (a reply is the front of a grown one).
        assert_eq!(as_bytes(&data[1..]), &wire[8..]);
        let mut into = vec![f64::NAN; data.len() + 3];
        as_bytes_mut(&mut into[2..2 + data.len()]).copy_from_slice(&wire);
        assert_eq!(bits(&into[2..2 + data.len()]), one_by_one);
        assert!(into[..2]
            .iter()
            .chain(&into[2 + data.len()..])
            .all(|v| v.is_nan()));
    }

    /// A source that yields at most `step` bytes per call — across the
    /// buffers of a vectored read when `vectored`, else into the first
    /// non-empty one, as `Read`'s default does — and, when `interrupt`
    /// is set, fails every other call with `Interrupted`.
    struct TrickleRead<'a> {
        data: &'a [u8],
        step: usize,
        vectored: bool,
        interrupt: bool,
        calls: usize,
    }

    impl<'a> TrickleRead<'a> {
        fn new(data: &'a [u8], step: usize, vectored: bool, interrupt: bool) -> Self {
            TrickleRead {
                data,
                step,
                vectored,
                interrupt,
                calls: 0,
            }
        }
    }

    impl Read for TrickleRead<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.read_vectored(&mut [IoSliceMut::new(buf)])
        }

        fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.interrupt && self.calls % 2 == 1 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let mut left = self.step;
            for buf in bufs.iter_mut() {
                let k = buf.len().min(left).min(self.data.len());
                buf[..k].copy_from_slice(&self.data[..k]);
                self.data = &self.data[k..];
                left -= k;
                if k > 0 && !self.vectored {
                    break;
                }
            }
            Ok(self.step - left)
        }
    }

    /// `len ‖ payload`, the length as given (it may lie).
    fn raw_frame(len: u32, payload: &[u8]) -> Vec<u8> {
        let mut frame = len.to_be_bytes().to_vec();
        frame.extend_from_slice(payload);
        frame
    }

    fn framed(payload: &[u8]) -> Vec<u8> {
        raw_frame(payload.len() as u32, payload)
    }

    /// A transform payload with every field settable to nonsense: `body`
    /// bytes of samples follow the header whatever `n` says.
    fn transform_payload(kind: u8, n: u64, deadline_ms: u32, body: usize) -> Vec<u8> {
        let mut payload = vec![b'T', kind];
        payload.extend_from_slice(&n.to_le_bytes());
        payload.extend_from_slice(&deadline_ms.to_le_bytes());
        payload.extend((0..body).map(|i| (i * 29 % 253) as u8));
        payload
    }

    /// Frames a daemon must answer the way it always has: valid
    /// transforms, every refused header, control verbs with and without
    /// trailing bytes, and the lengths that end a connection.
    fn reader_corpus() -> Vec<(&'static str, Vec<u8>)> {
        let valid = |n: usize, deadline_ms| {
            let data: Vec<f64> = (0..2 * n).map(|i| (i as f64 * 0.61).cos() * 3.0).collect();
            framed(&encode_transform(n, deadline_ms, &data))
        };
        let awkward = awkward_samples();
        let mut corpus = vec![
            ("valid n=1", valid(1, None)),
            ("valid n=64 with a deadline", valid(64, Some(250))),
            ("valid n=16384", valid(16384, None)),
            (
                "valid, awkward samples",
                framed(&encode_transform(awkward.len() / 2, None, &awkward)),
            ),
            (
                "bad kind, full body",
                framed(&transform_payload(b'Q', 4, 0, 64)),
            ),
            ("n = 0", framed(&transform_payload(KIND_DFT, 0, 0, 0))),
            (
                "n = 0 with a body",
                framed(&transform_payload(KIND_DFT, 0, 0, 32)),
            ),
            (
                "n = 2^63",
                framed(&transform_payload(KIND_DFT, 1 << 63, 0, 16)),
            ),
            (
                "n beyond a frame",
                framed(&transform_payload(KIND_DFT, 1 << 20, 0, 16)),
            ),
            (
                "short header, 13 bytes",
                framed(&transform_payload(KIND_DFT, 4, 0, 0)[..13]),
            ),
            ("short header, verb alone", framed(b"T")),
            ("bad kind in a short header", framed(b"TQ")),
            ("health", framed(b"H")),
            ("health with 20 trailing bytes", framed(&[b'H'; 21])),
            ("stats with a long tail", framed(&[b'S'; 4000])),
            ("drain", framed(b"D")),
            ("reload", framed(b"W")),
            ("unknown verb", framed(&[b'Z', 1, 2, 3])),
            ("unknown verb, long", framed(&[0xee; 777])),
            (
                "truncated body",
                raw_frame(14 + 64, &transform_payload(KIND_DFT, 4, 0, 40)),
            ),
            ("truncated header", raw_frame(14 + 64, b"TF\x04")),
            ("zero length", raw_frame(0, b"")),
            ("oversized length", raw_frame(MAX_FRAME as u32 + 1, b"T")),
        ];
        for (label, body) in [
            ("one byte short", 63),
            ("one byte long", 65),
            ("a sample short", 56),
            ("a sample long", 72),
        ] {
            corpus.push((label, framed(&transform_payload(KIND_DFT, 4, 9, body))));
        }
        corpus
    }

    /// What a reader made of one frame: the request (samples as bits, so
    /// NaNs compare), end of stream, or the typed error.
    type Verdict = Result<Option<(Request, Vec<u64>)>, ProtocolError>;

    /// The reader the daemon used to have: a payload vector, parsed into
    /// a request that owns a second one.
    fn read_by_parsing(r: &mut impl Read) -> Verdict {
        let Some(payload) = read_frame_or_eof(r)? else {
            return Ok(None);
        };
        let mut request = parse_request(&payload)?;
        let sample_bits = match &mut request {
            Request::Transform { data, .. } => bits(&std::mem::take(data)),
            _ => Vec::new(),
        };
        Ok(Some((request, sample_bits)))
    }

    /// The reader it has: samples land in `input`.
    fn read_in_place(r: &mut impl Read, input: &mut Vec<f64>) -> Verdict {
        Ok(match read_request(r, input)? {
            None => None,
            Some(Incoming::Control(request)) => Some((request, Vec::new())),
            Some(Incoming::Transform { n, deadline_ms }) => {
                let request = Request::Transform {
                    kind: KIND_DFT,
                    n,
                    deadline_ms,
                    data: Vec::new(),
                };
                Some((request, bits(&input[..2 * n])))
            }
        })
    }

    #[test]
    fn the_in_place_reader_judges_every_frame_as_parsing_does() {
        let follower: Vec<f64> = (0..16).map(|i| i as f64 - 7.5).collect();
        let follower_frame = framed(&encode_transform(8, Some(3), &follower));
        let sources: [(usize, bool, bool); 6] = [
            (usize::MAX, true, false),
            (1, true, false),
            (7, true, false),
            (5, false, false),
            (usize::MAX, false, true),
            (11, true, true),
        ];
        // One input buffer for the whole corpus, as one connection has:
        // what an earlier frame left in it must never show.
        let mut input = Vec::new();
        for (label, frame) in reader_corpus() {
            // A frame cut short ends its stream: nothing can follow it.
            let mut stream = frame.clone();
            if !label.starts_with("truncated") {
                stream.extend_from_slice(&follower_frame);
            }
            let want = read_by_parsing(&mut stream.as_slice());
            let served = matches!(want, Ok(Some((Request::Transform { .. }, _))));
            assert_eq!(served, label.starts_with("valid"), "{label}: {want:?}");
            if label.starts_with("truncated") {
                assert_eq!(want, Err(ProtocolError::Truncated), "{label}");
            }
            for (step, vectored, interrupt) in sources {
                let case =
                    format!("{label}, step {step}, vectored {vectored}, interrupt {interrupt}");
                let mut old = TrickleRead::new(&stream, step, vectored, interrupt);
                assert_eq!(read_by_parsing(&mut old), want, "{case}: the old reader");
                let mut new = TrickleRead::new(&stream, step, vectored, interrupt);
                assert_eq!(read_in_place(&mut new, &mut input), want, "{case}");
                if want.as_ref().is_err_and(|e| !e.recoverable()) {
                    continue;
                }
                // The frame was consumed, no more and no less: the next
                // one reads, and then the stream ends cleanly.
                assert_eq!(new.data.len(), follower_frame.len(), "{case}");
                match read_in_place(&mut new, &mut input) {
                    Ok(Some((
                        Request::Transform {
                            n: 8,
                            deadline_ms: Some(3),
                            ..
                        },
                        got,
                    ))) => {
                        assert_eq!(got, bits(&follower), "{case}: the follower's samples")
                    }
                    other => panic!("{case}: the follower read as {other:?}"),
                }
                assert_eq!(read_in_place(&mut new, &mut input), Ok(None), "{case}");
            }
        }
        // The largest frame of the corpus sized the buffer, nothing more.
        assert_eq!(input.len(), 2 * 16384);
    }

    #[test]
    fn a_frame_the_source_has_whole_is_two_reads() {
        let data: Vec<f64> = (0..128).map(|i| i as f64).collect();
        let stream = framed(&encode_transform(64, None, &data));
        let mut source = TrickleRead::new(&stream, usize::MAX, true, false);
        let mut input = Vec::new();
        let got = read_request(&mut source, &mut input).unwrap();
        assert_eq!(
            got,
            Some(Incoming::Transform {
                n: 64,
                deadline_ms: None
            })
        );
        assert_eq!(
            source.calls, 2,
            "the length, then head and samples together"
        );
        assert_eq!(input, data);
    }

    #[test]
    fn idle_timeout_and_eof_between_frames_are_not_errors() {
        struct TimesOut;
        impl Read for TimesOut {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::ErrorKind::WouldBlock.into())
            }
        }
        let mut input = Vec::new();
        assert_eq!(
            read_request(&mut TimesOut, &mut input),
            Err(ProtocolError::IdleTimeout)
        );
        assert_eq!(read_request(&mut io::empty(), &mut input), Ok(None));
        assert!(input.is_empty(), "nothing read, nothing kept");
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
