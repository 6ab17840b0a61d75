//! A minimal blocking `spld` client, used by the CLI, the tests, and
//! the chaos soak harness.

use std::io::{Read, Write};
use std::path::Path;
use std::time::Duration;

use crate::protocol::{
    encode_request, parse_response, read_frame, transform_head, write_frame, write_samples_frame,
    ProtocolError, Request, Response,
};

/// A connected client over any framed byte stream.
pub struct Client<S> {
    stream: S,
}

impl<S: Read + Write> Client<S> {
    /// Wraps an already-connected stream.
    pub fn over(stream: S) -> Client<S> {
        Client { stream }
    }

    /// One request-response round trip.
    ///
    /// # Errors
    ///
    /// Propagates frame and parse failures.
    pub fn call(&mut self, request: &Request) -> Result<Response, ProtocolError> {
        write_frame(&mut self.stream, &encode_request(request))?;
        let payload = read_frame(&mut self.stream)?;
        parse_response(&payload)
    }

    /// Applies the size-`n` complex DFT to `data` (`2n` interleaved
    /// samples), with an optional deadline. The request is sent from
    /// `data` itself, not from an encoded copy of it.
    ///
    /// # Errors
    ///
    /// Propagates frame and parse failures; server-side refusals
    /// (overload, deadline, drain, error) come back as [`Response`]
    /// variants, not `Err`.
    pub fn transform(
        &mut self,
        n: usize,
        deadline: Option<Duration>,
        data: &[f64],
    ) -> Result<Response, ProtocolError> {
        let deadline_ms = deadline.map(|d| (d.as_millis().max(1)) as u32);
        write_samples_frame(&mut self.stream, &transform_head(n, deadline_ms), data)?;
        self.read_response()
    }

    /// The `health` verb.
    ///
    /// # Errors
    ///
    /// Propagates frame and parse failures.
    pub fn health(&mut self) -> Result<Response, ProtocolError> {
        self.call(&Request::Health)
    }

    /// The `stats` verb: the daemon's telemetry table.
    ///
    /// # Errors
    ///
    /// Propagates frame and parse failures.
    pub fn stats(&mut self) -> Result<Response, ProtocolError> {
        self.call(&Request::Stats)
    }

    /// The `drain` verb: graceful shutdown.
    ///
    /// # Errors
    ///
    /// Propagates frame and parse failures.
    pub fn drain(&mut self) -> Result<Response, ProtocolError> {
        self.call(&Request::Drain)
    }

    /// The `reload wisdom` verb: the daemon re-reads its wisdom file
    /// and wisdom DB so newly learned sizes become servable.
    ///
    /// # Errors
    ///
    /// Propagates frame and parse failures.
    pub fn reload_wisdom(&mut self) -> Result<Response, ProtocolError> {
        self.call(&Request::ReloadWisdom)
    }

    /// Sends raw bytes as one frame — the chaos harness's malformed-
    /// frame injection point.
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw_frame(&mut self, payload: &[u8]) -> Result<(), ProtocolError> {
        write_frame(&mut self.stream, payload)
    }

    /// Sends arbitrary bytes *without* framing (torn frames, garbage
    /// length prefixes).
    ///
    /// # Errors
    ///
    /// Propagates write failures.
    pub fn send_raw_bytes(&mut self, bytes: &[u8]) -> Result<(), ProtocolError> {
        self.stream
            .write_all(bytes)
            .and_then(|()| self.stream.flush())
            .map_err(|e| ProtocolError::Io(e.to_string()))
    }

    /// Reads one response frame (for after a raw send).
    ///
    /// # Errors
    ///
    /// Propagates frame and parse failures.
    pub fn read_response(&mut self) -> Result<Response, ProtocolError> {
        parse_response(&read_frame(&mut self.stream)?)
    }

    /// The underlying stream (for shutdown/disconnect tricks).
    pub fn stream_mut(&mut self) -> &mut S {
        &mut self.stream
    }
}

#[cfg(unix)]
impl Client<std::os::unix::net::UnixStream> {
    /// Connects to a daemon's Unix socket.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect_unix(path: &Path) -> std::io::Result<Self> {
        let stream = std::os::unix::net::UnixStream::connect(path)?;
        Ok(Client { stream })
    }
}
