//! A blocking wire-protocol client: one TCP connection, lockstep
//! request/response frames.
//!
//! The client is deliberately dumb — it encodes a [`RequestFrame`],
//! writes it, reads exactly one [`ResponseFrame`], and surfaces typed
//! server failures as [`NetError::Remote`]. No retries, no pipelining,
//! no pooling: those are caller policy, and the loopback equivalence
//! suites need the transport to add *nothing* between the bytes in and
//! the bytes out.

use std::net::{TcpStream, ToSocketAddrs};

use gqa_tensor::Tensor;

use crate::wire::{
    decode_response, encode_request, read_frame, write_frame, FrameRead, RemoteError, RequestFrame,
    ResponseFrame, WireError, PROTOCOL_VERSION,
};

/// A client-side failure: transport, framing, or a typed server error.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level I/O failure.
    Io(std::io::Error),
    /// The server's bytes did not parse as a response frame.
    Wire(WireError),
    /// The server answered with a typed error frame.
    Remote(RemoteError),
    /// The server closed the connection where a response frame was due.
    Closed,
    /// The server answered with a well-formed frame of the wrong kind
    /// for the request (names the unexpected frame).
    Unexpected(&'static str),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Remote(e) => write!(f, "server error: {e}"),
            NetError::Closed => write!(f, "connection closed mid-exchange"),
            NetError::Unexpected(kind) => write!(f, "unexpected response frame: {kind}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::Remote(e) => Some(e),
            NetError::Closed | NetError::Unexpected(_) => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

/// What the server reported in its `HelloOk` handshake reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerInfo {
    /// The server's protocol version (matches [`PROTOCOL_VERSION`]).
    pub version: u8,
    /// Registered model count.
    pub models: u64,
    /// Configured tenant-space size.
    pub tenants: u64,
}

/// A blocking connection to a [`crate::NetServer`].
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    info: ServerInfo,
}

impl NetClient {
    /// Connects and completes the `Hello` handshake. `client` is a
    /// free-form identification string (server logs only).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on connect/write failure, [`NetError::Wire`] /
    /// [`NetError::Remote`] / [`NetError::Closed`] if the handshake
    /// reply is malformed, refused, or missing.
    pub fn connect(addr: impl ToSocketAddrs, client: &str) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut this = Self {
            stream,
            info: ServerInfo {
                version: PROTOCOL_VERSION,
                models: 0,
                tenants: 0,
            },
        };
        match this.exchange(&RequestFrame::Hello {
            client: client.to_string(),
        })? {
            ResponseFrame::HelloOk {
                version,
                models,
                tenants,
            } => {
                this.info = ServerInfo {
                    version,
                    models,
                    tenants,
                };
                Ok(this)
            }
            ResponseFrame::Error(e) => Err(NetError::Remote(e)),
            other => Err(NetError::Unexpected(frame_kind(&other))),
        }
    }

    /// The handshake report from [`NetClient::connect`].
    #[must_use]
    pub fn server_info(&self) -> ServerInfo {
        self.info
    }

    /// One inference round trip; the returned tensor is bit-identical
    /// to in-process [`gqa_served::Served::serve`] for the same
    /// request.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] carries the server's typed refusal
    /// (rejection, unknown ids, bad shape, shutdown); transport
    /// failures surface as [`NetError::Io`] / [`NetError::Closed`].
    pub fn infer(&mut self, tenant: u64, model: u64, input: Tensor) -> Result<Tensor, NetError> {
        match self.exchange(&RequestFrame::Infer {
            tenant,
            model,
            input,
        })? {
            ResponseFrame::Output { output } => Ok(output),
            ResponseFrame::Error(e) => Err(NetError::Remote(e)),
            other => Err(NetError::Unexpected(frame_kind(&other))),
        }
    }

    /// Opens a decode session on the server; the returned id scopes to
    /// this connection and feeds [`NetClient::decode_step`].
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] on validation/`DecodeUnsupported` refusal,
    /// transport errors otherwise.
    pub fn open_decode(&mut self, tenant: u64, model: u64) -> Result<u64, NetError> {
        match self.exchange(&RequestFrame::DecodeOpen { tenant, model })? {
            ResponseFrame::DecodeOpened { session } => Ok(session),
            ResponseFrame::Error(e) => Err(NetError::Remote(e)),
            other => Err(NetError::Unexpected(frame_kind(&other))),
        }
    }

    /// One decode step in a session from [`NetClient::open_decode`];
    /// bit-identical to the in-process
    /// [`gqa_served::DecodeSession::step`] at the same position.
    ///
    /// # Errors
    ///
    /// [`NetError::Remote`] with [`RemoteError::UnknownSession`] for a
    /// bad id, otherwise as [`NetClient::infer`].
    pub fn decode_step(&mut self, session: u64, input: Tensor) -> Result<Tensor, NetError> {
        match self.exchange(&RequestFrame::DecodeStep { session, input })? {
            ResponseFrame::Output { output } => Ok(output),
            ResponseFrame::Error(e) => Err(NetError::Remote(e)),
            other => Err(NetError::Unexpected(frame_kind(&other))),
        }
    }

    /// Fetches the server's Prometheus text export.
    ///
    /// # Errors
    ///
    /// Transport failures only — `Stats` never fails server-side.
    pub fn stats(&mut self) -> Result<String, NetError> {
        match self.exchange(&RequestFrame::Stats)? {
            ResponseFrame::StatsText { text } => Ok(text),
            ResponseFrame::Error(e) => Err(NetError::Remote(e)),
            other => Err(NetError::Unexpected(frame_kind(&other))),
        }
    }

    /// Writes one request frame and reads exactly one response frame.
    fn exchange(&mut self, frame: &RequestFrame) -> Result<ResponseFrame, NetError> {
        write_frame(&mut self.stream, &encode_request(frame))?;
        match read_frame(&mut self.stream)? {
            FrameRead::Frame(payload) => Ok(decode_response(&payload)?),
            FrameRead::Eof => Err(NetError::Closed),
            FrameRead::Oversized(e) => Err(NetError::Wire(e)),
        }
    }
}

fn frame_kind(frame: &ResponseFrame) -> &'static str {
    match frame {
        ResponseFrame::HelloOk { .. } => "HelloOk",
        ResponseFrame::Output { .. } => "Output",
        ResponseFrame::DecodeOpened { .. } => "DecodeOpened",
        ResponseFrame::StatsText { .. } => "StatsText",
        ResponseFrame::Error(_) => "Error",
    }
}
