//! A minimal HTTP/1.1 implementation over the simulated TCP streams —
//! the NGINX stand-in for the testbed and the web tool.
//!
//! Parsed messages keep their head as received, one [`Bytes`] each, and
//! answer field lookups by scanning it: reading a request or a response
//! allocates nothing per header. Outgoing heads are written into one
//! reused per-thread buffer, whose bytes the stream copies once.

use std::cell::RefCell;
use std::io::Write;
use std::net::SocketAddr;
use std::rc::Rc;

use bytes::Bytes;
use lazyeye_net::{NetError, TcpListener, TcpStream};
use lazyeye_sim::spawn_detached;

thread_local! {
    /// The buffer outgoing messages are assembled in.
    static OUTGOING: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// Assembles a message in the thread's outgoing buffer with `build`, then
/// writes it to `stream` (one allocation: the stream's copy).
fn send(stream: &TcpStream, build: impl FnOnce(&mut Vec<u8>)) -> Result<(), NetError> {
    OUTGOING.with(|buf| {
        let mut buf = buf.borrow_mut();
        buf.clear();
        build(&mut buf);
        stream.write(&buf)
    })
}

/// A message head as received: the start line, then `name: value` lines,
/// CRLF-separated, without the blank line that ends it.
#[derive(Clone, Debug)]
struct Head(Bytes);

impl Head {
    /// Wraps the head bytes, replacing invalid UTF-8 like
    /// `String::from_utf8_lossy` (a copy only in that case).
    fn new(raw: Bytes) -> Head {
        match std::str::from_utf8(&raw) {
            Ok(_) => Head(raw),
            Err(_) => Head(Bytes::from(String::from_utf8_lossy(&raw).into_owned())),
        }
    }

    fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("heads are checked UTF-8")
    }

    fn start_line(&self) -> &str {
        self.as_str().split("\r\n").next().unwrap_or("")
    }

    /// The header lines, split at their first colon; lines without one
    /// yield `None`.
    fn fields(&self) -> impl Iterator<Item = Option<(&str, &str)>> {
        self.as_str()
            .split("\r\n")
            .skip(1)
            .filter(|line| !line.is_empty())
            .map(|line| line.split_once(':').map(|(n, v)| (n.trim(), v.trim())))
    }

    /// The first value of the (case-insensitive) field `name`.
    fn field(&self, name: &str) -> Option<&str> {
        self.fields()
            .flatten()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }
}

/// A parsed HTTP request (enough for GET-based measurement endpoints).
#[derive(Clone, Debug)]
pub struct HttpRequest {
    head: Head,
}

impl HttpRequest {
    /// Method ("GET").
    pub fn method(&self) -> &str {
        self.head.start_line().split(' ').next().unwrap_or("")
    }

    /// Request target ("/ip").
    pub fn path(&self) -> &str {
        self.head.start_line().split(' ').nth(1).unwrap_or("")
    }

    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.field(name)
    }
}

/// An HTTP response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// The status line and header lines. A response built to be served
    /// carries no `content-length`: serving it adds the body's.
    head: Head,
    /// Body bytes.
    pub body: Bytes,
}

impl HttpResponse {
    /// 200 OK with a text body.
    pub fn ok(body: impl Into<Bytes>) -> HttpResponse {
        HttpResponse {
            status: 200,
            head: Head(Bytes::from_static(
                b"HTTP/1.1 200 OK\r\ncontent-type: text/plain",
            )),
            body: body.into(),
        }
    }

    /// 404 Not Found.
    pub fn not_found() -> HttpResponse {
        HttpResponse {
            status: 404,
            head: Head(Bytes::from_static(b"HTTP/1.1 404 Not Found")),
            body: Bytes::from_static(b"not found"),
        }
    }

    /// A response with the given status, reason phrase and body, and no
    /// headers.
    pub fn with_reason(status: u16, reason: &str, body: Bytes) -> HttpResponse {
        HttpResponse {
            status,
            head: Head::new(Bytes::from(format!("HTTP/1.1 {status} {reason}"))),
            body,
        }
    }

    /// Reason phrase.
    pub fn reason(&self) -> &str {
        self.head.start_line().splitn(3, ' ').nth(2).unwrap_or("")
    }

    /// First header value by (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.field(name)
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).to_string()
    }

    /// Writes the response as served: the head, the body's
    /// `content-length`, the body.
    fn serialize(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.head.0);
        let _ = write!(out, "\r\ncontent-length: {}\r\n\r\n", self.body.len());
        out.extend_from_slice(&self.body);
    }
}

/// HTTP-layer errors.
#[derive(Debug, PartialEq, Eq)]
pub enum HttpError {
    /// Transport failed.
    Net(NetError),
    /// The peer sent something unparsable.
    Malformed,
}

impl From<NetError> for HttpError {
    fn from(e: NetError) -> Self {
        HttpError::Net(e)
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Net(e) => write!(f, "transport error: {e}"),
            HttpError::Malformed => write!(f, "malformed HTTP message"),
        }
    }
}
impl std::error::Error for HttpError {}

/// Sends a GET and reads the full response.
pub async fn http_get(
    stream: &TcpStream,
    host: &str,
    path: &str,
    user_agent: &str,
) -> Result<HttpResponse, HttpError> {
    send_get(stream, host, path, user_agent)?;
    read_response(stream).await
}

/// Writes a GET request for `path` on `host` (any `Display`, so a caller
/// can print a name straight into the head).
pub(crate) fn send_get(
    stream: &TcpStream,
    host: impl std::fmt::Display,
    path: &str,
    user_agent: &str,
) -> Result<(), NetError> {
    send(stream, |out| {
        let _ = write!(out, "GET {path} HTTP/1.1\r\nhost: {host}");
        if out.last() == Some(&b'.') {
            // A fully qualified name's root dot is not part of the host.
            out.pop();
        }
        let _ = write!(
            out,
            "\r\nuser-agent: {user_agent}\r\nconnection: close\r\n\r\n"
        );
    })
}

/// Reads a message head: everything up to the blank line, and whatever
/// followed it in the same read.
async fn read_head(stream: &TcpStream) -> Result<(Head, Bytes), HttpError> {
    // read_until returns everything read so far, which can include body
    // bytes that rode along in the same segment — split at the delimiter
    // *before* parsing headers.
    let raw = stream.read_until(b"\r\n\r\n").await?;
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(HttpError::Malformed)?;
    Ok((Head::new(raw.slice(..head_end)), raw.slice(head_end + 4..)))
}

/// Reads one response from the stream.
pub async fn read_response(stream: &TcpStream) -> Result<HttpResponse, HttpError> {
    let (head, rest) = read_head(stream).await?;
    let mut parts = head.start_line().splitn(3, ' ');
    let _version = parts.next().ok_or(HttpError::Malformed)?;
    let status: u16 = parts
        .next()
        .ok_or(HttpError::Malformed)?
        .parse()
        .map_err(|_| HttpError::Malformed)?;
    let mut content_length = 0usize;
    for field in head.fields() {
        let (name, value) = field.ok_or(HttpError::Malformed)?;
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| HttpError::Malformed)?;
        }
    }
    let body = if rest.len() >= content_length {
        rest.slice(..content_length)
    } else {
        let mut body = rest.to_vec();
        while body.len() < content_length {
            body.extend_from_slice(&stream.read_exact(content_length - body.len()).await?);
        }
        Bytes::from(body)
    };
    Ok(HttpResponse { status, head, body })
}

/// Reads one request from the stream (server side).
pub async fn read_request(stream: &TcpStream) -> Result<HttpRequest, HttpError> {
    let (head, _) = read_head(stream).await?;
    let mut parts = head.start_line().split(' ');
    parts.next().ok_or(HttpError::Malformed)?;
    parts.next().ok_or(HttpError::Malformed)?;
    Ok(HttpRequest { head })
}

/// The handler type for [`serve_http`]: request + client source address →
/// response. The source address is what the web tool's endpoints echo back
/// ("Our web server returns the client's source address in its response").
pub type Handler = Rc<dyn Fn(&HttpRequest, SocketAddr) -> HttpResponse>;

/// Serves HTTP on the listener until it is closed. One task per
/// connection; connection-close semantics (the measurement tool never needs
/// keep-alive).
pub async fn serve_http(listener: TcpListener, handler: Handler) {
    loop {
        let Ok((stream, peer)) = listener.accept().await else {
            return;
        };
        let handler = Rc::clone(&handler);
        spawn_detached(async move {
            if let Ok(req) = read_request(&stream).await {
                let resp = handler(&req, peer);
                let _ = send(&stream, |out| resp.serialize(out));
            }
            stream.close();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyeye_net::Network;
    use lazyeye_sim::{spawn, Sim};

    fn sa(ip: &str, port: u16) -> SocketAddr {
        SocketAddr::new(ip.parse().unwrap(), port)
    }

    #[test]
    fn get_roundtrip_echoes_source_address() {
        let mut sim = Sim::new(1);
        let net = Network::new();
        let server = net.host("web").v4("192.0.2.1").v6("2001:db8::1").build();
        let client = net
            .host("client")
            .v4("192.0.2.100")
            .v6("2001:db8::100")
            .build();
        let resp = sim.block_on(async move {
            let listener = server.tcp_listen_any(80).unwrap();
            let handler: Handler = Rc::new(|req: &HttpRequest, peer: SocketAddr| {
                assert_eq!(req.method(), "GET");
                HttpResponse::ok(format!("ip={}", peer.ip()))
            });
            spawn(serve_http(listener, handler));
            let stream = client.tcp_connect(sa("2001:db8::1", 80)).await.unwrap();
            http_get(&stream, "www.test", "/ip", "test-agent/1.0")
                .await
                .unwrap()
        });
        assert_eq!(resp.status, 200);
        assert_eq!(resp.text(), "ip=2001:db8::100");
    }

    #[test]
    fn request_headers_parsed() {
        let mut sim = Sim::new(1);
        let net = Network::new();
        let server = net.host("web").v4("192.0.2.1").build();
        let client = net.host("client").v4("192.0.2.100").build();
        let ua = sim.block_on(async move {
            let listener = server.tcp_listen_any(80).unwrap();
            let handler: Handler = Rc::new(|req: &HttpRequest, _| {
                HttpResponse::ok(req.header("user-agent").unwrap_or("?").to_string())
            });
            spawn(serve_http(listener, handler));
            let stream = client.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            http_get(&stream, "h", "/", "Wget/1.21.3")
                .await
                .unwrap()
                .text()
        });
        assert_eq!(ua, "Wget/1.21.3");
    }

    #[test]
    fn not_found_and_body_lengths() {
        let mut sim = Sim::new(1);
        let net = Network::new();
        let server = net.host("web").v4("192.0.2.1").build();
        let client = net.host("client").v4("192.0.2.100").build();
        let (status, len) = sim.block_on(async move {
            let listener = server.tcp_listen_any(80).unwrap();
            let handler: Handler = Rc::new(|req: &HttpRequest, _| {
                if req.path() == "/big" {
                    HttpResponse::ok(vec![0x61u8; 100_000])
                } else {
                    HttpResponse::not_found()
                }
            });
            spawn(serve_http(listener, handler));
            let s1 = client.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            let r1 = http_get(&s1, "h", "/nope", "t").await.unwrap();
            let s2 = client.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            let r2 = http_get(&s2, "h", "/big", "t").await.unwrap();
            (r1.status, r2.body.len())
        });
        assert_eq!(status, 404);
        assert_eq!(len, 100_000, "multi-segment body reassembled");
    }
}
