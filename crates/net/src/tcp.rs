//! TCP as Happy Eyeballs observes it: the three-way handshake with SYN
//! retransmission, RST-vs-blackhole failure modes, accept queues and
//! ordered reliable streams.
//!
//! Sequence numbers, windows and congestion control are deliberately not
//! modelled — no HE-measurable behaviour depends on them. What *is*
//! modelled faithfully is everything a packet capture of a connection
//! attempt shows: SYN timing (the CAD observable), SYN retransmission with
//! exponential backoff, refused vs. silently-dropped connections, and
//! ordered data delivery for the HTTP layer on top.

use std::collections::VecDeque;
use std::net::SocketAddr;
use std::rc::Rc;
use std::task::{Poll, Waker};
use std::time::Duration;

use bytes::Bytes;
use lazyeye_sim::sync::mpsc;
use lazyeye_sim::{timeout, Elapsed};

use crate::error::NetError;
use crate::packet::{Packet, PacketKind, Proto};
use crate::world::{ClosedPortPolicy, ConnKey, WorldRc};

/// Handshake/stream phase of one connection endpoint.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum Phase {
    SynSent,
    SynReceived,
    Established,
    Closed,
}

/// Handshake notification to a pending `connect` future.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum ConnEvent {
    Established,
    Refused,
}

pub(crate) struct ConnState {
    pub phase: Phase,
    /// Notifies the client-side connect future.
    pub events: Option<mpsc::Sender<ConnEvent>>,
    pub recv: VecDeque<u8>,
    pub fin_received: bool,
    pub reset: bool,
    pub read_waker: Option<Waker>,
}

impl ConnState {
    fn new(phase: Phase) -> ConnState {
        ConnState {
            phase,
            events: None,
            recv: VecDeque::new(),
            fin_received: false,
            reset: false,
            read_waker: None,
        }
    }
}

pub(crate) struct ListenerState {
    pub queue: VecDeque<ConnKey>,
    pub waker: Option<Waker>,
    pub backlog: usize,
    pub closed: bool,
}

/// Options controlling connection establishment, mirroring the OS knobs the
/// measured clients inherit (Linux `tcp_syn_retries` style).
#[derive(Copy, Clone, Debug)]
pub struct ConnectOpts {
    /// Initial SYN retransmission timeout; doubles per retry.
    pub syn_rto: Duration,
    /// Number of *re*transmissions after the first SYN.
    pub syn_retries: u32,
}

impl Default for ConnectOpts {
    fn default() -> Self {
        // Linux defaults: 1s initial RTO, 6 retries (~63 s give-up) — the
        // long timeout wget users experience when nothing answers.
        ConnectOpts {
            syn_rto: Duration::from_secs(1),
            syn_retries: 6,
        }
    }
}

/// Client-side connect: allocates a source endpoint, races SYNs against the
/// retransmission schedule, resolves to a stream or a definite error.
pub(crate) async fn connect(
    world: WorldRc,
    host: usize,
    remote: SocketAddr,
    opts: ConnectOpts,
) -> Result<TcpStream, NetError> {
    let (tx, mut rx) = mpsc::unbounded();
    let key: ConnKey = {
        let mut w = world.borrow_mut();
        let Some(src_ip) = w.hosts[host].pick_source(remote.ip()) else {
            return Err(NetError::NoRoute);
        };
        let port = w.hosts[host].alloc_ephemeral();
        let local = SocketAddr::new(src_ip, port);
        let key = (local, remote);
        let mut conn = ConnState::new(Phase::SynSent);
        conn.events = Some(tx);
        w.hosts[host]
            .tcp_conns
            .insert(key, Rc::new(std::cell::RefCell::new(conn)));
        key
    };

    let mut rto = opts.syn_rto;
    for _attempt in 0..=opts.syn_retries {
        crate::world::send_packet(
            &world,
            host,
            Packet {
                src: key.0,
                dst: key.1,
                proto: Proto::Tcp,
                kind: PacketKind::Syn,
            },
        );
        match timeout(rto, rx.recv()).await {
            Ok(Some(ConnEvent::Established)) => {
                crate::world::send_packet(
                    &world,
                    host,
                    Packet {
                        src: key.0,
                        dst: key.1,
                        proto: Proto::Tcp,
                        kind: PacketKind::Ack,
                    },
                );
                return Ok(TcpStream { world, host, key });
            }
            Ok(Some(ConnEvent::Refused)) => {
                world.borrow_mut().hosts[host].tcp_conns.remove(&key);
                return Err(NetError::ConnectionRefused);
            }
            Ok(None) => unreachable!("conn event channel closed while conn exists"),
            Err(Elapsed) => {
                rto = rto.saturating_mul(2);
            }
        }
    }
    world.borrow_mut().hosts[host].tcp_conns.remove(&key);
    Err(NetError::TimedOut)
}

/// Registers a listener. `addr.ip()` may be an unspecified address to
/// accept on every host address of either family.
pub(crate) fn listen(
    world: &WorldRc,
    host: usize,
    addr: SocketAddr,
    backlog: usize,
) -> Result<TcpListener, NetError> {
    let state = Rc::new(std::cell::RefCell::new(ListenerState {
        queue: VecDeque::new(),
        waker: None,
        backlog,
        closed: false,
    }));
    let mut w = world.borrow_mut();
    if addr.ip().is_unspecified() {
        if w.hosts[host].tcp_listeners_any.contains_key(&addr.port()) {
            return Err(NetError::AddrInUse);
        }
        w.hosts[host]
            .tcp_listeners_any
            .insert(addr.port(), Rc::clone(&state));
    } else {
        if !w.hosts[host].addrs.contains(&addr.ip()) {
            return Err(NetError::AddrNotAvailable);
        }
        let k = (addr.ip(), addr.port());
        if w.hosts[host].tcp_listeners.contains_key(&k) {
            return Err(NetError::AddrInUse);
        }
        w.hosts[host].tcp_listeners.insert(k, Rc::clone(&state));
    }
    Ok(TcpListener {
        world: Rc::clone(world),
        host,
        addr,
        state,
    })
}

/// Per-segment handler on the destination host.
pub(crate) fn handle_segment(world: &WorldRc, host: usize, pkt: Packet) {
    // The packet's dst is the local side on this host.
    let key: ConnKey = (pkt.dst, pkt.src);
    match pkt.kind {
        PacketKind::Syn => handle_syn(world, host, &pkt),
        PacketKind::SynAck => {
            let conn = lookup(world, host, key);
            let Some(conn) = conn else { return };
            let mut c = conn.borrow_mut();
            if c.phase == Phase::SynSent {
                c.phase = Phase::Established;
                if let Some(ev) = &c.events {
                    let _ = ev.send(ConnEvent::Established);
                }
            }
            // Duplicate SYN-ACKs (from retransmitted SYNs) are ignored; the
            // final ACK below is idempotent on the server.
        }
        PacketKind::Ack => {
            let conn = lookup(world, host, key);
            let Some(conn) = conn else { return };
            let established = {
                let mut c = conn.borrow_mut();
                if c.phase == Phase::SynReceived {
                    c.phase = Phase::Established;
                    true
                } else {
                    false
                }
            };
            if established {
                enqueue_accept(world, host, key);
            }
        }
        PacketKind::Rst => {
            let conn = lookup(world, host, key);
            let Some(conn) = conn else { return };
            let mut c = conn.borrow_mut();
            match c.phase {
                Phase::SynSent => {
                    if let Some(ev) = &c.events {
                        let _ = ev.send(ConnEvent::Refused);
                    }
                    c.phase = Phase::Closed;
                }
                _ => {
                    c.reset = true;
                    c.phase = Phase::Closed;
                    if let Some(w) = c.read_waker.take() {
                        w.wake();
                    }
                }
            }
        }
        PacketKind::Data(payload) => {
            let conn = lookup(world, host, key);
            let Some(conn) = conn else { return };
            let promote = {
                let mut c = conn.borrow_mut();
                let promote = c.phase == Phase::SynReceived;
                if promote {
                    // Data implies the peer's ACK was lost; promote like
                    // real TCP would on an ACK-bearing segment.
                    c.phase = Phase::Established;
                }
                c.recv.extend(payload.iter());
                if let Some(w) = c.read_waker.take() {
                    w.wake();
                }
                promote
            };
            if promote {
                enqueue_accept(world, host, key);
            }
        }
        PacketKind::Fin => {
            let conn = lookup(world, host, key);
            let Some(conn) = conn else { return };
            let mut c = conn.borrow_mut();
            c.fin_received = true;
            if let Some(w) = c.read_waker.take() {
                w.wake();
            }
        }
        PacketKind::Datagram(_) => unreachable!("datagram dispatched as TCP"),
    }
}

fn lookup(world: &WorldRc, host: usize, key: ConnKey) -> Option<Rc<std::cell::RefCell<ConnState>>> {
    world.borrow().hosts[host].tcp_conns.get(&key).cloned()
}

fn handle_syn(world: &WorldRc, host: usize, pkt: &Packet) {
    let key: ConnKey = (pkt.dst, pkt.src);
    enum Action {
        ReplySynAck,
        ReplyRst,
        Ignore,
    }
    let action = {
        let mut w = world.borrow_mut();
        let hs = &mut w.hosts[host];
        if let Some(conn) = hs.tcp_conns.get(&key) {
            // Retransmitted SYN for a known connection: re-answer.
            match conn.borrow().phase {
                Phase::SynReceived | Phase::Established => Action::ReplySynAck,
                _ => Action::Ignore,
            }
        } else {
            let listener = hs
                .tcp_listeners
                .get(&(pkt.dst.ip(), pkt.dst.port()))
                .or_else(|| hs.tcp_listeners_any.get(&pkt.dst.port()))
                .cloned();
            match listener {
                Some(l) => {
                    let full = {
                        let l = l.borrow();
                        l.closed || l.queue.len() >= l.backlog
                    };
                    if full {
                        Action::Ignore
                    } else {
                        let conn = ConnState::new(Phase::SynReceived);
                        hs.tcp_conns
                            .insert(key, Rc::new(std::cell::RefCell::new(conn)));
                        Action::ReplySynAck
                    }
                }
                None => match hs.closed_port_policy {
                    ClosedPortPolicy::Rst => Action::ReplyRst,
                    ClosedPortPolicy::Drop => Action::Ignore,
                },
            }
        }
    };
    match action {
        Action::ReplySynAck => crate::world::send_packet(
            world,
            host,
            Packet {
                src: pkt.dst,
                dst: pkt.src,
                proto: Proto::Tcp,
                kind: PacketKind::SynAck,
            },
        ),
        Action::ReplyRst => crate::world::send_packet(
            world,
            host,
            Packet {
                src: pkt.dst,
                dst: pkt.src,
                proto: Proto::Tcp,
                kind: PacketKind::Rst,
            },
        ),
        Action::Ignore => {}
    }
}

fn enqueue_accept(world: &WorldRc, host: usize, key: ConnKey) {
    let listener = {
        let w = world.borrow();
        let hs = &w.hosts[host];
        hs.tcp_listeners
            .get(&(key.0.ip(), key.0.port()))
            .or_else(|| hs.tcp_listeners_any.get(&key.0.port()))
            .cloned()
    };
    let Some(listener) = listener else { return };
    let mut l = listener.borrow_mut();
    if l.closed {
        return;
    }
    l.queue.push_back(key);
    if let Some(w) = l.waker.take() {
        w.wake();
    }
}

/// A listening socket; accept connections with [`TcpListener::accept`].
pub struct TcpListener {
    world: WorldRc,
    host: usize,
    addr: SocketAddr,
    state: Rc<std::cell::RefCell<ListenerState>>,
}

impl std::fmt::Debug for TcpListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpListener")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpListener {
    /// The bound address (possibly wildcard).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Waits for the next fully established connection.
    pub async fn accept(&self) -> Result<(TcpStream, SocketAddr), NetError> {
        let key = AcceptFut {
            state: Rc::clone(&self.state),
        }
        .await?;
        Ok((
            TcpStream {
                world: Rc::clone(&self.world),
                host: self.host,
                key,
            },
            key.1,
        ))
    }
}

impl Drop for TcpListener {
    fn drop(&mut self) {
        self.state.borrow_mut().closed = true;
        let mut w = self.world.borrow_mut();
        if self.addr.ip().is_unspecified() {
            w.hosts[self.host]
                .tcp_listeners_any
                .remove(&self.addr.port());
        } else {
            w.hosts[self.host]
                .tcp_listeners
                .remove(&(self.addr.ip(), self.addr.port()));
        }
    }
}

struct AcceptFut {
    state: Rc<std::cell::RefCell<ListenerState>>,
}

impl std::future::Future for AcceptFut {
    type Output = Result<ConnKey, NetError>;
    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> Poll<Self::Output> {
        let mut l = self.state.borrow_mut();
        if let Some(key) = l.queue.pop_front() {
            return Poll::Ready(Ok(key));
        }
        if l.closed {
            return Poll::Ready(Err(NetError::Closed));
        }
        l.waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// One end of an established connection: ordered reliable byte stream.
pub struct TcpStream {
    world: WorldRc,
    host: usize,
    key: ConnKey,
}

impl std::fmt::Debug for TcpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStream")
            .field("local", &self.key.0)
            .field("remote", &self.key.1)
            .finish()
    }
}

/// Maximum payload carried per simulated segment.
const MSS: usize = 1400;

impl TcpStream {
    /// Local endpoint (source address HE selected).
    pub fn local_addr(&self) -> SocketAddr {
        self.key.0
    }

    /// Remote endpoint.
    pub fn peer_addr(&self) -> SocketAddr {
        self.key.1
    }

    /// Address family of this connection — the Happy Eyeballs outcome.
    pub fn family(&self) -> crate::addr::Family {
        crate::addr::Family::of(self.key.1.ip())
    }

    fn conn(&self) -> Option<Rc<std::cell::RefCell<ConnState>>> {
        self.world.borrow().hosts[self.host]
            .tcp_conns
            .get(&self.key)
            .cloned()
    }

    /// Sends bytes (segmented at MSS); delivery is ordered and reliable.
    pub fn write(&self, data: &[u8]) -> Result<(), NetError> {
        let conn = self.conn().ok_or(NetError::Closed)?;
        {
            let c = conn.borrow();
            if c.reset {
                return Err(NetError::ConnectionReset);
            }
            if c.phase == Phase::Closed {
                return Err(NetError::Closed);
            }
        }
        for chunk in data.chunks(MSS) {
            crate::world::send_packet(
                &self.world,
                self.host,
                Packet {
                    src: self.key.0,
                    dst: self.key.1,
                    proto: Proto::Tcp,
                    kind: PacketKind::Data(Bytes::copy_from_slice(chunk)),
                },
            );
        }
        Ok(())
    }

    /// Reads whatever is available (up to `max` bytes), waiting if the
    /// buffer is empty. `Ok(None)` signals a clean end of stream.
    pub async fn read(&self, max: usize) -> Result<Option<Bytes>, NetError> {
        ReadFut { stream: self, max }.await
    }

    /// Reads until the peer closes, returning the whole stream tail.
    pub async fn read_to_end(&self) -> Result<Bytes, NetError> {
        let mut out = Vec::new();
        while let Some(chunk) = self.read(usize::MAX).await? {
            out.extend_from_slice(&chunk);
        }
        Ok(Bytes::from(out))
    }

    /// Reads exactly `n` bytes; errors with [`NetError::Closed`] if the
    /// stream ends first.
    pub async fn read_exact(&self, n: usize) -> Result<Bytes, NetError> {
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            match self.read(n - out.len()).await? {
                Some(chunk) => out.extend_from_slice(&chunk),
                None => return Err(NetError::Closed),
            }
        }
        Ok(Bytes::from(out))
    }

    /// Reads until (and including) the delimiter byte sequence appears,
    /// returning everything received by then: the receive buffer is
    /// searched in place and taken in one piece, so the result costs one
    /// allocation however many segments it spans.
    pub async fn read_until(&self, delim: &[u8]) -> Result<Bytes, NetError> {
        ReadUntilFut {
            stream: self,
            delim,
        }
        .await
    }

    /// Half-closes the stream (sends FIN). Reads on the peer will drain the
    /// buffer and then observe end-of-stream.
    pub fn close(&self) {
        let Some(conn) = self.conn() else { return };
        let already_closed = {
            let mut c = conn.borrow_mut();
            let was = c.phase == Phase::Closed;
            c.phase = Phase::Closed;
            was
        };
        if !already_closed && lazyeye_sim::has_current() {
            crate::world::send_packet(
                &self.world,
                self.host,
                Packet {
                    src: self.key.0,
                    dst: self.key.1,
                    proto: Proto::Tcp,
                    kind: PacketKind::Fin,
                },
            );
        }
    }
}

impl Drop for TcpStream {
    fn drop(&mut self) {
        self.close();
        self.world.borrow_mut().hosts[self.host]
            .tcp_conns
            .remove(&self.key);
    }
}

struct ReadFut<'a> {
    stream: &'a TcpStream,
    max: usize,
}

impl std::future::Future for ReadFut<'_> {
    type Output = Result<Option<Bytes>, NetError>;
    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> Poll<Self::Output> {
        let Some(conn) = self.stream.conn() else {
            return Poll::Ready(Ok(None));
        };
        let mut c = conn.borrow_mut();
        if !c.recv.is_empty() {
            let n = self.max.min(c.recv.len());
            return Poll::Ready(Ok(Some(take_front(&mut c.recv, n))));
        }
        if c.reset {
            return Poll::Ready(Err(NetError::ConnectionReset));
        }
        if c.fin_received || c.phase == Phase::Closed {
            return Poll::Ready(Ok(None));
        }
        c.read_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}

/// Moves the first `n` received bytes into one `Bytes` (one allocation).
fn take_front(recv: &mut VecDeque<u8>, n: usize) -> Bytes {
    let chunk = Bytes::copy_from_slice(&recv.make_contiguous()[..n]);
    recv.drain(..n);
    chunk
}

struct ReadUntilFut<'a> {
    stream: &'a TcpStream,
    delim: &'a [u8],
}

impl std::future::Future for ReadUntilFut<'_> {
    type Output = Result<Bytes, NetError>;
    fn poll(self: std::pin::Pin<&mut Self>, cx: &mut std::task::Context<'_>) -> Poll<Self::Output> {
        // Step for step what reading chunk by chunk until the delimiter
        // shows did: the same wakes, so the same polls.
        let Some(conn) = self.stream.conn() else {
            return Poll::Ready(Err(NetError::Closed));
        };
        let mut c = conn.borrow_mut();
        let delim = self.delim;
        let len = c.recv.len();
        if c.recv
            .make_contiguous()
            .windows(delim.len())
            .any(|w| w == delim)
        {
            return Poll::Ready(Ok(take_front(&mut c.recv, len)));
        }
        if c.reset {
            return Poll::Ready(Err(NetError::ConnectionReset));
        }
        if c.fin_received || c.phase == Phase::Closed {
            return Poll::Ready(Err(NetError::Closed));
        }
        c.read_waker = Some(cx.waker().clone());
        Poll::Pending
    }
}
