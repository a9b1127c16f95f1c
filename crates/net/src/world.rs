//! Shared simulation state: hosts, routing, packet transmission.
//!
//! Packet flow: `send_packet` applies capture + netem on the sender side,
//! parks each surviving copy in the world's in-flight slab and schedules
//! its delivery event ([`lazyeye_sim::schedule_at`] with the world as the
//! sink and the slab slot as the token: a timer wheel entry, no task, no
//! allocation), and `deliver` dispatches to the UDP/TCP state machines on
//! the destination host. Delivery order within a flow is preserved by a
//! per-flow clamp (netem `reorder` lets a packet escape it), so the
//! simulated network behaves like a FIFO link with configurable per-class
//! delay — the same model `tc-netem` imposes.

use std::cell::RefCell;
use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::time::Duration;

use lazyeye_sim::{schedule_at, with_rng, EventSink, SimTime};
use rand::Rng;

use crate::addr::Family;
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::netem::{first_match, Netem, NetemRule};
use crate::packet::{Direction, Packet, PacketRecord, Proto};
use crate::tcp;
use crate::udp;

/// What a host does with TCP SYNs to ports nobody listens on.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ClosedPortPolicy {
    /// Send a RST — the client sees "connection refused" immediately.
    #[default]
    Rst,
    /// Drop silently — the client retries until its timeout (the
    /// "unresponsive address" behaviour the paper's address-selection test
    /// relies on).
    Drop,
}

/// Identifier of a connection: (local, remote) socket addresses.
pub(crate) type ConnKey = (SocketAddr, SocketAddr);

pub(crate) struct HostState {
    pub name: String,
    pub addrs: Vec<IpAddr>,
    pub egress: Vec<NetemRule>,
    pub ingress: Vec<NetemRule>,
    pub udp_bound: FxHashMap<(IpAddr, u16), Rc<RefCell<udp::UdpSockState>>>,
    pub udp_any: FxHashMap<u16, Rc<RefCell<udp::UdpSockState>>>,
    pub tcp_listeners: FxHashMap<(IpAddr, u16), Rc<RefCell<tcp::ListenerState>>>,
    pub tcp_listeners_any: FxHashMap<u16, Rc<RefCell<tcp::ListenerState>>>,
    pub tcp_conns: FxHashMap<ConnKey, Rc<RefCell<tcp::ConnState>>>,
    pub next_ephemeral: u16,
    pub closed_port_policy: ClosedPortPolicy,
    pub blackholes: FxHashSet<IpAddr>,
    pub capture_on: bool,
}

impl HostState {
    fn new(name: String) -> HostState {
        HostState {
            name,
            addrs: Vec::new(),
            egress: Vec::new(),
            ingress: Vec::new(),
            udp_bound: FxHashMap::default(),
            udp_any: FxHashMap::default(),
            tcp_listeners: FxHashMap::default(),
            tcp_listeners_any: FxHashMap::default(),
            tcp_conns: FxHashMap::default(),
            next_ephemeral: 49152,
            closed_port_policy: ClosedPortPolicy::default(),
            blackholes: FxHashSet::default(),
            capture_on: false,
        }
    }

    /// Source-address selection: the first configured address matching the
    /// destination's family (a deliberate simplification of RFC 6724 —
    /// builder order expresses the host's policy table).
    pub fn pick_source(&self, remote: IpAddr) -> Option<IpAddr> {
        let fam = Family::of(remote);
        self.addrs.iter().copied().find(|a| Family::of(*a) == fam)
    }

    pub fn alloc_ephemeral(&mut self) -> u16 {
        let p = self.next_ephemeral;
        self.next_ephemeral = if p == 65535 { 49152 } else { p + 1 };
        p
    }
}

type FlowKey = (SocketAddr, SocketAddr, Proto);

pub(crate) struct World {
    pub hosts: Vec<HostState>,
    pub routes: FxHashMap<IpAddr, usize>,
    pub flows: FxHashMap<FlowKey, SimTime>,
    pub captures: Vec<Vec<PacketRecord>>,
    pub seq: u64,
    /// Base one-way propagation delay of the fabric (default 200 µs — a
    /// directly connected link, as in the paper's testbed).
    pub base_delay: Duration,
    /// Packets delivered so far (diagnostics/benchmarks).
    pub delivered: u64,
    /// Packets dropped by loss, blackholes or missing routes.
    pub dropped: u64,
    /// Packets scheduled for delivery, by event token; `free` lists the
    /// vacant slots.
    in_flight: Vec<Option<Packet>>,
    free: Vec<usize>,
}

impl World {
    pub fn new() -> World {
        World {
            hosts: Vec::new(),
            routes: FxHashMap::default(),
            flows: FxHashMap::default(),
            captures: Vec::new(),
            seq: 0,
            base_delay: Duration::from_micros(200),
            delivered: 0,
            dropped: 0,
            in_flight: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Parks a packet until its delivery event fires; returns its token.
    fn park(&mut self, pkt: Packet) -> usize {
        match self.free.pop() {
            Some(token) => {
                self.in_flight[token] = Some(pkt);
                token
            }
            None => {
                self.in_flight.push(Some(pkt));
                self.in_flight.len() - 1
            }
        }
    }

    /// Takes back the packet parked under `token`.
    fn unpark(&mut self, token: usize) -> Packet {
        self.free.push(token);
        self.in_flight[token]
            .take()
            .expect("a delivery event names a parked packet")
    }

    pub fn add_host(&mut self, name: &str) -> usize {
        self.hosts.push(HostState::new(name.to_string()));
        self.captures.push(Vec::new());
        self.hosts.len() - 1
    }

    /// Assigns an address to a host and routes it there.
    ///
    /// # Panics
    /// Panics if the address is already assigned to another host: the
    /// testbed is a closed system and double assignment is a config bug.
    pub fn assign_addr(&mut self, host: usize, addr: IpAddr) {
        if let Some(prev) = self.routes.insert(addr, host) {
            assert_eq!(
                prev, host,
                "address {addr} already assigned to host '{}'",
                self.hosts[prev].name
            );
        }
        if !self.hosts[host].addrs.contains(&addr) {
            self.hosts[host].addrs.push(addr);
        }
    }

    fn record(&mut self, host: usize, dir: Direction, pkt: &Packet) {
        if !self.hosts[host].capture_on {
            return;
        }
        let payload = match &pkt.kind {
            crate::packet::PacketKind::Datagram(b) => b.clone(),
            _ => bytes::Bytes::new(),
        };
        let rec = PacketRecord {
            seq: self.seq,
            time: lazyeye_sim::now(),
            dir,
            src: pkt.src,
            dst: pkt.dst,
            proto: pkt.proto,
            kind: pkt.kind.label(),
            payload,
        };
        self.seq += 1;
        self.captures[host].push(rec);
    }
}

/// The shared world, and the sink of its packets' delivery events.
pub(crate) struct WorldCell(RefCell<World>);

impl WorldCell {
    pub fn new(world: World) -> WorldCell {
        WorldCell(RefCell::new(world))
    }
}

impl std::ops::Deref for WorldCell {
    type Target = RefCell<World>;
    fn deref(&self) -> &RefCell<World> {
        &self.0
    }
}

impl EventSink for WorldCell {
    fn fire(self: Rc<Self>, token: usize) {
        let pkt = self.borrow_mut().unpark(token);
        deliver(&self, pkt);
    }

    fn cancel(self: Rc<Self>, token: usize) {
        let pkt = self.borrow_mut().unpark(token);
        drop(pkt);
    }
}

pub(crate) type WorldRc = Rc<WorldCell>;

/// Transmits `pkt` from `from` through the fabric: captures, shapes,
/// schedules delivery. Must be called from inside the simulation.
pub(crate) fn send_packet(world: &WorldRc, from: usize, pkt: Packet) {
    let mut w = world.borrow_mut();
    w.record(from, Direction::Tx, &pkt);

    let Some(&dst_host) = w.routes.get(&pkt.dst.ip()) else {
        // Unassigned destination: a natural blackhole. The sender's
        // capture shows the attempt; nothing ever comes back.
        w.dropped += 1;
        return;
    };

    // Combine sender egress + receiver ingress effects.
    let egress = first_match(&w.hosts[from].egress, &pkt);
    let ingress = first_match(&w.hosts[dst_host].ingress, &pkt);
    let mut delay = w.base_delay;
    let mut loss = 0.0f64;
    let mut dup = 0.0f64;
    let mut reorder = 0.0f64;
    for eff in [egress, ingress].into_iter().flatten() {
        delay += sample_delay(&eff);
        loss = 1.0 - (1.0 - loss) * (1.0 - eff.loss);
        dup = dup.max(eff.duplicate);
        reorder = reorder.max(eff.reorder);
    }

    let now = lazyeye_sim::now();
    let mut at = now + delay;

    // In-order delivery within a flow unless reordering is allowed.
    // The clamp is updated even for lost packets: a dropped packet
    // occupied its place in the queue.
    let flow: FlowKey = (pkt.src, pkt.dst, pkt.proto);
    let escaped = reorder > 0.0 && with_rng(|r| r.gen::<f64>()) < reorder;
    if !escaped {
        if let Some(&last) = w.flows.get(&flow) {
            at = at.max(last);
        }
        w.flows.insert(flow, at);
    }

    // Loss applies to packets whose protocols carry their own recovery:
    // TCP handshake packets (the client retransmits SYNs) and UDP
    // datagrams (applications retry). Stream data is delivered reliably
    // — the measured phenomena live in handshakes and DNS, not in bulk
    // transfer (see crate docs).
    let lossable = pkt.kind.is_handshake() || pkt.proto == Proto::Udp;
    let dropped = lossable && loss > 0.0 && with_rng(|r| r.gen::<f64>()) < loss;
    if dropped {
        w.dropped += 1;
        return;
    }
    // One delivery event per surviving copy: the most frequent work
    // item in the whole simulator, so it costs a wheel entry and a
    // slab slot, not a task or an allocation.
    if dup > 0.0 && with_rng(|r| r.gen::<f64>()) < dup {
        let token = w.park(pkt.clone());
        schedule_at(at, world.clone(), token);
        at += Duration::from_micros(1);
    }
    let token = w.park(pkt);
    schedule_at(at, world.clone(), token);
}

fn sample_delay(eff: &Netem) -> Duration {
    if eff.jitter.is_zero() {
        return eff.delay;
    }
    let j = eff.jitter.as_nanos() as i128;
    let offset = with_rng(|r| r.gen_range(-j..=j));
    let base = eff.delay.as_nanos() as i128;
    let total = (base + offset).max(0) as u64;
    Duration::from_nanos(total)
}

/// Delivers a packet at the destination host, dispatching to the protocol
/// state machines.
pub(crate) fn deliver(world: &WorldRc, pkt: Packet) {
    let dst_host = {
        let mut w = world.borrow_mut();
        let Some(&dst_host) = w.routes.get(&pkt.dst.ip()) else {
            w.dropped += 1;
            return;
        };
        w.record(dst_host, Direction::Rx, &pkt);
        if w.hosts[dst_host].blackholes.contains(&pkt.dst.ip()) {
            // The address exists but never answers — the paper's
            // "unresponsive address" for selection tests.
            w.dropped += 1;
            return;
        }
        w.delivered += 1;
        dst_host
    };
    match pkt.proto {
        Proto::Udp => udp::deliver(world, dst_host, pkt),
        Proto::Tcp => tcp::handle_segment(world, dst_host, pkt),
    }
}
