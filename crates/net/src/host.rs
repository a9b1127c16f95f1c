//! The network fabric and per-host handles — the testbed's "rack".

use std::net::{IpAddr, SocketAddr};
use std::rc::Rc;
use std::time::Duration;

use crate::addr::Family;
use crate::error::NetError;
use crate::netem::NetemRule;
use crate::pcap::Capture;
use crate::tcp::{ConnectOpts, TcpListener, TcpStream};
use crate::udp::UdpSocket;
use crate::world::{ClosedPortPolicy, World, WorldCell, WorldRc};

/// Counters describing fabric activity.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets delivered to a protocol handler.
    pub delivered: u64,
    /// Packets dropped (loss, blackhole, unroutable).
    pub dropped: u64,
}

/// A simulated network: hosts attached to a common fabric with per-host
/// netem shaping. Clone handles freely; all clones view the same network.
#[derive(Clone)]
pub struct Network {
    world: WorldRc,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Creates an empty network with a 200 µs base one-way delay (a
    /// directly connected link, like the paper's two-host testbed).
    pub fn new() -> Network {
        Network {
            world: Rc::new(WorldCell::new(World::new())),
        }
    }

    /// Sets the base one-way propagation delay applied to every packet.
    pub fn set_base_delay(&self, d: Duration) {
        self.world.borrow_mut().base_delay = d;
    }

    /// Starts building a host.
    pub fn host(&self, name: &str) -> HostBuilder {
        HostBuilder {
            net: self.clone(),
            name: name.to_string(),
            addrs: Vec::new(),
        }
    }

    /// Fabric counters.
    pub fn stats(&self) -> NetStats {
        let w = self.world.borrow();
        NetStats {
            delivered: w.delivered,
            dropped: w.dropped,
        }
    }
}

/// Builder for a [`Host`].
pub struct HostBuilder {
    net: Network,
    name: String,
    addrs: Vec<IpAddr>,
}

impl HostBuilder {
    /// Adds an address (order expresses source-selection preference).
    pub fn addr(mut self, a: IpAddr) -> Self {
        self.addrs.push(a);
        self
    }

    /// Adds an IPv4 address from a literal. Panics on malformed input —
    /// addresses in a testbed config are fixtures.
    pub fn v4(self, s: &str) -> Self {
        self.addr(crate::addr::v4(s))
    }

    /// Adds an IPv6 address from a literal (panics on malformed input).
    pub fn v6(self, s: &str) -> Self {
        self.addr(crate::addr::v6(s))
    }

    /// Registers the host on the fabric and returns its handle.
    pub fn build(self) -> Host {
        let idx = {
            let mut w = self.net.world.borrow_mut();
            let idx = w.add_host(&self.name);
            for a in &self.addrs {
                w.assign_addr(idx, *a);
            }
            idx
        };
        Host {
            world: Rc::clone(&self.net.world),
            idx,
        }
    }
}

/// Handle to one simulated host. Cheap to clone; all clones are the same
/// host.
#[derive(Clone)]
pub struct Host {
    pub(crate) world: WorldRc,
    pub(crate) idx: usize,
}

impl Host {
    /// Host name (for diagnostics).
    pub fn name(&self) -> String {
        self.world.borrow().hosts[self.idx].name.clone()
    }

    /// All assigned addresses in preference order.
    pub fn addrs(&self) -> Vec<IpAddr> {
        self.world.borrow().hosts[self.idx].addrs.clone()
    }

    /// First address of the given family, if any.
    pub fn addr(&self, family: Family) -> Option<IpAddr> {
        self.addrs().into_iter().find(|a| Family::of(*a) == family)
    }

    /// All addresses of the given family.
    pub fn addrs_of(&self, family: Family) -> Vec<IpAddr> {
        self.addrs()
            .into_iter()
            .filter(|a| Family::of(*a) == family)
            .collect()
    }

    /// Assigns an additional address at runtime.
    pub fn add_addr(&self, a: IpAddr) {
        self.world.borrow_mut().assign_addr(self.idx, a);
    }

    /// Appends an egress shaping rule (`tc qdisc add ... netem` on this
    /// host's uplink). First matching rule wins.
    pub fn add_egress(&self, rule: NetemRule) {
        self.world.borrow_mut().hosts[self.idx].egress.push(rule);
    }

    /// Appends an ingress shaping rule.
    pub fn add_ingress(&self, rule: NetemRule) {
        self.world.borrow_mut().hosts[self.idx].ingress.push(rule);
    }

    /// Removes all shaping rules (the per-run reset of the testbed).
    pub fn clear_netem(&self) {
        let mut w = self.world.borrow_mut();
        w.hosts[self.idx].egress.clear();
        w.hosts[self.idx].ingress.clear();
    }

    /// Chooses what happens to SYNs hitting closed ports.
    pub fn set_closed_port_policy(&self, p: ClosedPortPolicy) {
        self.world.borrow_mut().hosts[self.idx].closed_port_policy = p;
    }

    /// Marks one of this host's addresses as unresponsive: packets to it
    /// are captured, then silently dropped (the paper's dead addresses in
    /// the address-selection experiment).
    pub fn blackhole(&self, a: IpAddr) {
        self.world.borrow_mut().hosts[self.idx].blackholes.insert(a);
    }

    /// Removes a blackhole marking.
    pub fn unblackhole(&self, a: IpAddr) {
        self.world.borrow_mut().hosts[self.idx]
            .blackholes
            .remove(&a);
    }

    /// Enables/disables packet capture on this host. Capture is off by
    /// default: a host records Tx and Rx packets only once whoever reads
    /// its [`Host::capture`] has armed it.
    pub fn set_capture(&self, on: bool) {
        let mut w = self.world.borrow_mut();
        w.hosts[self.idx].capture_on = on;
        if on {
            // A measurement run captures a few dozen records per host;
            // pre-sizing skips the doubling reallocations on the packet
            // path.
            w.captures[self.idx].reserve(64);
        }
    }

    /// Snapshot of this host's packet capture (empty unless
    /// [`Host::set_capture`] armed it).
    pub fn capture(&self) -> Capture {
        Capture::new(self.world.borrow().captures[self.idx].clone())
    }

    /// Clears the capture buffer (between test runs).
    pub fn clear_capture(&self) {
        self.world.borrow_mut().captures[self.idx].clear();
    }

    /// Binds a UDP socket. Port 0 allocates an ephemeral port; an
    /// unspecified IP binds to all host addresses.
    pub fn udp_bind(&self, addr: SocketAddr) -> Result<UdpSocket, NetError> {
        crate::udp::bind(&self.world, self.idx, addr)
    }

    /// Binds a UDP socket on every address, given port.
    pub fn udp_bind_any(&self, port: u16) -> Result<UdpSocket, NetError> {
        self.udp_bind(SocketAddr::new(
            IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED),
            port,
        ))
    }

    /// Listens for TCP on a specific address.
    pub fn tcp_listen(&self, addr: SocketAddr, backlog: usize) -> Result<TcpListener, NetError> {
        crate::tcp::listen(&self.world, self.idx, addr, backlog)
    }

    /// Listens for TCP on every host address, given port.
    pub fn tcp_listen_any(&self, port: u16) -> Result<TcpListener, NetError> {
        crate::tcp::listen(
            &self.world,
            self.idx,
            SocketAddr::new(IpAddr::V4(std::net::Ipv4Addr::UNSPECIFIED), port),
            64,
        )
    }

    /// TCP connect with default (Linux-like) SYN retransmission.
    pub async fn tcp_connect(&self, remote: SocketAddr) -> Result<TcpStream, NetError> {
        self.tcp_connect_with(remote, ConnectOpts::default()).await
    }

    /// TCP connect with explicit handshake options.
    pub async fn tcp_connect_with(
        &self,
        remote: SocketAddr,
        opts: ConnectOpts,
    ) -> Result<TcpStream, NetError> {
        crate::tcp::connect(Rc::clone(&self.world), self.idx, remote, opts).await
    }
}
