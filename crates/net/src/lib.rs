//! # lazyeye-net — the simulated dual-stack network
//!
//! This crate replaces the paper's physical apparatus (two directly
//! connected hosts plus `tc-netem`) with a deterministic simulation on
//! virtual time:
//!
//! * [`Network`] / [`Host`] — the fabric and its dual-stack hosts;
//! * [`NetemRule`] / [`Netem`] — per-host, per-family traffic shaping, the
//!   `tc-netem` equivalent used to delay IPv6 in the CAD experiments;
//! * [`UdpSocket`] — datagrams (DNS, QUIC-like);
//! * [`TcpListener`] / [`TcpStream`] — the three-way handshake with SYN
//!   retransmission, refused-vs-blackhole failure modes and ordered
//!   reliable streams;
//! * [`quic`] — a 1-RTT QUIC-shaped handshake for Happy Eyeballs v3;
//! * [`Capture`] — per-host packet capture with the CAD/RD analysis
//!   primitives (§4.3 of the paper).
//!
//! ## Fidelity model
//!
//! What a Happy Eyeballs measurement observes is packet *timing*, so the
//! simulator is exact about: SYN emission times, handshake completion,
//! netem delay/jitter/loss/duplication/reordering, per-flow FIFO order and
//! per-address blackholes. It deliberately does not model TCP sequence
//! numbers, windows or congestion control: stream data is delivered
//! reliably in order after shaping delay. Loss applies where recovery
//! exists (TCP handshake packets, UDP datagrams).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod addr;
mod error;
pub mod fasthash;
mod host;
mod netem;
mod packet;
mod pcap;
pub mod quic;
mod tcp;
mod udp;
mod world;

pub use addr::{Family, IpPrefix};
pub use error::NetError;
pub use host::{Host, HostBuilder, NetStats, Network};
pub use netem::{first_match, Netem, NetemRule};
pub use packet::{Direction, Packet, PacketKind, PacketRecord, Proto};
pub use pcap::Capture;
pub use quic::{quic_connect, quic_serve, QuicConnectOpts, QuicConnection, QuicServerConfig};
pub use tcp::{ConnectOpts, TcpListener, TcpStream};
pub use udp::UdpSocket;
pub use world::ClosedPortPolicy;

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use lazyeye_sim::{spawn, Sim};
    use std::net::SocketAddr;
    use std::time::Duration;

    fn duplex() -> (Network, Host, Host) {
        let net = Network::new();
        let server = net.host("server").v4("192.0.2.1").v6("2001:db8::1").build();
        let client = net
            .host("client")
            .v4("192.0.2.100")
            .v6("2001:db8::100")
            .build();
        (net, server, client)
    }

    fn sa(ip: &str, port: u16) -> SocketAddr {
        SocketAddr::new(ip.parse().unwrap(), port)
    }

    #[test]
    fn tcp_connect_and_exchange() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        let echoed = sim.block_on(async move {
            let listener = server.tcp_listen_any(80).unwrap();
            spawn(async move {
                let (stream, _peer) = listener.accept().await.unwrap();
                let req = stream.read(1024).await.unwrap().unwrap();
                stream.write(&req).unwrap();
                stream.close();
            });
            let stream = client.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            stream.write(b"hello eyeballs").unwrap();
            let reply = stream.read_exact(14).await.unwrap();
            String::from_utf8(reply.to_vec()).unwrap()
        });
        assert_eq!(echoed, "hello eyeballs");
    }

    #[test]
    fn connect_over_both_families() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        sim.block_on(async move {
            let _l = server.tcp_listen_any(443).unwrap();
            let v4 = client.tcp_connect(sa("192.0.2.1", 443)).await.unwrap();
            assert_eq!(v4.family(), Family::V4);
            let v6 = client.tcp_connect(sa("2001:db8::1", 443)).await.unwrap();
            assert_eq!(v6.family(), Family::V6);
        });
    }

    #[test]
    fn netem_delay_slows_handshake() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        server.add_egress(NetemRule::family(Family::V6, Netem::delay_ms(250)));
        let (v6_ms, v4_ms) = sim.block_on(async move {
            let _l = server.tcp_listen_any(80).unwrap();
            let t0 = lazyeye_sim::now();
            client.tcp_connect(sa("2001:db8::1", 80)).await.unwrap();
            let v6 = (lazyeye_sim::now() - t0).as_millis();
            let t1 = lazyeye_sim::now();
            client.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            let v4 = (lazyeye_sim::now() - t1).as_millis();
            (v6, v4)
        });
        // v6 handshake pays the 250 ms SYN-ACK delay; v4 is sub-millisecond.
        assert!((250..300).contains(&v6_ms), "v6 took {v6_ms} ms");
        assert!(v4_ms < 5, "v4 took {v4_ms} ms");
    }

    #[test]
    fn closed_port_refuses_immediately() {
        let mut sim = Sim::new(1);
        let (_net, _server, client) = duplex();
        let (err, elapsed_ms) = sim.block_on(async move {
            let t0 = lazyeye_sim::now();
            let err = client.tcp_connect(sa("192.0.2.1", 81)).await.unwrap_err();
            (err, (lazyeye_sim::now() - t0).as_millis())
        });
        assert_eq!(err, NetError::ConnectionRefused);
        assert!(elapsed_ms < 5);
    }

    #[test]
    fn blackholed_address_times_out_with_retries() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        server.blackhole(addr::v6("2001:db8::1"));
        client.set_capture(true);
        let client2 = client.clone();
        let err = sim.block_on(async move {
            client2
                .tcp_connect_with(
                    sa("2001:db8::1", 80),
                    ConnectOpts {
                        syn_rto: Duration::from_millis(100),
                        syn_retries: 2,
                    },
                )
                .await
                .unwrap_err()
        });
        assert_eq!(err, NetError::TimedOut);
        // 100 + 200 + 400 ms of RTOs.
        assert_eq!(sim.now().as_millis(), 700);
        // Capture shows 3 SYNs (initial + 2 retries).
        assert_eq!(client.capture().syn_times(Family::V6).len(), 3);
    }

    #[test]
    fn unassigned_address_is_a_blackhole() {
        let mut sim = Sim::new(1);
        let (_net, _server, client) = duplex();
        let err = sim.block_on(async move {
            client
                .tcp_connect_with(
                    sa("203.0.113.99", 80),
                    ConnectOpts {
                        syn_rto: Duration::from_millis(50),
                        syn_retries: 0,
                    },
                )
                .await
                .unwrap_err()
        });
        assert_eq!(err, NetError::TimedOut);
    }

    #[test]
    fn no_source_address_of_family_fails_fast() {
        let mut sim = Sim::new(1);
        let net = Network::new();
        let _server = net.host("server").v6("2001:db8::1").build();
        let v4_only = net.host("client").v4("192.0.2.100").build();
        let err = sim.block_on(async move {
            v4_only
                .tcp_connect(sa("2001:db8::1", 80))
                .await
                .unwrap_err()
        });
        assert_eq!(err, NetError::NoRoute);
    }

    #[test]
    fn drop_policy_forces_timeout_instead_of_rst() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        server.set_closed_port_policy(ClosedPortPolicy::Drop);
        let err = sim.block_on(async move {
            client
                .tcp_connect_with(
                    sa("192.0.2.1", 9999),
                    ConnectOpts {
                        syn_rto: Duration::from_millis(50),
                        syn_retries: 1,
                    },
                )
                .await
                .unwrap_err()
        });
        assert_eq!(err, NetError::TimedOut);
    }

    #[test]
    fn udp_roundtrip() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        let got = sim.block_on(async move {
            let ssock = server.udp_bind_any(53).unwrap();
            spawn(async move {
                let (payload, src) = ssock.recv_from().await.unwrap();
                let mut reply = payload.to_vec();
                reply.reverse();
                ssock.send_to(Bytes::from(reply), src).unwrap();
            });
            let csock = client.udp_bind_any(0).unwrap();
            csock
                .send_to(Bytes::from_static(b"abc"), sa("192.0.2.1", 53))
                .unwrap();
            let (reply, _) = csock.recv_from().await.unwrap();
            reply
        });
        assert_eq!(&got[..], b"cba");
    }

    #[test]
    fn udp_wildcard_answers_both_families() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        let (src4, src6) = sim.block_on(async move {
            let ssock = server.udp_bind_any(53).unwrap();
            spawn(async move {
                loop {
                    let Ok((p, src)) = ssock.recv_from().await else {
                        break;
                    };
                    ssock.send_to(p, src).unwrap();
                }
            });
            let c4 = client.udp_bind_any(0).unwrap();
            c4.send_to(Bytes::from_static(b"x"), sa("192.0.2.1", 53))
                .unwrap();
            let (_, s4) = c4.recv_from().await.unwrap();
            let c6 = client.udp_bind_any(0).unwrap();
            c6.send_to(Bytes::from_static(b"y"), sa("2001:db8::1", 53))
                .unwrap();
            let (_, s6) = c6.recv_from().await.unwrap();
            (s4, s6)
        });
        assert_eq!(src4, sa("192.0.2.1", 53));
        assert_eq!(src6, sa("2001:db8::1", 53));
    }

    #[test]
    fn capture_measures_cad_exactly() {
        // A hand-rolled Happy Eyeballs v1: try v6, fall back to v4 after
        // 250 ms. The capture must report exactly 250 ms.
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        server.add_egress(NetemRule::family(Family::V6, Netem::delay_ms(400)));
        client.set_capture(true);
        let client2 = client.clone();
        sim.block_on(async move {
            let _l = server.tcp_listen_any(80).unwrap();
            let v6 = spawn({
                let c = client2.clone();
                async move { c.tcp_connect(sa("2001:db8::1", 80)).await }
            });
            lazyeye_sim::sleep(Duration::from_millis(250)).await;
            if !v6.is_finished() {
                let _v4 = client2.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
                v6.abort();
            }
        });
        let cad = client.capture().connection_attempt_delay().unwrap();
        assert_eq!(cad, Duration::from_millis(250));
    }

    #[test]
    fn quic_handshake_and_ech_flag() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        let conn = sim.block_on(async move {
            let sock = server.udp_bind_any(443).unwrap();
            spawn(quic_serve(
                sock,
                QuicServerConfig {
                    ech: true,
                    respond: true,
                },
            ));
            quic_connect(&client, sa("2001:db8::1", 443), QuicConnectOpts::default())
                .await
                .unwrap()
        });
        assert!(conn.ech);
        assert!(conn.rtt >= Duration::from_micros(400), "rtt {:?}", conn.rtt);
    }

    #[test]
    fn quic_unresponsive_times_out() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        let err = sim.block_on(async move {
            let sock = server.udp_bind_any(443).unwrap();
            spawn(quic_serve(
                sock,
                QuicServerConfig {
                    ech: false,
                    respond: false,
                },
            ));
            quic_connect(
                &client,
                sa("192.0.2.1", 443),
                QuicConnectOpts {
                    rto: Duration::from_millis(50),
                    retries: 1,
                },
            )
            .await
            .unwrap_err()
        });
        assert_eq!(err, NetError::TimedOut);
    }

    #[test]
    fn loss_drops_syns_but_retransmission_recovers() {
        let mut sim = Sim::new(42);
        let (_net, server, client) = duplex();
        server.add_ingress(NetemRule::family(Family::V4, Netem::loss(0.5)));
        let ok = sim.block_on(async move {
            let _l = server.tcp_listen_any(80).unwrap();
            client
                .tcp_connect_with(
                    sa("192.0.2.1", 80),
                    ConnectOpts {
                        syn_rto: Duration::from_millis(100),
                        syn_retries: 20,
                    },
                )
                .await
                .is_ok()
        });
        assert!(ok, "retransmissions should eventually get through");
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut sim = Sim::new(7);
        let (_net, server, client) = duplex();
        server.add_ingress(NetemRule::all(
            Netem::delay_ms(100).with_jitter(Duration::from_millis(20)),
        ));
        let rtts = sim.block_on(async move {
            let ssock = server.udp_bind_any(7).unwrap();
            spawn(async move {
                loop {
                    let Ok((p, src)) = ssock.recv_from().await else {
                        break;
                    };
                    ssock.send_to(p, src).unwrap();
                }
            });
            let c = client.udp_bind_any(0).unwrap();
            let mut rtts = Vec::new();
            for _ in 0..20 {
                let t0 = lazyeye_sim::now();
                c.send_to(Bytes::from_static(b"p"), sa("192.0.2.1", 7))
                    .unwrap();
                let _ = c.recv_from().await.unwrap();
                rtts.push((lazyeye_sim::now() - t0).as_millis());
            }
            rtts
        });
        for rtt in &rtts {
            // one-way: 100±20 shaped + base; reply unshaped.
            assert!((80..=125).contains(rtt), "rtt {rtt} out of bounds");
        }
        let min = rtts.iter().min().unwrap();
        let max = rtts.iter().max().unwrap();
        assert!(max > min, "jitter must actually vary delays");
    }

    #[test]
    fn per_flow_order_is_preserved() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        // Jitter without reorder permission must not reorder a flow.
        server.add_ingress(NetemRule::all(
            Netem::delay_ms(50).with_jitter(Duration::from_millis(49)),
        ));
        let got = sim.block_on(async move {
            let ssock = server.udp_bind_any(9).unwrap();
            let c = client.udp_bind_any(0).unwrap();
            for i in 0..20u8 {
                c.send_to(Bytes::from(vec![i]), sa("192.0.2.1", 9)).unwrap();
            }
            let mut got = Vec::new();
            for _ in 0..20 {
                let (p, _) = ssock.recv_from().await.unwrap();
                got.push(p[0]);
            }
            got
        });
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
    }

    #[test]
    fn duplicate_delivers_twice() {
        let mut sim = Sim::new(3);
        let (_net, server, client) = duplex();
        server.add_ingress(NetemRule::all(Netem {
            duplicate: 1.0,
            ..Netem::default()
        }));
        let n = sim.block_on(async move {
            let ssock = server.udp_bind_any(9).unwrap();
            let c = client.udp_bind_any(0).unwrap();
            c.send_to(Bytes::from_static(b"dup"), sa("192.0.2.1", 9))
                .unwrap();
            let mut n = 0;
            while lazyeye_sim::timeout(Duration::from_millis(10), ssock.recv_from())
                .await
                .is_ok()
            {
                n += 1;
            }
            n
        });
        assert_eq!(n, 2);
    }

    #[test]
    fn fin_ends_stream() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        let got = sim.block_on(async move {
            let listener = server.tcp_listen_any(80).unwrap();
            spawn(async move {
                let (s, _) = listener.accept().await.unwrap();
                s.write(b"bye").unwrap();
                s.close();
            });
            let s = client.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            s.read_to_end().await.unwrap()
        });
        assert_eq!(&got[..], b"bye");
    }

    #[test]
    fn read_until_delimiter() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        let got = sim.block_on(async move {
            let listener = server.tcp_listen_any(80).unwrap();
            spawn(async move {
                let (s, _) = listener.accept().await.unwrap();
                s.write(b"HTTP/1.1 200 OK\r\n\r\nbody").unwrap();
                // keep the stream open; read_until stops at the delimiter
                lazyeye_sim::sleep(Duration::from_secs(1)).await;
            });
            let s = client.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            s.read_until(b"\r\n\r\n").await.unwrap()
        });
        assert!(got.windows(4).any(|w| w == b"\r\n\r\n"));
    }

    #[test]
    fn double_bind_fails() {
        let sim = Sim::new(1);
        let (_net, server, _client) = duplex();
        sim.enter(|| {
            let _a = server.tcp_listen_any(80).unwrap();
            assert_eq!(server.tcp_listen_any(80).unwrap_err(), NetError::AddrInUse);
            let _u = server.udp_bind_any(53).unwrap();
            assert_eq!(server.udp_bind_any(53).unwrap_err(), NetError::AddrInUse);
        });
    }

    #[test]
    fn listener_drop_frees_port() {
        let sim = Sim::new(1);
        let (_net, server, _client) = duplex();
        sim.enter(|| {
            let l = server.tcp_listen_any(80).unwrap();
            drop(l);
            assert!(server.tcp_listen_any(80).is_ok());
        });
    }

    #[test]
    fn capture_can_be_disabled_and_cleared() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        client.set_capture(false);
        sim.block_on({
            let client = client.clone();
            async move {
                let _l = server.tcp_listen_any(80).unwrap();
                let _ = client.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            }
        });
        assert!(client.capture().is_empty());
        client.set_capture(true);
        client.clear_capture();
        assert!(client.capture().is_empty());
    }

    /// `(dir, kind)` of every record in a host's capture.
    fn kinds(host: &Host) -> Vec<(Direction, &'static str)> {
        host.capture()
            .records()
            .iter()
            .map(|r| (r.dir, r.kind))
            .collect()
    }

    #[test]
    fn capture_is_opt_in_and_toggles_mid_run() {
        let mut sim = Sim::new(1);
        let (_net, server, client) = duplex();
        client.set_capture(true);
        let (c, s) = (client.clone(), server.clone());
        let recorded = sim.block_on(async move {
            let _l = s.tcp_listen_any(80).unwrap();
            let _a = c.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            c.set_capture(false);
            let _b = c.tcp_connect(sa("192.0.2.1", 80)).await.unwrap();
            c.set_capture(true);
            let _c = c.tcp_connect(sa("2001:db8::1", 80)).await.unwrap();
            // Read before the streams drop and send their FINs.
            kinds(&c)
        });
        // Never armed: nothing recorded in either direction.
        assert!(server.capture().is_empty());
        // Armed: Tx and Rx of the first and third handshakes only.
        let handshake = [
            (Direction::Tx, "SYN"),
            (Direction::Rx, "SYN-ACK"),
            (Direction::Tx, "ACK"),
        ];
        assert_eq!(recorded, [handshake, handshake].concat());
        let cap = client.capture();
        assert_eq!(cap.syn_times(Family::V4).len(), 1);
        assert_eq!(cap.syn_times(Family::V6).len(), 1);
    }
}
