//! iCloud Private Relay: MASQUE-style egress proxying.
//!
//! The paper's §5.1/§5.2 finding: with iCPR enabled, Safari does not build
//! an IP tunnel — it hands the *server name* to the egress operator, whose
//! stack performs DNS and the transport handshakes. Measurements through
//! iCPR therefore show the **egress operator's** Happy Eyeballs, not
//! Safari's: Akamai uses a 150 ms CAD and 400 ms DNS timeouts; Cloudflare
//! 200 ms and 1.75 s.
//!
//! The proxy protocol here is a minimal stand-in for MASQUE CONNECT: the
//! client sends `VISIT <name> <port> <path>\n`; the egress resolves,
//! Happy-Eyeballs-connects with its own profile, performs the HTTP GET and
//! relays the response body (which, for the measurement endpoints, carries
//! the source address the web server saw — the egress's address).

use std::net::SocketAddr;
use std::time::Duration;

use lazyeye_core::{CadMode, HeConfig, HeVersion, InterlaceStrategy, Quirks};
use lazyeye_dns::Name;
use lazyeye_net::{Host, TcpListener};
use lazyeye_resolver::StubConfig;
use lazyeye_sim::spawn;

use crate::client::Client;
use crate::http::HttpResponse;
use crate::profiles::{ClientProfile, Engine};

/// An iCPR egress operator's connection behaviour.
#[derive(Clone, Debug)]
pub struct EgressProfile {
    /// Operator name.
    pub operator: &'static str,
    /// Connection Attempt Delay used by the egress stack.
    pub cad: Duration,
    /// DNS timeout applied to both A and AAAA queries ("Both operators use
    /// the same timeout for A and AAAA record queries").
    pub dns_timeout: Duration,
}

/// Akamai egress: 150 ms CAD, 400 ms DNS timeout.
pub fn akamai() -> EgressProfile {
    EgressProfile {
        operator: "Akamai",
        cad: Duration::from_millis(150),
        dns_timeout: Duration::from_millis(400),
    }
}

/// Cloudflare egress: 200 ms CAD, 1.75 s DNS timeout.
pub fn cloudflare() -> EgressProfile {
    EgressProfile {
        operator: "Cloudflare",
        cad: Duration::from_millis(200),
        dns_timeout: Duration::from_millis(1750),
    }
}

impl EgressProfile {
    /// The client profile the egress stack behaves as: fixed CAD, no RD,
    /// waits for both lookups bounded by the operator's DNS timeout.
    pub fn as_client_profile(&self) -> ClientProfile {
        ClientProfile {
            name: self.operator,
            version: "egress",
            released: "-",
            engine: Engine::Chromium, // closest UA shape; unused over iCPR
            os: "Linux",
            os_version: "",
            mobile: false,
            he: HeConfig {
                version: HeVersion::V1,
                cad: CadMode::Fixed(self.cad),
                resolution_delay: None,
                interlace: InterlaceStrategy::Hev1SingleFallback,
                prefer: lazyeye_net::Family::V6,
                attempt_timeout: Duration::from_secs(10),
                overall_deadline: Duration::from_secs(30),
                cache_ttl: Duration::from_secs(600),
                use_quic: false,
                quirks: Quirks {
                    wait_for_all_answers: true,
                    stop_after_first_pair: true,
                },
            },
            stub_order: lazyeye_resolver::QueryOrder::AaaaThenA,
        }
    }

    /// Stub configuration with the operator's DNS timeout.
    pub fn stub_config(&self, resolvers: Vec<SocketAddr>) -> StubConfig {
        StubConfig {
            servers: resolvers,
            attempt_timeout: self.dns_timeout,
            retries: 0,
            ..StubConfig::default()
        }
    }
}

/// Runs an egress node: accepts proxy requests on `listener` and serves
/// them with the operator's own Happy Eyeballs stack running on
/// `egress_host`.
pub async fn egress_serve(
    listener: TcpListener,
    egress_host: Host,
    profile: EgressProfile,
    resolvers: Vec<SocketAddr>,
) {
    loop {
        let Ok((stream, _peer)) = listener.accept().await else {
            return;
        };
        let egress_host = egress_host.clone();
        let profile = profile.clone();
        let resolvers = resolvers.clone();
        spawn(async move {
            let Ok(line) = stream.read_until(b"\n").await else {
                return;
            };
            let line = String::from_utf8_lossy(&line);
            let mut parts = line.trim().split(' ');
            let (Some(cmd), Some(name), Some(port), path) = (
                parts.next(),
                parts.next(),
                parts.next(),
                parts.next().unwrap_or("/ip"),
            ) else {
                let _ = stream.write(b"ERR malformed\n");
                return;
            };
            if cmd != "VISIT" {
                let _ = stream.write(b"ERR unknown-command\n");
                return;
            }
            let (Ok(qname), Ok(port)) = (Name::parse(name), port.parse::<u16>()) else {
                let _ = stream.write(b"ERR bad-target\n");
                return;
            };
            // A fresh egress client per request: iCPR egress nodes serve
            // many users; per-request state keeps runs independent.
            let client = Client::with_stub_config(
                profile.as_client_profile(),
                egress_host,
                profile.stub_config(resolvers),
            );
            let result = client.fetch(&qname, port, path).await;
            match (&result.he.connection, &result.response) {
                (Ok(conn), Some(resp)) => {
                    let header = format!("OK {} {}\n", conn.family().label(), resp.status);
                    let _ = stream.write(header.as_bytes());
                    let _ = stream.write(&resp.body);
                }
                (Ok(conn), None) => {
                    let _ = stream.write(format!("OK {} -\n", conn.family().label()).as_bytes());
                }
                (Err(e), _) => {
                    let _ = stream.write(format!("ERR {e}\n").as_bytes());
                }
            }
            stream.close();
        });
    }
}

/// Client-side helper: asks the egress at `egress_addr` to visit a target,
/// returning the raw relay reply (status line + body).
pub async fn visit_via_egress(
    client_host: &Host,
    egress_addr: SocketAddr,
    name: &Name,
    port: u16,
    path: &str,
) -> Result<HttpResponse, lazyeye_net::NetError> {
    let stream = client_host.tcp_connect(egress_addr).await?;
    let line = format!(
        "VISIT {} {} {}\n",
        name.to_string().trim_end_matches('.'),
        port,
        path
    );
    stream.write(line.as_bytes())?;
    let reply = stream.read_to_end().await?;
    // Parse the relay framing back into an HttpResponse-ish shape.
    let pos = reply
        .iter()
        .position(|b| *b == b'\n')
        .unwrap_or(reply.len());
    let status_line = String::from_utf8_lossy(&reply[..pos]).to_string();
    let body = bytes::Bytes::copy_from_slice(reply.get(pos + 1..).unwrap_or(&[]));
    let status = if status_line.starts_with("OK") {
        200
    } else {
        502
    };
    Ok(HttpResponse::with_reason(status, &status_line, body))
}

/// Convenience wrapper: spawn an egress node on `host`:`port`.
pub fn spawn_egress(
    host: &Host,
    port: u16,
    profile: EgressProfile,
    resolvers: Vec<SocketAddr>,
) -> Result<(), lazyeye_net::NetError> {
    let listener = host.tcp_listen_any(port)?;
    let host = host.clone();
    spawn(egress_serve(listener, host, profile, resolvers));
    Ok(())
}
