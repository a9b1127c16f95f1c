//! Quickstart: build a tiny dual-stack world, break IPv6, and watch Happy
//! Eyeballs fall back — with the full event log.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use lazy_eye_inspection::prelude::*;
use lazy_eye_inspection::testbed::topology::{default_local_topology, resolver_addr, www};

fn main() {
    // The local testbed: a dual-stack server (DNS on :53, web on :80) and
    // a client host, directly connected — the paper's two-host setup.
    let mut topo = default_local_topology(42);

    // Break IPv6 the way the paper does: tc-netem style delay on the
    // server side.
    topo.server
        .add_egress(NetemRule::family(Family::V6, Netem::delay_ms(400)));
    // Capture is off by default; record the client's packets for the
    // capture view below.
    topo.client.set_capture(true);

    // A straight-from-RFC-8305 Happy Eyeballs client.
    let mut profile = lazy_eye_inspection::clients::figure2_clients()
        .into_iter()
        .find(|c| c.name == "Firefox")
        .expect("profile exists");
    profile.he = HeConfig::rfc8305();

    let client = Client::new(profile, topo.client.clone(), vec![resolver_addr()]);
    let res = topo
        .sim
        .block_on(async move { client.connect_only(&www(), 80).await });

    println!("=== Happy Eyeballs event log ===");
    print!("{}", res.log.dump());

    match res.connection {
        Ok(conn) => println!(
            "\nConnected via {} to {} (CAD observed: {:?})",
            conn.family(),
            conn.remote(),
            res.log.observed_cad()
        ),
        Err(e) => println!("\nConnection failed: {e}"),
    }

    // The packet capture view (the paper's measurement vantage point).
    println!("\n=== Client packet capture (first 12 packets) ===");
    let cap = topo.client.capture();
    for line in cap.dump().lines().take(12) {
        println!("{line}");
    }
    println!(
        "\nCapture-measured CAD: {:?} (exactly the configured 250 ms)",
        cap.connection_attempt_delay()
    );
}
