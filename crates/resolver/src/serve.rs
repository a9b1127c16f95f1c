//! Serving recursive resolution to stub clients over UDP.

use std::rc::Rc;

use lazyeye_dns::{Message, Rcode};
use lazyeye_net::UdpSocket;
use lazyeye_sim::spawn;

use crate::recursive::{RecursiveResolver, ResolveError};

/// Serves stub queries on the socket: each query triggers a full iterative
/// resolution and the result is returned with RA set. Queries run
/// concurrently — one slow upstream never blocks the next client, which is
/// exactly the property that lets browsers "delegate their timeouts to the
/// resolver" (§5.2 of the paper).
pub async fn serve_recursive(sock: UdpSocket, resolver: Rc<RecursiveResolver>) {
    let sock = Rc::new(sock);
    loop {
        let Ok((payload, src)) = sock.recv_from().await else {
            return;
        };
        let Ok(query) = Message::decode(&payload) else {
            continue;
        };
        let Some(q) = query.question().cloned() else {
            continue;
        };
        let resolver = Rc::clone(&resolver);
        let sock = Rc::clone(&sock);
        spawn(async move {
            let result = resolver.resolve(&q.name, q.qtype).await;
            let mut resp = match result {
                Ok(res) => {
                    let mut m = Message::response_to(&query, res.rcode, false);
                    m.answers = res.records;
                    m
                }
                Err(ResolveError::Timeout) | Err(ResolveError::NoServers) => {
                    Message::response_to(&query, Rcode::ServFail, false)
                }
                Err(_) => Message::response_to(&query, Rcode::ServFail, false),
            };
            resp.header.ra = true;
            let _ = sock.send_to(resp.to_bytes(), src);
        });
    }
}
