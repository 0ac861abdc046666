//! Transport front-ends: newline-delimited JSON over TCP or stdio.
//!
//! The TCP front-end is the event-driven reactor in `reactor.rs`: one
//! thread multiplexes every connection through OS readiness polling and
//! dispatches through [`Service::handle_async`]. The stdio front-end
//! answers one line at a time through the blocking [`Service::handle`].

use crate::reactor::Reactor;
use crate::service::Service;
use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

/// Binds `addr` and serves until [`Service::initiate_shutdown`] fires.
/// Returns the bound address (useful with port 0) and the reactor
/// thread handle; joining it guarantees no further connections are
/// accepted and every accepted connection has drained.
///
/// The listener, the poller, the waker and their registrations are set
/// up on the calling thread, so any failure is returned here and no
/// thread is started.
pub fn spawn_tcp(
    service: Arc<Service>,
    addr: &str,
) -> std::io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let reactor = Reactor::new(service, listener)?;
    let handle = std::thread::Builder::new()
        .name("cgra-serve-reactor".to_owned())
        .spawn(move || reactor.run())?;
    Ok((local, handle))
}

/// Serves requests from stdin, answering on stdout, until EOF or a
/// `shutdown` command. The single-process analogue of the TCP mode —
/// useful for scripting (`printf '…' | cgra-serve --stdio`).
pub fn serve_stdio(service: &Arc<Service>) {
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        if line.trim().is_empty() {
            continue;
        }
        let response = service.handle(&line);
        let mut out = stdout.lock();
        if out
            .write_all(response.as_bytes())
            .and_then(|()| out.write_all(b"\n"))
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
        if service.is_shutting_down() {
            break;
        }
    }
}
