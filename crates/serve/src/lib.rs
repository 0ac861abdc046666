//! # cgra-serve — a mapping service daemon
//!
//! CGRA mapping workloads are repetitive: design-space exploration,
//! CI regression sweeps and interactive tooling all re-map the same
//! kernels against the same fabrics with the same options. This crate
//! turns the one-shot [`cgra_mapper`] pipeline into a long-running
//! service that exploits the repetition:
//!
//! * **content-addressed result cache** — requests are keyed by stable,
//!   order-independent content hashes of the DFG and architecture plus
//!   a fingerprint of every mapper option, so an identical question is
//!   answered from the cache byte-for-byte, with near-zero solve time
//!   (optionally persisted across restarts under `results/cache/`);
//! * **warm MRRG reuse** — one [`cgra_mapper::Session`] per distinct
//!   architecture keeps built MRRGs alive across requests, so a miss
//!   against a known fabric skips graph construction;
//! * **bounded worker pool with graceful degradation** — a fixed number
//!   of solver threads, a hard admission queue (over-capacity requests
//!   get a typed `overloaded` error, never unbounded backlog), a
//!   server-side deadline ceiling, and cooperative cancellation: on
//!   shutdown, in-flight solves return a clean timeout report instead
//!   of being killed.
//!
//! The protocol is newline-delimited JSON over TCP or stdio (see
//! [`wire`]); graphs travel in the repo's existing text formats, so
//! every artifact on the wire is also usable with the offline tools.
//! Everything is `std`-only — no async runtime, no serde. The crate is
//! unix-only: its TCP transport is a readiness-polling reactor (epoll on
//! Linux, `poll(2)` on other unixes) and the cache segment is read
//! through `mmap`.
//!
//! # Quick start
//!
//! ```
//! use cgra_serve::{server, service::{Service, ServiceConfig}, client::Client};
//!
//! let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
//! let (addr, accept) = server::spawn_tcp(std::sync::Arc::clone(&service), "127.0.0.1:0").unwrap();
//!
//! let mut client = Client::connect(&addr.to_string()).unwrap();
//! let dfg = cgra_dfg::text::print(&cgra_dfg::benchmarks::accum());
//! let arch = cgra_arch::text::print(&cgra_arch::families::grid(
//!     cgra_arch::families::GridParams::paper(
//!         cgra_arch::families::FuMix::Homogeneous,
//!         cgra_arch::families::Interconnect::Diagonal,
//!     ),
//! ));
//! let first = client.map(&dfg, &arch, 1, None).unwrap();
//! let second = client.map(&dfg, &arch, 1, None).unwrap();
//! assert!(!first.served.unwrap().cache_hit);
//! assert!(second.served.unwrap().cache_hit);
//! assert_eq!(first.result_text, second.result_text); // byte-identical replay
//!
//! client.shutdown().unwrap();
//! accept.join().unwrap();
//! service.join_workers();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

// The transport is a readiness-polling reactor over unix sockets and the
// cache segment is read through `mmap`; there is no other transport or
// segment reader to fall back to.
#[cfg(not(target_family = "unix"))]
compile_error!("cgra-serve is unix-only (epoll on Linux, poll(2) on other unixes)");

pub mod cache;
pub mod client;
pub mod fault;
pub mod json;
mod reactor;
pub mod router;
pub mod segment;
pub mod server;
pub mod service;
pub mod wire;

pub use client::Client;
pub use json::Json;
pub use router::{Router, RouterConfig};
pub use service::{Service, ServiceConfig};
pub use wire::{ErrorKind, Request, RequestBody, Served, WireError};
