#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-netsim
//!
//! A deterministic discrete-event network simulator — the transport
//! substrate under the case studies of the HotNets '15 TEE-networking
//! reproduction.
//!
//! Design follows the event-driven poll model of embedded network stacks
//! (smoltcp): no threads, no wall clock, explicit [`sim::Network::run_until`]
//! progression, so every experiment replays bit-for-bit from its seed.
//!
//! * [`sim::Network`] — nodes, configurable links (latency, bandwidth,
//!   FIFO serialisation), datagram delivery.
//! * [`fault`] — seeded fault injection: drop, corrupt, duplicate,
//!   reorder, token-bucket rate limiting.
//! * [`stream`] — a reliable, ordered byte stream (ARQ with checksums and
//!   reassembly) for the application protocols that need one.
//! * [`trace`] — packet tracing with libpcap export.

pub mod fault;
pub mod packet;
mod queue;
pub mod sim;
pub mod stream;
pub mod time;
pub mod trace;

pub use fault::{FaultConfig, FaultDecision, FaultInjector, RateLimit};
pub use packet::{NodeId, Packet, MTU};
pub use sim::{LinkConfig, LinkStats, Network};
pub use stream::StreamConn;
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceRecord};
