#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # teenet-netsim
//!
//! A deterministic discrete-event network simulator — the transport
//! substrate under the case studies of the HotNets '15 TEE-networking
//! reproduction.
//!
//! Design follows the event-driven poll model of embedded network stacks
//! (smoltcp): no threads, no wall clock, explicit progression, so every
//! experiment replays bit-for-bit from its seed. Nodes exchange
//! datagrams only: the case studies frame their own messages (Tor cells,
//! TLS records, load-generator frames) and no transport runs above it.
//! Replay advances one delivery at a time with
//! [`sim::Network::deliver_next`], which lends each packet in place;
//! [`sim::Network::run_to_idle`] instead fills node inboxes for
//! [`sim::Network::recv`], the path Tor's round-based network pump uses.
//!
//! * [`sim::Network`] — nodes, configurable links (latency, bandwidth,
//!   FIFO serialisation), datagram delivery.
//! * [`fault`] — seeded fault injection: drop, corrupt, duplicate,
//!   reorder, token-bucket rate limiting.
//! * [`trace`] — packet tracing with libpcap export.

pub mod fault;
pub mod packet;
mod queue;
pub mod sim;
pub mod time;
pub mod trace;

pub use fault::{FaultConfig, FaultDecision, FaultInjector, RateLimit};
pub use packet::{NodeId, Packet, MTU};
pub use sim::{LinkConfig, LinkStats, Network};
pub use time::{SimDuration, SimTime};
pub use trace::{Trace, TraceEvent, TraceRecord};
