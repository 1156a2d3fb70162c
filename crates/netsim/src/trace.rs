//! Packet tracing, with a pcap-compatible dump.
//!
//! Every packet event the simulator processes can be recorded; the trace
//! doubles as a debugging aid and as a libpcap-format dump (the smoltcp
//! examples' `--pcap` option) that external tools can open.

use crate::packet::{NodeId, Packet};
use crate::time::SimTime;

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Handed to the network by the sender.
    Sent,
    /// Arrived at the destination inbox.
    Delivered,
    /// Dropped by fault injection or missing route.
    Dropped,
    /// Payload corrupted in flight (still delivered).
    Corrupted,
    /// Duplicated in flight.
    Duplicated,
}

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event happened.
    pub time: SimTime,
    /// The event kind.
    pub event: TraceEvent,
    /// Packet id.
    pub packet_id: u64,
    /// Sender.
    pub src: NodeId,
    /// Destination.
    pub dst: NodeId,
    /// Length on the wire (payload plus unmaterialised padding).
    pub len: usize,
}

/// An in-memory packet trace.
#[derive(Debug)]
pub struct Trace {
    records: Vec<TraceRecord>,
    /// Snapshots for pcap export of every packet that reached an inbox —
    /// corrupted and duplicated deliveries included: when, the materialised
    /// bytes, and the length on the wire.
    payloads: Vec<(SimTime, Vec<u8>, usize)>,
    capture_payloads: bool,
    enabled: bool,
}

impl Default for Trace {
    fn default() -> Self {
        Trace {
            records: Vec::new(),
            payloads: Vec::new(),
            capture_payloads: false,
            enabled: true,
        }
    }
}

impl Trace {
    /// An empty trace that records metadata only.
    pub fn new() -> Self {
        Trace::default()
    }

    /// An empty trace that also snapshots payloads for pcap export.
    pub fn with_payloads() -> Self {
        Trace {
            capture_payloads: true,
            ..Default::default()
        }
    }

    /// Turns recording on or off. A disabled trace discards events
    /// instead of accumulating a record per packet — the difference
    /// between O(total packets) and O(1) memory on a long run. Already-
    /// recorded events are kept.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether events are currently being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Discards all recorded events and payload snapshots, keeping the
    /// capture mode and enabled flag (and the buffers' capacity). Used
    /// when a network is rewound for reuse.
    pub fn clear(&mut self) {
        self.records.clear();
        self.payloads.clear();
    }

    /// Records an event (dropped silently while disabled). `packet` is
    /// handed in when the event put it in an inbox; a payload-capturing
    /// trace snapshots it whatever the delivery is labelled.
    ///
    /// Out of line and cold: the simulator's per-packet paths check
    /// [`Trace::is_enabled`] first and build the record only past it, so
    /// a disabled trace costs them a load and a branch.
    #[cold]
    #[inline(never)]
    pub fn record(&mut self, record: TraceRecord, packet: Option<&Packet>) {
        if !self.enabled {
            return;
        }
        if let (true, Some(p)) = (self.capture_payloads, packet) {
            self.payloads
                .push((record.time, p.payload.to_vec(), p.len()));
        }
        self.records.push(record);
    }

    /// All records.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Count of records matching `event`.
    pub fn count(&self, event: TraceEvent) -> usize {
        self.records.iter().filter(|r| r.event == event).count()
    }

    /// Serialises delivered payloads as a libpcap capture file
    /// (LINKTYPE_USER0 = 147, since our frames are simulator datagrams,
    /// not Ethernet). A record's captured length is the materialised
    /// payload; its original length is the packet's length on the wire.
    pub fn to_pcap(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24 + self.payloads.len() * 64);
        // Global header: magic, version 2.4, tz 0, sigfigs 0, snaplen, network.
        out.extend_from_slice(&0xa1b2c3d4u32.to_le_bytes());
        out.extend_from_slice(&2u16.to_le_bytes());
        out.extend_from_slice(&4u16.to_le_bytes());
        out.extend_from_slice(&0i32.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&65_535u32.to_le_bytes());
        out.extend_from_slice(&147u32.to_le_bytes());
        for (time, payload, wire_len) in &self.payloads {
            let ns = time.as_nanos();
            let secs = (ns / 1_000_000_000) as u32;
            let micros = ((ns % 1_000_000_000) / 1_000) as u32;
            out.extend_from_slice(&secs.to_le_bytes());
            out.extend_from_slice(&micros.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&u32::try_from(*wire_len).unwrap_or(u32::MAX).to_le_bytes());
            out.extend_from_slice(payload);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn rec(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            time: SimTime(1_500_000),
            event,
            packet_id: 1,
            src: NodeId(0),
            dst: NodeId(1),
            len: 4,
        }
    }

    fn pkt() -> Packet {
        Packet {
            id: 1,
            src: NodeId(0),
            dst: NodeId(1),
            payload: Bytes::from_static(b"data"),
            pad: 0,
        }
    }

    #[test]
    fn records_and_counts() {
        let mut t = Trace::new();
        t.record(rec(TraceEvent::Sent), None);
        t.record(rec(TraceEvent::Delivered), Some(&pkt()));
        t.record(rec(TraceEvent::Dropped), None);
        assert_eq!(t.records().len(), 3);
        assert_eq!(t.count(TraceEvent::Delivered), 1);
        assert_eq!(t.count(TraceEvent::Corrupted), 0);
    }

    #[test]
    fn pcap_header_and_framing() {
        let mut t = Trace::with_payloads();
        t.record(rec(TraceEvent::Delivered), Some(&pkt()));
        let pcap = t.to_pcap();
        // Global header is 24 bytes; one record header is 16 + 4 payload.
        assert_eq!(pcap.len(), 24 + 16 + 4);
        assert_eq!(&pcap[..4], &0xa1b2c3d4u32.to_le_bytes());
        // Linktype USER0.
        assert_eq!(&pcap[20..24], &147u32.to_le_bytes());
        // Captured and original length fields.
        assert_eq!(&pcap[32..36], &4u32.to_le_bytes());
        assert_eq!(&pcap[36..40], &4u32.to_le_bytes());
        assert_eq!(&pcap[40..44], b"data");
    }

    #[test]
    fn pcap_captures_the_payload_and_reports_the_wire_length() {
        let mut t = Trace::with_payloads();
        let padded = Packet { pad: 96, ..pkt() };
        t.record(rec(TraceEvent::Delivered), Some(&padded));
        let pcap = t.to_pcap();
        assert_eq!(pcap.len(), 24 + 16 + 4, "padding is not written out");
        assert_eq!(&pcap[32..36], &4u32.to_le_bytes(), "incl_len");
        assert_eq!(&pcap[36..40], &100u32.to_le_bytes(), "orig_len");
    }

    #[test]
    fn disabled_trace_discards_events() {
        let mut t = Trace::with_payloads();
        t.record(rec(TraceEvent::Sent), None);
        t.set_enabled(false);
        assert!(!t.is_enabled());
        t.record(rec(TraceEvent::Delivered), Some(&pkt()));
        assert_eq!(t.records().len(), 1, "prior records kept, new discarded");
        assert_eq!(t.to_pcap().len(), 24, "no payload snapshot while off");
        t.set_enabled(true);
        t.record(rec(TraceEvent::Delivered), Some(&pkt()));
        assert_eq!(t.records().len(), 2);
    }

    #[test]
    fn metadata_only_trace_has_empty_pcap_body() {
        let mut t = Trace::new();
        t.record(rec(TraceEvent::Delivered), Some(&pkt()));
        assert_eq!(t.to_pcap().len(), 24);
    }
}
