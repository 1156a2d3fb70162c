//! The network substrate under adverse conditions: datagrams over a
//! lossy, corrupting, duplicating, reordering, rate-limited link, each
//! taken off the wire as it arrives, sorted by what befell it and checked
//! against the link's own counters — with a pcap trace of everything that
//! happened.
//!
//! Run: `cargo run --release -p teenet-bench --example fault_injection`

use teenet_netsim::{FaultConfig, LinkConfig, Network, Packet, RateLimit, SimDuration, SimTime};

const DATAGRAMS: usize = 400;
const DATAGRAM_LEN: usize = 256;

fn datagram(i: usize) -> Vec<u8> {
    (0..DATAGRAM_LEN).map(|j| (i * 7 + j) as u8).collect()
}

fn main() {
    let mut net = Network::new(4242);
    net.enable_pcap();
    let alice = net.add_node();
    let bob = net.add_node();
    // A thoroughly hostile link: 15% drop, 15% corruption (the smoltcp
    // README's "good starting values"), duplication, reordering, and a
    // token-bucket shaper.
    net.add_duplex_link(
        alice,
        bob,
        LinkConfig {
            latency: SimDuration::from_millis(3),
            bandwidth_bps: Some(1_000_000),
            faults: FaultConfig {
                drop_chance: 0.15,
                corrupt_chance: 0.15,
                duplicate_chance: 0.10,
                reorder_chance: 0.20,
                max_delay: SimDuration::from_millis(25),
                rate_limit: Some(RateLimit {
                    tokens_per_interval: 64,
                    interval: SimDuration::from_millis(50),
                }),
            },
        },
    );

    // Every copy that reached bob, by packet id, in arrival order.
    let mut arrived = vec![Vec::new(); DATAGRAMS];
    let mut take = |_, p: &Packet| arrived[p.id as usize].push(p.payload.to_vec());
    // One datagram every 700 µs, a little faster than the shaper's 64 per
    // 50 ms, each delivery taken as it arrives.
    for i in 0..DATAGRAMS {
        let at = SimTime::ZERO + SimDuration::from_micros(700 * i as u64);
        while net.next_event_at().is_some_and(|next| next <= at) {
            net.deliver_next(&mut take);
        }
        net.advance_to(at);
        assert_eq!(net.send(alice, bob, datagram(i)), Some(i as u64));
    }
    while net.deliver_next(&mut take).is_some() {}

    let (mut intact, mut corrupted, mut duplicated, mut dropped) = (0, 0, 0, 0);
    for (i, copies) in arrived.iter().enumerate() {
        let sent = datagram(i);
        match copies.as_slice() {
            [] => dropped += 1,
            [one] if *one == sent => intact += 1,
            [_] => corrupted += 1,
            [a, b] if *a == sent && *b == sent => duplicated += 1,
            other => panic!("datagram {i}: {} unexplained copies", other.len()),
        }
    }
    let stats = net.link_stats(alice, bob).expect("linked");
    assert_eq!(
        (stats.sent, stats.dropped, stats.corrupted, stats.duplicated),
        (DATAGRAMS as u64, dropped, corrupted, duplicated),
        "each fate is the link's own count"
    );
    assert_eq!(stats.delivered, intact + corrupted + 2 * duplicated);

    println!(
        "sent {DATAGRAMS} datagrams of {DATAGRAM_LEN} bytes over a hostile link \
         (virtual time elapsed: {})",
        net.now()
    );
    println!(
        "  intact     {intact:>4}  ({} of them held back by the reorder fault)",
        stats.delayed
    );
    println!("  corrupted  {corrupted:>4}  (one bit flipped in each)");
    println!("  duplicated {duplicated:>4}  (two identical copies of each)");
    println!("  dropped    {dropped:>4}  (lost or shaped)");
    println!("every fate matches the link's counters");

    let pcap = net.trace.to_pcap();
    let path = std::env::temp_dir().join("teenet_fault_injection.pcap");
    std::fs::write(&path, &pcap).expect("write pcap");
    println!(
        "pcap capture ({} bytes) written to {} — open it in Wireshark",
        pcap.len(),
        path.display()
    );
}
