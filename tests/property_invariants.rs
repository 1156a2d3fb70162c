//! Property-based invariants across the workspace: onion-layer algebra at
//! arbitrary depths, channel and record-layer round trips, DHT lookup
//! correctness, and parser robustness against arbitrary bytes (no panics,
//! no false accepts). Datagram delivery under faults is netsim's own
//! property (`sim::tests::link_stats_track_fault_outcomes`).

use proptest::prelude::*;
use teenet::channel::SecureChannel;
use teenet_crypto::SecureRng;
use teenet_tls::record::{DirectionKeys, RecordProtection};
use teenet_tls::CipherSuite;
use teenet_tor::cell::PAYLOAD_LEN;
use teenet_tor::crypto::HopKeys;
use teenet_tor::dht::ChordRing;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Onion layering: encrypt through N hops client-side, strip through
    /// the same N hops relay-side, recover the payload bit for bit; any
    /// prefix of strips yields garbage.
    #[test]
    fn onion_layers_compose_at_any_depth(
        payload in proptest::array::uniform32(any::<u8>()),
        n_hops in 1usize..6,
        key_seed in any::<u8>(),
    ) {
        let mut client_keys: Vec<HopKeys> = (0..n_hops)
            .map(|i| HopKeys::derive(&[key_seed.wrapping_add(i as u8 + 1); 32]).unwrap())
            .collect();
        let mut relay_keys: Vec<HopKeys> = (0..n_hops)
            .map(|i| HopKeys::derive(&[key_seed.wrapping_add(i as u8 + 1); 32]).unwrap())
            .collect();
        let mut cell = [0u8; PAYLOAD_LEN];
        cell[..32].copy_from_slice(&payload);
        let original = cell;
        for hop in client_keys.iter_mut().rev() {
            hop.crypt_forward(&mut cell);
        }
        for (i, hop) in relay_keys.iter_mut().enumerate() {
            if i + 1 < n_hops {
                prop_assert_ne!(cell, original, "payload visible before last hop");
            }
            hop.crypt_forward(&mut cell);
        }
        prop_assert_eq!(cell, original);
    }

    /// Secure channels deliver arbitrary message sequences in order, and
    /// any single-bit flip is rejected.
    #[test]
    fn channel_roundtrip_and_tamper(
        msgs in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..200), 1..8),
        flip_byte in any::<u8>(),
    ) {
        let shared = b"proptest shared secret";
        let mut tx = SecureChannel::from_shared_secret(shared, b"ctx", true).unwrap();
        let mut rx = SecureChannel::from_shared_secret(shared, b"ctx", false).unwrap();
        for msg in &msgs {
            let sealed = tx.seal(msg);
            prop_assert_eq!(&rx.open(&sealed).unwrap(), msg);
        }
        let mut sealed = tx.seal(b"tamper target");
        let idx = flip_byte as usize % sealed.len();
        sealed[idx] ^= 1;
        prop_assert!(rx.open(&sealed).is_err());
    }

    /// Record layer: arbitrary payloads round-trip under both suites.
    #[test]
    fn record_layer_roundtrip(
        payload in proptest::collection::vec(any::<u8>(), 0..2000),
        suite_pick in any::<bool>(),
    ) {
        let suite = if suite_pick {
            CipherSuite::Aes128CtrHmacSha256
        } else {
            CipherSuite::ChaCha20HmacSha256
        };
        let keys = DirectionKeys {
            enc_key: vec![9u8; suite.key_len()],
            mac_key: [3u8; 32],
        };
        let mut tx = RecordProtection::new(suite, keys.clone());
        let mut rx = RecordProtection::new(suite, keys);
        let rec = tx.seal(&payload).unwrap();
        prop_assert_eq!(rx.open(&rec).unwrap(), payload);
    }

    /// Chord: for any member set and any key, greedy finger lookup from
    /// any start agrees with the ring successor.
    #[test]
    fn chord_lookup_agrees_with_owner(
        members in proptest::collection::btree_set(0u32..500, 1..40),
        key in any::<u64>(),
    ) {
        let mut ring = ChordRing::new();
        for &m in &members {
            ring.join(m);
        }
        let owner = ring.owner(key).unwrap();
        for &start in members.iter().take(5) {
            let (found, hops) = ring.lookup(start, key).unwrap();
            prop_assert_eq!(found, owner);
            prop_assert!(hops <= members.len());
        }
    }

    /// Parser robustness: arbitrary bytes never panic and are never
    /// accepted as valid structures with inconsistent framing.
    #[test]
    fn parsers_tolerate_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = teenet::attest::AttestRequest::from_bytes(&bytes);
        let _ = teenet::attest::AttestResponse::from_bytes(&bytes);
        let _ = teenet_sgx::Report::from_bytes(&bytes);
        let _ = teenet_sgx::Quote::from_bytes(&bytes);
        let _ = teenet_sgx::seal::SealedBlob::from_bytes(&bytes);
        let _ = teenet_interdomain::LocalPolicy::from_bytes(&bytes);
        let _ = teenet_interdomain::Predicate::from_bytes(&bytes);
        let _ = teenet_interdomain::wire::decode_submission(&bytes);
        let _ = teenet_interdomain::wire::decode_routes(&bytes);
        let _ = teenet_tor::Cell::from_bytes(&bytes);
        let _ = teenet_mbox::ProvisionMsg::from_bytes(&bytes);
    }

    /// Sealing: round trip for arbitrary secrets; arbitrary single-byte
    /// corruption of the blob is always rejected.
    #[test]
    fn sealing_roundtrip_and_corruption(
        secret in proptest::collection::vec(any::<u8>(), 0..500),
        key in proptest::array::uniform32(any::<u8>()),
        flip in any::<u16>(),
    ) {
        let blob = teenet_sgx::seal::seal(&key, b"label", [5u8; 16], &secret);
        prop_assert_eq!(teenet_sgx::seal::unseal(&key, &blob).unwrap(), secret);
        let mut bytes = blob.to_bytes();
        let idx = flip as usize % bytes.len();
        bytes[idx] ^= 1 + (flip >> 8) as u8 % 255;
        if let Ok(parsed) = teenet_sgx::seal::SealedBlob::from_bytes(&bytes) {
            if parsed != blob {
                prop_assert!(teenet_sgx::seal::unseal(&key, &parsed).is_err());
            }
        }
    }

    /// Deterministic RNG forks: same label → same stream, different
    /// labels → different streams (no accidental correlation).
    #[test]
    fn rng_fork_independence(seed in any::<u64>(), la in any::<u8>(), lb in any::<u8>()) {
        let parent = SecureRng::seed_from_u64(seed);
        let mut f1 = parent.fork(&[la]);
        let mut f2 = parent.fork(&[lb]);
        let a: Vec<u64> = (0..4).map(|_| f1.next_u64()).collect();
        let b: Vec<u64> = (0..4).map(|_| f2.next_u64()).collect();
        if la == lb {
            prop_assert_eq!(a, b);
        } else {
            prop_assert_ne!(a, b);
        }
    }
}
