//! Onion routers: cell processing, circuit switching, exit streams.
//!
//! A relay keys its circuit table by `(neighbor, link-local circuit id)`;
//! forward cells have one onion layer stripped, backward cells gain one.
//! A relay with no next hop is the terminal of the circuit and parses the
//! relay payload (EXTEND/BEGIN/DATA/…).
//!
//! [`RelayBehavior`] models the attacks of §3.2: a **BadApple** exit
//! records the plaintext it relays ("when the malicious Tor node is
//! selected as an exit node, an attacker can modify the plain-text"); a
//! **Snooper** middle logs circuit metadata. These behavioural changes are
//! exactly what SGX attestation catches — the tampered binary measures
//! differently (see `deployment`).

use std::collections::HashMap;

use teenet_crypto::dh::{DhGroup, DhKeyPair};
use teenet_crypto::{BigUint, SecureRng};
use teenet_netsim::NodeId;

use crate::cell::{Cell, CellCmd, RelayCmd, RelayPayload, PAYLOAD_LEN};
use crate::crypto::{seal_relay, verify_relay_digest, HopKeys};
use crate::error::{Result, TorError};
use crate::network::{frame_cell, frame_stream, parse_stream};

/// How a relay behaves (its *code identity*).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayBehavior {
    /// Faithful implementation.
    Honest,
    /// Malicious exit: records relayed plaintext (the "one bad apple"
    /// attack's vantage point).
    BadApple,
    /// Malicious middle: records circuit metadata (who talks to whom).
    Snooper,
}

struct CircuitState {
    prev: NodeId,
    prev_circ: u32,
    next: Option<(NodeId, u32)>,
    keys: HopKeys,
    /// Set while waiting for CREATED from the next hop during an extend.
    pending_extend: Option<(NodeId, u32)>,
    /// Open stream destination (exit role).
    stream_dest: Option<NodeId>,
}

/// An onion router.
pub struct OnionRouter {
    /// Public relay identifier.
    pub id: u32,
    /// This relay's address in the simulated network.
    pub net_node: NodeId,
    /// Whether the relay allows exit streams.
    pub is_exit: bool,
    /// The behaviour baked into the binary.
    pub behavior: RelayBehavior,
    /// Software version (part of the code identity).
    pub version: u16,
    group: DhGroup,
    rng: SecureRng,
    /// Circuit table keyed by (neighbor, link circuit id).
    circuits: HashMap<(NodeId, u32), u64>,
    states: HashMap<u64, CircuitState>,
    next_internal: u64,
    next_circ_id: u32,
    /// Plaintext recorded by a BadApple exit.
    pub observed_plaintext: Vec<Vec<u8>>,
    /// Metadata recorded by a Snooper (prev node, next node).
    pub observed_metadata: Vec<(NodeId, NodeId)>,
    /// Count of cells this relay processed.
    pub cells_processed: u64,
}

impl OnionRouter {
    /// Creates a relay.
    pub fn new(
        id: u32,
        net_node: NodeId,
        is_exit: bool,
        behavior: RelayBehavior,
        group: DhGroup,
        rng: SecureRng,
    ) -> Self {
        OnionRouter {
            id,
            net_node,
            is_exit,
            behavior,
            version: 1,
            group,
            rng,
            circuits: HashMap::new(),
            states: HashMap::new(),
            next_internal: 0,
            next_circ_id: 0x8000_0000 + id, // relay-chosen ids, distinct space
            observed_plaintext: Vec::new(),
            observed_metadata: Vec::new(),
            cells_processed: 0,
        }
    }

    /// Processes one inbound link message; returns messages to transmit.
    pub fn handle(&mut self, from: NodeId, msg: &[u8]) -> Vec<(NodeId, Vec<u8>)> {
        match msg.first() {
            Some(&crate::network::TAG_CELL) => match Cell::from_bytes(&msg[1..]) {
                Ok(cell) => {
                    self.cells_processed += 1;
                    self.handle_cell(from, cell).unwrap_or_default()
                }
                Err(_) => Vec::new(),
            },
            Some(&crate::network::TAG_STREAM) => self.handle_stream_reply(from, &msg[1..]),
            _ => Vec::new(),
        }
    }

    fn handle_cell(&mut self, from: NodeId, cell: Cell) -> Result<Vec<(NodeId, Vec<u8>)>> {
        match cell.cmd {
            CellCmd::Create => self.on_create(from, cell),
            CellCmd::Created => self.on_created(from, cell),
            CellCmd::Relay => self.on_relay(from, cell),
            CellCmd::Destroy => self.on_destroy(from, cell),
        }
    }

    fn on_create(&mut self, from: NodeId, cell: Cell) -> Result<Vec<(NodeId, Vec<u8>)>> {
        // Payload: u16 length ‖ client DH public value.
        let len = u16::from_be_bytes([cell.payload[0], cell.payload[1]]) as usize;
        if len + 2 > PAYLOAD_LEN {
            return Err(TorError::BadCell("CREATE dh length"));
        }
        let client_pub = BigUint::from_bytes_be(
            cell.payload
                .get(2..2 + len)
                .ok_or(TorError::BadCell("CREATE dh length"))?,
        );
        let keypair = DhKeyPair::generate(&self.group, &mut self.rng)?;
        let shared = keypair.shared_secret(&client_pub)?;
        let keys = HopKeys::derive(&shared)?;

        let internal = self.next_internal;
        self.next_internal += 1;
        self.circuits.insert((from, cell.circ_id), internal);
        self.states.insert(
            internal,
            CircuitState {
                prev: from,
                prev_circ: cell.circ_id,
                next: None,
                keys,
                pending_extend: None,
                stream_dest: None,
            },
        );

        let my_pub = keypair.public_bytes();
        let mut data = Vec::with_capacity(2 + my_pub.len());
        data.extend_from_slice(&(my_pub.len() as u16).to_be_bytes());
        data.extend_from_slice(&my_pub);
        let created = Cell::new(cell.circ_id, CellCmd::Created, &data)?;
        Ok(vec![(from, frame_cell(&created))])
    }

    fn on_created(&mut self, from: NodeId, cell: Cell) -> Result<Vec<(NodeId, Vec<u8>)>> {
        // This is the next hop answering an extend we performed.
        let internal = *self
            .circuits
            .get(&(from, cell.circ_id))
            .ok_or(TorError::UnknownCircuit(cell.circ_id))?;
        let state = self
            .states
            .get_mut(&internal)
            .ok_or(TorError::UnknownCircuit(cell.circ_id))?;
        let (next_node, next_circ) = state
            .pending_extend
            .take()
            .ok_or(TorError::CircuitState("CREATED without pending extend"))?;
        if (next_node, next_circ) != (from, cell.circ_id) {
            return Err(TorError::CircuitState("CREATED from unexpected hop"));
        }
        state.next = Some((next_node, next_circ));
        // Wrap the next hop's DH share into RELAY_EXTENDED for the client.
        let len = u16::from_be_bytes([cell.payload[0], cell.payload[1]]) as usize;
        if 2 + len > cell.payload.len() {
            return Err(TorError::BadCell("CREATED dh length"));
        }
        let payload = RelayPayload::new(
            RelayCmd::Extended,
            cell.payload
                .get(..2 + len)
                .ok_or(TorError::BadCell("CREATED dh length"))?,
        )?;
        let mut sealed = seal_relay(&state.keys, false, &payload);
        state.keys.crypt_backward(&mut sealed);
        let relay_cell = Cell {
            circ_id: state.prev_circ,
            cmd: CellCmd::Relay,
            payload: sealed,
        };
        Ok(vec![(state.prev, frame_cell(&relay_cell))])
    }

    fn on_relay(&mut self, from: NodeId, cell: Cell) -> Result<Vec<(NodeId, Vec<u8>)>> {
        let internal = *self
            .circuits
            .get(&(from, cell.circ_id))
            .ok_or(TorError::UnknownCircuit(cell.circ_id))?;
        let state = self
            .states
            .get_mut(&internal)
            .ok_or(TorError::UnknownCircuit(cell.circ_id))?;

        if from == state.prev {
            // Forward direction: strip one layer.
            let mut payload = cell.payload;
            let ctr = state.keys.fwd_ctr;
            state.keys.crypt_forward(&mut payload);
            // Recognised and authenticated → this relay is the terminal.
            if let Ok(parsed) = RelayPayload::decode(&payload) {
                if verify_relay_digest(&state.keys, true, ctr, &parsed).is_ok() {
                    return self.on_terminal_relay(internal, parsed);
                }
            }
            // Otherwise forward along the circuit.
            let state = self
                .states
                .get_mut(&internal)
                .ok_or(TorError::CircuitState("gone"))?;
            if let Some((next_node, next_circ)) = state.next {
                if self.behavior == RelayBehavior::Snooper {
                    self.observed_metadata.push((state.prev, next_node));
                }
                let fwd = Cell {
                    circ_id: next_circ,
                    cmd: CellCmd::Relay,
                    payload,
                };
                return Ok(vec![(next_node, frame_cell(&fwd))]);
            }
            Err(TorError::DigestMismatch)
        } else {
            // Backward direction: add our layer and pass toward the client.
            let mut payload = cell.payload;
            state.keys.crypt_backward(&mut payload);
            let back = Cell {
                circ_id: state.prev_circ,
                cmd: CellCmd::Relay,
                payload,
            };
            Ok(vec![(state.prev, frame_cell(&back))])
        }
    }

    fn on_terminal_relay(
        &mut self,
        internal: u64,
        payload: RelayPayload,
    ) -> Result<Vec<(NodeId, Vec<u8>)>> {
        match payload.cmd {
            RelayCmd::Extend => {
                // data: next relay net node (u32) ‖ u16 len ‖ client DH pub.
                if payload.data.len() < 6 {
                    return Err(TorError::BadCell("EXTEND payload"));
                }
                let next_node = NodeId(u32::from_be_bytes(
                    payload.data[..4]
                        .try_into()
                        .map_err(|_| TorError::BadCell("EXTEND payload"))?,
                ));
                let circ = self.next_circ_id;
                self.next_circ_id += 1;
                let state = self
                    .states
                    .get_mut(&internal)
                    .ok_or(TorError::CircuitState("gone"))?;
                state.pending_extend = Some((next_node, circ));
                self.circuits.insert((next_node, circ), internal);
                let create = Cell::new(circ, CellCmd::Create, &payload.data[4..])?;
                Ok(vec![(next_node, frame_cell(&create))])
            }
            RelayCmd::Begin => {
                if payload.data.len() < 4 {
                    return Err(TorError::BadCell("BEGIN payload"));
                }
                if !self.is_exit {
                    return self.backward_reply(internal, RelayCmd::End, b"not an exit");
                }
                let dest = NodeId(u32::from_be_bytes(
                    payload.data[..4]
                        .try_into()
                        .map_err(|_| TorError::BadCell("BEGIN payload"))?,
                ));
                let state = self
                    .states
                    .get_mut(&internal)
                    .ok_or(TorError::CircuitState("gone"))?;
                state.stream_dest = Some(dest);
                self.backward_reply(internal, RelayCmd::Connected, b"")
            }
            RelayCmd::Data => {
                if self.behavior == RelayBehavior::BadApple {
                    // The bad-apple vantage: the exit sees plaintext.
                    self.observed_plaintext.push(payload.data.clone());
                }
                let state = self
                    .states
                    .get(&internal)
                    .ok_or(TorError::CircuitState("gone"))?;
                let dest = state
                    .stream_dest
                    .ok_or(TorError::CircuitState("no open stream"))?;
                Ok(vec![(dest, frame_stream(internal, &payload.data))])
            }
            RelayCmd::End => {
                if let Some(state) = self.states.get_mut(&internal) {
                    state.stream_dest = None;
                }
                Ok(Vec::new())
            }
            RelayCmd::Extended | RelayCmd::Connected => {
                Err(TorError::BadCell("client-bound relay command at relay"))
            }
        }
    }

    fn backward_reply(
        &mut self,
        internal: u64,
        cmd: RelayCmd,
        data: &[u8],
    ) -> Result<Vec<(NodeId, Vec<u8>)>> {
        let state = self
            .states
            .get_mut(&internal)
            .ok_or(TorError::CircuitState("gone"))?;
        let payload = RelayPayload::new(cmd, data)?;
        let mut sealed = seal_relay(&state.keys, false, &payload);
        state.keys.crypt_backward(&mut sealed);
        let cell = Cell {
            circ_id: state.prev_circ,
            cmd: CellCmd::Relay,
            payload: sealed,
        };
        Ok(vec![(state.prev, frame_cell(&cell))])
    }

    fn handle_stream_reply(&mut self, from: NodeId, msg: &[u8]) -> Vec<(NodeId, Vec<u8>)> {
        let Some((internal, data)) = parse_stream(msg) else {
            return Vec::new();
        };
        let Some(state) = self.states.get(&internal) else {
            return Vec::new();
        };
        if state.stream_dest != Some(from) {
            return Vec::new(); // stream data from an unexpected source
        }
        if self.behavior == RelayBehavior::BadApple {
            self.observed_plaintext.push(data.to_vec());
        }
        self.backward_reply(internal, RelayCmd::Data, data)
            .unwrap_or_default()
    }

    fn on_destroy(&mut self, from: NodeId, cell: Cell) -> Result<Vec<(NodeId, Vec<u8>)>> {
        let Some(internal) = self.circuits.remove(&(from, cell.circ_id)) else {
            return Ok(Vec::new());
        };
        let Some(state) = self.states.remove(&internal) else {
            return Ok(Vec::new());
        };
        // Propagate teardown away from the sender.
        let mut out = Vec::new();
        if from == state.prev {
            if let Some((next_node, next_circ)) = state.next {
                self.circuits.remove(&(next_node, next_circ));
                let destroy = Cell::new(next_circ, CellCmd::Destroy, b"")?;
                out.push((next_node, frame_cell(&destroy)));
            }
        } else {
            self.circuits.remove(&(state.prev, state.prev_circ));
            let destroy = Cell::new(state.prev_circ, CellCmd::Destroy, b"")?;
            out.push((state.prev, frame_cell(&destroy)));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellCmd};
    use crate::network::frame_cell;

    impl OnionRouter {
        /// Number of live circuits through this relay.
        pub(crate) fn circuit_count(&self) -> usize {
            self.states.len()
        }
    }

    fn relay(id: u32) -> OnionRouter {
        OnionRouter::new(
            id,
            NodeId(100 + id),
            true,
            RelayBehavior::Honest,
            DhGroup::modp768(),
            SecureRng::seed_from_u64(id as u64),
        )
    }

    #[test]
    fn ignores_garbage_frames() {
        let mut r = relay(1);
        assert!(r.handle(NodeId(0), b"").is_empty());
        assert!(r.handle(NodeId(0), &[9, 9, 9]).is_empty());
        assert!(r
            .handle(NodeId(0), &[crate::network::TAG_CELL, 1, 2])
            .is_empty());
        assert_eq!(r.circuit_count(), 0);
    }

    #[test]
    fn relay_cell_on_unknown_circuit_dropped() {
        let mut r = relay(2);
        let cell = Cell::new(42, CellCmd::Relay, b"whatever").unwrap();
        assert!(r.handle(NodeId(0), &frame_cell(&cell)).is_empty());
    }

    #[test]
    fn create_answers_with_created_and_registers_circuit() {
        let mut r = relay(3);
        let group = DhGroup::modp768();
        let mut rng = SecureRng::seed_from_u64(9);
        let dh = DhKeyPair::generate(&group, &mut rng).unwrap();
        let pub_bytes = dh.public_bytes();
        let mut data = Vec::new();
        data.extend_from_slice(&(pub_bytes.len() as u16).to_be_bytes());
        data.extend_from_slice(&pub_bytes);
        let create = Cell::new(7, CellCmd::Create, &data).unwrap();
        let out = r.handle(NodeId(0), &frame_cell(&create));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, NodeId(0));
        let reply = Cell::from_bytes(&out[0].1[1..]).unwrap();
        assert_eq!(reply.cmd, CellCmd::Created);
        assert_eq!(reply.circ_id, 7);
        assert_eq!(r.circuit_count(), 1);
    }

    #[test]
    fn create_with_degenerate_dh_share_rejected() {
        // A zero public value must not produce a circuit (invalid key
        // share attack on the hop exchange).
        let mut r = relay(4);
        let mut data = Vec::new();
        data.extend_from_slice(&1u16.to_be_bytes());
        data.push(0); // public value 0
        let create = Cell::new(8, CellCmd::Create, &data).unwrap();
        let out = r.handle(NodeId(0), &frame_cell(&create));
        assert!(out.is_empty());
        assert_eq!(r.circuit_count(), 0);
    }

    #[test]
    fn oversized_length_field_does_not_panic() {
        // A malicious peer claims a DH share longer than the cell payload;
        // the relay must reject, not panic.
        let mut r = relay(9);
        let mut data = Vec::new();
        data.extend_from_slice(&u16::MAX.to_be_bytes());
        data.extend_from_slice(&[7u8; 64]);
        let create = Cell::new(5, CellCmd::Create, &data).unwrap();
        assert!(r.handle(NodeId(0), &frame_cell(&create)).is_empty());
        assert_eq!(r.circuit_count(), 0);
    }

    #[test]
    fn destroy_unknown_circuit_is_noop() {
        let mut r = relay(5);
        let destroy = Cell::new(99, CellCmd::Destroy, b"").unwrap();
        assert!(r.handle(NodeId(0), &frame_cell(&destroy)).is_empty());
    }

    #[test]
    fn stream_reply_from_wrong_source_ignored() {
        let mut r = relay(6);
        // No circuit, no stream: a stray stream frame goes nowhere.
        let frame = crate::network::frame_stream(3, b"spoofed");
        assert!(r.handle(NodeId(55), &frame).is_empty());
    }
}
