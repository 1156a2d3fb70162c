//! Link framing, destination servers, and the network pump that drives a
//! whole Tor deployment over the deterministic simulator.

use teenet_netsim::{LinkConfig, Network, NodeId};

use crate::cell::Cell;
use crate::circuit::TorClient;
use crate::relay::OnionRouter;

/// Link-message tag: a 512-byte cell follows.
pub const TAG_CELL: u8 = 1;
/// Link-message tag: exit↔destination stream data follows.
pub const TAG_STREAM: u8 = 2;

/// Frames a cell for transmission.
pub fn frame_cell(cell: &Cell) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + crate::cell::CELL_LEN);
    out.push(TAG_CELL);
    out.extend_from_slice(&cell.to_bytes());
    out
}

/// Frames stream data with its connection id.
pub fn frame_stream(conn: u64, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + data.len());
    out.push(TAG_STREAM);
    out.extend_from_slice(&conn.to_be_bytes());
    out.extend_from_slice(data);
    out
}

/// Parses the body of a stream frame (after the tag byte).
pub fn parse_stream(body: &[u8]) -> Option<(u64, &[u8])> {
    if body.len() < 8 {
        return None;
    }
    let conn = u64::from_be_bytes(body[..8].try_into().ok()?);
    Some((conn, &body[8..]))
}

/// A destination server that answers each request with
/// `"echo:" ‖ request`.
pub struct EchoServer {
    /// The server's network address.
    pub net_node: NodeId,
    /// Requests observed (plaintext reaches the destination by design).
    pub requests: Vec<Vec<u8>>,
}

impl EchoServer {
    /// Creates a server at `net_node`.
    pub fn new(net_node: NodeId) -> Self {
        EchoServer {
            net_node,
            requests: Vec::new(),
        }
    }

    /// Handles one inbound message.
    pub fn handle(&mut self, from: NodeId, msg: &[u8]) -> Vec<(NodeId, Vec<u8>)> {
        if msg.first() != Some(&TAG_STREAM) {
            return Vec::new();
        }
        let Some((conn, data)) = parse_stream(&msg[1..]) else {
            return Vec::new();
        };
        self.requests.push(data.to_vec());
        let mut reply = b"echo:".to_vec();
        reply.extend_from_slice(data);
        vec![(from, frame_stream(conn, &reply))]
    }
}

#[derive(Clone, Copy)]
enum Entity {
    Relay(usize),
    Client(usize),
    Server(usize),
}

/// A complete simulated Tor network: relays, clients, destination servers,
/// all exchanging link messages over `teenet-netsim`.
pub struct TorNetwork {
    /// The underlying packet network.
    pub net: Network,
    /// Onion routers.
    pub relays: Vec<OnionRouter>,
    /// Clients (onion proxies).
    pub clients: Vec<TorClient>,
    /// Destination servers.
    pub servers: Vec<EchoServer>,
    /// What sits at each network node, indexed by node id: every node is
    /// added with its entity, so the ids are dense.
    entities: Vec<Entity>,
    link: LinkConfig,
}

impl TorNetwork {
    /// An empty network; `seed` drives the simulator.
    pub fn new(seed: u64) -> Self {
        TorNetwork {
            net: Network::new(seed),
            relays: Vec::new(),
            clients: Vec::new(),
            servers: Vec::new(),
            entities: Vec::new(),
            link: LinkConfig::default(),
        }
    }

    /// Sets the link configuration used for subsequently added nodes.
    pub fn set_link_config(&mut self, link: LinkConfig) {
        self.link = link;
    }

    fn add_node(&mut self, entity: Entity) -> NodeId {
        let node = self.net.add_node();
        debug_assert_eq!(node.0 as usize, self.entities.len());
        self.entities.push(entity);
        // Fully connect the newcomer to all existing nodes (overlay links).
        for other in 0..node.0 {
            self.net
                .add_duplex_link(NodeId(other), node, self.link.clone());
        }
        node
    }

    /// Adds a relay built by `make` from its assigned network node.
    pub fn add_relay(&mut self, make: impl FnOnce(NodeId) -> OnionRouter) -> usize {
        let node = self.add_node(Entity::Relay(self.relays.len()));
        let relay = make(node);
        debug_assert_eq!(relay.net_node, node);
        self.relays.push(relay);
        self.relays.len() - 1
    }

    /// Adds a client built by `make` from its assigned network node.
    pub fn add_client(&mut self, make: impl FnOnce(NodeId) -> TorClient) -> usize {
        let node = self.add_node(Entity::Client(self.clients.len()));
        let client = make(node);
        debug_assert_eq!(client.net_node, node);
        self.clients.push(client);
        self.clients.len() - 1
    }

    /// Adds a destination server.
    pub fn add_server(&mut self) -> usize {
        let node = self.add_node(Entity::Server(self.servers.len()));
        self.servers.push(EchoServer::new(node));
        self.servers.len() - 1
    }

    /// Queues outbound messages from an entity.
    pub fn transmit(&mut self, src: NodeId, msgs: Vec<(NodeId, Vec<u8>)>) {
        for (dst, bytes) in msgs {
            self.net.send(src, dst, bytes);
        }
    }

    /// Delivers traffic and dispatches handlers until the network
    /// quiesces or `max_rounds` elapse. Returns `true` on quiescence.
    ///
    /// A round delivers everything in flight into the node inboxes, then
    /// dispatches node by node in ascending id. A handler only sends, so
    /// its output waits for the next round and never joins an inbox that
    /// is being drained.
    pub fn pump(&mut self, max_rounds: usize) -> bool {
        for _ in 0..max_rounds {
            self.net.run_to_idle();
            let mut any = false;
            for i in 0..self.entities.len() {
                let node = NodeId(i as u32);
                while let Some(packet) = self.net.recv(node) {
                    any = true;
                    let outputs = match self.entities[i] {
                        Entity::Relay(i) => self.relays[i].handle(packet.src, &packet.payload),
                        Entity::Client(i) => self.clients[i].handle(packet.src, &packet.payload),
                        Entity::Server(i) => self.servers[i].handle(packet.src, &packet.payload),
                    };
                    self.transmit(node, outputs);
                }
            }
            if !any {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{ClientEvent, TorClient};
    use crate::relay::{OnionRouter, RelayBehavior};
    use teenet_crypto::dh::DhGroup;
    use teenet_crypto::SecureRng;

    fn build_net(n_relays: usize) -> (TorNetwork, Vec<NodeId>, usize, usize) {
        let group = DhGroup::modp768();
        let mut tn = TorNetwork::new(42);
        let mut relay_nodes = Vec::new();
        for i in 0..n_relays {
            let g = group.clone();
            let idx = tn.add_relay(|node| {
                OnionRouter::new(
                    i as u32,
                    node,
                    true,
                    RelayBehavior::Honest,
                    g,
                    SecureRng::seed_from_u64(1000 + i as u64),
                )
            });
            relay_nodes.push(tn.relays[idx].net_node);
        }
        let g = group.clone();
        let client = tn.add_client(|node| TorClient::new(node, g, SecureRng::seed_from_u64(7)));
        let server = tn.add_server();
        (tn, relay_nodes, client, server)
    }

    #[test]
    fn three_hop_circuit_and_stream() {
        let (mut tn, relays, client, server) = build_net(3);
        let server_node = tn.servers[server].net_node;
        let (circ, msgs) = tn.clients[client].open_circuit(relays.clone()).unwrap();
        let src = tn.clients[client].net_node;
        tn.transmit(src, msgs);
        assert!(tn.pump(100), "network must quiesce");
        assert!(
            tn.clients[client].is_ready(circ),
            "events: {:?}",
            tn.clients[client].events
        );

        // Open a stream and send data.
        let msgs = tn.clients[client].begin(circ, server_node).unwrap();
        tn.transmit(src, msgs);
        assert!(tn.pump(100));
        assert!(tn.clients[client]
            .events
            .contains(&ClientEvent::Connected { circ }));

        let msgs = tn.clients[client].send_data(circ, b"GET /index").unwrap();
        tn.transmit(src, msgs);
        assert!(tn.pump(100));
        let got = tn.clients[client].received_data(circ);
        assert_eq!(got, vec![b"echo:GET /index".as_slice()]);
        // The destination saw the plaintext (as it must), relays processed cells.
        assert_eq!(tn.servers[server].requests, vec![b"GET /index".to_vec()]);
        assert!(tn.relays.iter().all(|r| r.cells_processed > 0));
    }

    #[test]
    fn single_hop_circuit() {
        let (mut tn, relays, client, server) = build_net(1);
        let server_node = tn.servers[server].net_node;
        let src = tn.clients[client].net_node;
        let (circ, msgs) = tn.clients[client].open_circuit(vec![relays[0]]).unwrap();
        tn.transmit(src, msgs);
        assert!(tn.pump(50));
        assert!(tn.clients[client].is_ready(circ));
        let msgs = tn.clients[client].begin(circ, server_node).unwrap();
        tn.transmit(src, msgs);
        tn.pump(50);
        let msgs = tn.clients[client].send_data(circ, b"hi").unwrap();
        tn.transmit(src, msgs);
        tn.pump(50);
        assert_eq!(
            tn.clients[client].received_data(circ),
            vec![b"echo:hi".as_slice()]
        );
    }

    #[test]
    fn middle_relay_never_sees_plaintext_metadata_only() {
        let (mut tn, relays, client, server) = build_net(3);
        // Make the middle a snooper: it can log topology but not content.
        tn.relays[1].behavior = RelayBehavior::Snooper;
        let server_node = tn.servers[server].net_node;
        let src = tn.clients[client].net_node;
        let (circ, msgs) = tn.clients[client].open_circuit(relays.clone()).unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        let msgs = tn.clients[client].begin(circ, server_node).unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        let msgs = tn.clients[client]
            .send_data(circ, b"very secret query")
            .unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        // Snooper saw link metadata but no plaintext.
        assert!(!tn.relays[1].observed_metadata.is_empty());
        assert!(tn.relays[1].observed_plaintext.is_empty());
        // Client still got the answer.
        assert_eq!(
            tn.clients[client].received_data(circ),
            vec![b"echo:very secret query".as_slice()]
        );
    }

    #[test]
    fn bad_apple_exit_sees_plaintext_without_sgx() {
        // The attack baseline: a malicious exit records everything.
        let (mut tn, relays, client, server) = build_net(3);
        tn.relays[2].behavior = RelayBehavior::BadApple;
        let server_node = tn.servers[server].net_node;
        let src = tn.clients[client].net_node;
        let (circ, msgs) = tn.clients[client].open_circuit(relays.clone()).unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        let msgs = tn.clients[client].begin(circ, server_node).unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        let msgs = tn.clients[client]
            .send_data(circ, b"password=hunter2")
            .unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        assert!(tn.relays[2]
            .observed_plaintext
            .iter()
            .any(|p| p == b"password=hunter2"));
    }

    #[test]
    fn non_exit_relay_refuses_streams() {
        let (mut tn, relays, client, server) = build_net(3);
        tn.relays[2].is_exit = false;
        let server_node = tn.servers[server].net_node;
        let src = tn.clients[client].net_node;
        let (circ, msgs) = tn.clients[client].open_circuit(relays.clone()).unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        let msgs = tn.clients[client].begin(circ, server_node).unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        assert!(tn.clients[client]
            .events
            .iter()
            .any(|e| matches!(e, ClientEvent::StreamEnd { .. })));
    }

    #[test]
    fn destroy_tears_down_along_path() {
        let (mut tn, relays, client, _) = build_net(3);
        let src = tn.clients[client].net_node;
        let (circ, msgs) = tn.clients[client].open_circuit(relays.clone()).unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        assert!(tn.relays.iter().all(|r| r.circuit_count() == 1));
        let msgs = tn.clients[client].destroy(circ).unwrap();
        tn.transmit(src, msgs);
        tn.pump(100);
        assert!(tn.relays.iter().all(|r| r.circuit_count() == 0));
    }

    #[test]
    fn stream_framing_roundtrip() {
        let framed = frame_stream(0xdead_beef, b"payload");
        assert_eq!(framed[0], TAG_STREAM);
        let (conn, data) = parse_stream(&framed[1..]).unwrap();
        assert_eq!(conn, 0xdead_beef);
        assert_eq!(data, b"payload");
        assert!(parse_stream(&[1, 2, 3]).is_none());
    }
}
