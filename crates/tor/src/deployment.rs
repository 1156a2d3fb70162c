//! The paper's incremental deployment model (§3.2): vanilla Tor, an
//! SGX-enabled directory, incremental SGX onion routers, and the fully
//! SGX-enabled design with DHT membership.
//!
//! Every SGX-capable entity hosts a [`TorServiceEnclave`] whose code image
//! bakes in its behaviour; the Tor foundation certifies the *honest*
//! images ("the Tor foundation publishes a signed certificate of
//! legitimate software that contains the identities"). Attestation against
//! that certificate is what excludes tampered relays and subverted
//! authorities in the respective phases.

// teenet-analyze: allow-file(enclave-index) -- deployment harness: every index is into vectors this file builds itself (one platform per spec relay/authority, gen_range is len-bounded); no wire bytes select an index
use std::collections::HashMap;

use teenet::attest::AttestConfig;
use teenet::identity::{IdentityPolicy, SoftwareCertificate};
use teenet::ledger::{AttestKind, AttestLedger};
use teenet::responder::{attest_enclave, AttestResponder};
use teenet_crypto::dh::DhGroup;
use teenet_crypto::schnorr::{SchnorrGroup, SigningKey};
use teenet_crypto::SecureRng;
use teenet_sgx::{
    deploy_platform, measure_image, EnclaveCtx, EnclaveId, EnclaveProgram, EpidGroup, Measurement,
    SgxError, TeeBackend, TeePlatform,
};

use crate::circuit::TorClient;
use crate::dht::ChordRing;
use crate::directory::{
    form_consensus, AuthorityBehavior, Consensus, DirectoryAuthority, RouterDescriptor, Vote,
};
use crate::error::{Result, TorError};
use crate::network::TorNetwork;
use crate::relay::{OnionRouter, RelayBehavior};

/// The deployment phases, in the paper's order of ease of deployment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// No SGX anywhere (today's Tor, the attack baseline).
    Vanilla,
    /// "SGX-enabled directory": the nine authorities run in enclaves.
    SgxDirectory,
    /// "Incremental addition of SGX-enabled ORs".
    IncrementalOrs,
    /// "Fully SGX-enabled setting": everything attested, DHT membership,
    /// no directory authorities.
    FullSgx,
}

/// The enclave wrapper every SGX-capable Tor service runs.
///
/// Only the attestation surface executes in the emulator; the relay data
/// path is the simulator logic whose *behaviour marker* is part of this
/// code image — so a behavioural modification changes MRENCLAVE, which is
/// the property all the paper's defenses rest on.
pub struct TorServiceEnclave {
    kind: &'static str,
    version: u16,
    behavior_marker: Vec<u8>,
    responder: AttestResponder,
    /// In-enclave secret state (e.g. a directory authority's signing key).
    state: Vec<u8>,
    /// Monotonic epoch of the current state. Every SEAL_STATE bumps it and
    /// bakes it into the sealed blob; RESTORE_STATE rejects any blob whose
    /// epoch is not strictly greater — a host replaying an old (sealed,
    /// authentic) snapshot cannot roll the authority's keys back.
    epoch: u64,
}

/// The payload inside a SEAL_STATE blob: monotonic epoch + state bytes.
struct StateSnapshot {
    epoch: u64,
    state: Vec<u8>,
}

impl StateSnapshot {
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.state.len());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.state);
        out
    }

    fn parse(bytes: &[u8]) -> core::result::Result<StateSnapshot, SgxError> {
        if bytes.len() < 8 {
            return Err(SgxError::EcallRejected("sealed state snapshot too short"));
        }
        let mut epoch_bytes = [0u8; 8];
        epoch_bytes.copy_from_slice(&bytes[..8]);
        Ok(StateSnapshot {
            epoch: u64::from_le_bytes(epoch_bytes),
            state: bytes[8..].to_vec(),
        })
    }
}

impl TorServiceEnclave {
    /// Wraps a service of `kind` ("relay" / "authority") with a behaviour
    /// marker.
    pub fn new(
        kind: &'static str,
        version: u16,
        behavior_marker: Vec<u8>,
        config: AttestConfig,
    ) -> Self {
        TorServiceEnclave {
            kind,
            version,
            behavior_marker,
            responder: AttestResponder::new(config),
            state: Vec::new(),
            epoch: 0,
        }
    }

    fn image(kind: &str, version: u16, marker: &[u8]) -> Vec<u8> {
        let mut image = Vec::new();
        image.extend_from_slice(b"teenet-tor-");
        image.extend_from_slice(kind.as_bytes());
        image.extend_from_slice(&version.to_le_bytes());
        image.extend_from_slice(marker);
        image
    }

    /// Measurement of the honest build of `kind` at `version`.
    pub fn honest_measurement(kind: &str, version: u16) -> Measurement {
        measure_image(&Self::image(kind, version, b""))
    }
}

/// The marker a behaviour compiles down to (empty = honest).
pub fn behavior_marker(behavior: RelayBehavior) -> Vec<u8> {
    match behavior {
        RelayBehavior::Honest => Vec::new(),
        RelayBehavior::BadApple => b"patched: log exit plaintext".to_vec(),
        RelayBehavior::Snooper => b"patched: log circuit metadata".to_vec(),
    }
}

/// The marker an authority behaviour compiles down to.
pub fn authority_marker(behavior: &AuthorityBehavior) -> Vec<u8> {
    match behavior {
        AuthorityBehavior::Honest => Vec::new(),
        AuthorityBehavior::Compromised { .. } => b"patched: subverted voting".to_vec(),
    }
}

impl EnclaveProgram for TorServiceEnclave {
    fn code_image(&self) -> Vec<u8> {
        Self::image(self.kind, self.version, &self.behavior_marker)
    }

    fn ecall(
        &mut self,
        ctx: &mut EnclaveCtx<'_>,
        fn_id: u64,
        input: &[u8],
    ) -> core::result::Result<Vec<u8>, SgxError> {
        match fn_id {
            0 => self.responder.handle_begin(ctx, input),
            1 => self.responder.handle_finish(ctx, input),
            // SEAL_STATE: store `input` as secret state and return the
            // sealed blob for the host to persist across restarts —
            // "they can keep authority keys and list of Tor nodes inside
            // the enclaves" (§3.2). The blob carries the bumped epoch so
            // RESTORE_STATE can reject rolled-back snapshots.
            2 => {
                self.epoch += 1;
                self.state = input.to_vec();
                let snap = StateSnapshot {
                    epoch: self.epoch,
                    state: input.to_vec(),
                };
                let blob = ctx.seal(
                    teenet_sgx::keys::KeyRequest::SealEnclave,
                    b"tor-service-state",
                    &snap.to_bytes(),
                );
                Ok(blob.to_bytes())
            }
            // RESTORE_STATE: unseal a blob produced by SEAL_STATE on this
            // platform by this exact code identity, rejecting any snapshot
            // whose epoch does not strictly advance (rollback/replay of an
            // authentic but stale blob). Returns the state length (the
            // secret itself never leaves).
            3 => {
                let blob = teenet_sgx::seal::SealedBlob::from_bytes(input)?;
                let plain = ctx.unseal(teenet_sgx::keys::KeyRequest::SealEnclave, &blob)?;
                let snap = StateSnapshot::parse(&plain)?;
                if snap.epoch <= self.epoch {
                    return Err(SgxError::EcallRejected(
                        "stale sealed state (rollback rejected)",
                    ));
                }
                let len = snap.state.len() as u32;
                self.epoch = snap.epoch;
                self.state = snap.state;
                Ok(len.to_le_bytes().to_vec())
            }
            // STATE_DIGEST: a public commitment to the current state (for
            // tests to confirm the restore without exporting the secret).
            4 => Ok(teenet_crypto::sha256::sha256(&self.state).to_vec()),
            _ => Err(SgxError::EcallRejected("unknown tor-service fn")),
        }
    }
}

/// Specification of a Tor deployment to build.
#[derive(Clone)]
pub struct TorSpec {
    /// Number of onion routers.
    pub n_relays: usize,
    /// The first `n_exits` relays allow exit streams.
    pub n_exits: usize,
    /// Number of directory authorities (ignored in [`Phase::FullSgx`]).
    pub n_authorities: usize,
    /// Relay indices running the BadApple build.
    pub bad_apples: Vec<usize>,
    /// Relay indices running the Snooper build.
    pub snoopers: Vec<usize>,
    /// Authority indices that are subverted (admit `phantom_relay`, drop
    /// relay 1).
    pub compromised_authorities: Vec<usize>,
    /// In [`Phase::IncrementalOrs`]: the first `sgx_relay_count` relays are
    /// SGX-capable. [`Phase::FullSgx`] treats all relays as SGX.
    pub sgx_relay_count: usize,
    /// Deployment phase.
    pub phase: Phase,
    /// Master seed.
    pub seed: u64,
    /// DH group for circuit building.
    pub circuit_group: DhGroup,
    /// Attestation configuration.
    pub attest: AttestConfig,
    /// The TEE backend every TEE-capable relay and authority deploys on.
    pub backend: TeeBackend,
}

impl TorSpec {
    /// A small, fast (768-bit groups) deployment for tests.
    pub fn fast(phase: Phase, seed: u64) -> Self {
        TorSpec {
            n_relays: 6,
            n_exits: 3,
            n_authorities: 3,
            bad_apples: Vec::new(),
            snoopers: Vec::new(),
            compromised_authorities: Vec::new(),
            sgx_relay_count: 6,
            phase,
            seed,
            circuit_group: DhGroup::modp768(),
            attest: AttestConfig::fast(),
            backend: TeeBackend::Sgx,
        }
    }
}

/// Outcome of the admission process for one deployment.
pub struct Admission {
    /// Relays usable by clients.
    pub admitted: Vec<RouterDescriptor>,
    /// The signed consensus (directory phases).
    pub consensus: Option<Consensus>,
    /// The membership ring (fully-SGX phase).
    pub dht: Option<ChordRing>,
    /// Relays that failed attestation.
    pub rejected: Vec<u32>,
}

/// A built Tor deployment under a given phase.
pub struct TorDeployment {
    /// The specification it was built from.
    pub spec: TorSpec,
    /// Relays, clients and servers over the packet simulator.
    pub network: TorNetwork,
    /// Directory authorities (empty in FullSgx).
    pub authorities: Vec<DirectoryAuthority>,
    /// TEE platform per relay (None = not TEE-capable in this phase).
    pub relay_platforms: Vec<Option<(Box<dyn TeePlatform>, EnclaveId)>>,
    /// TEE platform per authority.
    pub authority_platforms: Vec<Option<(Box<dyn TeePlatform>, EnclaveId)>>,
    /// The attestation group.
    pub epid: EpidGroup,
    /// Foundation-signed certificate of honest builds.
    pub certificate: SoftwareCertificate,
    foundation_public: teenet_crypto::schnorr::VerifyingKey,
    /// Attestation accounting (Table 3).
    pub ledger: AttestLedger,
    /// Index of the built-in client.
    pub client: usize,
    /// Index of the built-in destination server.
    pub server: usize,
    rng: SecureRng,
}

impl TorDeployment {
    /// Builds the deployment (platforms, enclaves, network, certificate).
    pub fn build(spec: TorSpec) -> Result<Self> {
        let mut rng = SecureRng::seed_from_u64(spec.seed);
        let epid = EpidGroup::new(2015, &mut rng)?;
        let foundation = SigningKey::generate(&SchnorrGroup::small(), &mut rng)?;
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng)?;

        // The foundation certifies the honest relay and authority builds.
        let certificate = SoftwareCertificate::issue(
            "tor-honest-builds-v1",
            1,
            vec![
                TorServiceEnclave::honest_measurement("relay", 1),
                TorServiceEnclave::honest_measurement("authority", 1),
            ],
            &foundation,
            &mut rng,
        )?;

        let mut network = TorNetwork::new(spec.seed);
        let mut relay_platforms = Vec::with_capacity(spec.n_relays);
        for i in 0..spec.n_relays {
            let behavior = if spec.bad_apples.contains(&i) {
                RelayBehavior::BadApple
            } else if spec.snoopers.contains(&i) {
                RelayBehavior::Snooper
            } else {
                RelayBehavior::Honest
            };
            let group = spec.circuit_group.clone();
            let relay_rng = rng.fork(&[b"relay".as_slice(), &i.to_le_bytes()].concat());
            let is_exit = i < spec.n_exits;
            network.add_relay(|node| {
                OnionRouter::new(i as u32, node, is_exit, behavior, group, relay_rng)
            });

            let sgx_capable = match spec.phase {
                Phase::Vanilla | Phase::SgxDirectory => false,
                Phase::IncrementalOrs => i < spec.sgx_relay_count,
                Phase::FullSgx => true,
            };
            if sgx_capable {
                let mut platform = deploy_platform(
                    spec.backend,
                    &format!("relay-{i}"),
                    &epid,
                    spec.seed + 100 + i as u64,
                )?;
                let program = TorServiceEnclave::new(
                    "relay",
                    1,
                    behavior_marker(behavior),
                    spec.attest.clone(),
                );
                let enclave = platform.create_signed(Box::new(program), &author, 1)?;
                relay_platforms.push(Some((platform, enclave)));
            } else {
                relay_platforms.push(None);
            }
        }

        let client_group = spec.circuit_group.clone();
        let client_rng = rng.fork(b"client");
        let client = network.add_client(|node| TorClient::new(node, client_group, client_rng));
        let server = network.add_server();

        // Authorities (none in the fully SGX design).
        let mut authorities = Vec::new();
        let mut authority_platforms = Vec::new();
        if spec.phase != Phase::FullSgx {
            for i in 0..spec.n_authorities {
                let behavior = if spec.compromised_authorities.contains(&i) {
                    AuthorityBehavior::Compromised {
                        admit: vec![PHANTOM_RELAY],
                        drop: vec![1],
                    }
                } else {
                    AuthorityBehavior::Honest
                };
                let authority = DirectoryAuthority::new(i as u32, behavior.clone(), &mut rng)?;
                let sgx_capable = spec.phase != Phase::Vanilla;
                if sgx_capable {
                    let mut platform = deploy_platform(
                        spec.backend,
                        &format!("authority-{i}"),
                        &epid,
                        spec.seed + 500 + i as u64,
                    )?;
                    let program = TorServiceEnclave::new(
                        "authority",
                        1,
                        authority_marker(&behavior),
                        spec.attest.clone(),
                    );
                    let enclave = platform.create_signed(Box::new(program), &author, 1)?;
                    authority_platforms.push(Some((platform, enclave)));
                } else {
                    authority_platforms.push(None);
                }
                authorities.push(authority);
            }
        }

        let foundation_public = foundation.verifying_key();
        Ok(TorDeployment {
            spec,
            network,
            authorities,
            relay_platforms,
            authority_platforms,
            epid,
            certificate,
            foundation_public,
            ledger: AttestLedger::new(),
            client,
            server,
            rng,
        })
    }

    /// Attests the enclave of relay `i`; returns whether it passed.
    fn attest_relay(&mut self, challenger: u64, i: usize) -> bool {
        let Some((platform, enclave)) = self.relay_platforms[i].as_mut() else {
            return false;
        };
        self.ledger
            .record(AttestKind::TorRouterAdmission, challenger, i as u64);
        attest_enclave(
            IdentityPolicy::Certified {
                authority: self.foundation_public.clone(),
            },
            self.spec.attest.clone(),
            &mut self.rng,
            platform.as_mut(),
            *enclave,
            0,
            1,
            &self.epid.public_key(),
            Some(&self.certificate),
        )
        .is_ok()
    }

    /// Attests the enclave of authority `i` on behalf of `challenger`.
    fn attest_authority(&mut self, kind: AttestKind, challenger: u64, i: usize) -> bool {
        let Some((platform, enclave)) = self.authority_platforms[i].as_mut() else {
            return false;
        };
        self.ledger.record(kind, challenger, 10_000 + i as u64);
        attest_enclave(
            IdentityPolicy::Certified {
                authority: self.foundation_public.clone(),
            },
            self.spec.attest.clone(),
            &mut self.rng,
            platform.as_mut(),
            *enclave,
            0,
            1,
            &self.epid.public_key(),
            Some(&self.certificate),
        )
        .is_ok()
    }

    /// Router descriptors as self-published.
    pub fn descriptors(&self) -> Vec<RouterDescriptor> {
        self.network
            .relays
            .iter()
            .enumerate()
            .map(|(i, r)| RouterDescriptor {
                relay_id: r.id,
                net_node: r.net_node,
                is_exit: r.is_exit,
                version: r.version,
                measurement: self.relay_platforms[i]
                    .as_ref()
                    .and_then(|(p, e)| p.measurement_of(*e).ok()),
            })
            .collect()
    }

    /// Runs the phase-appropriate admission process.
    pub fn run_admission(&mut self) -> Result<Admission> {
        let descriptors = self.descriptors();
        match self.spec.phase {
            Phase::Vanilla => self.admission_with_directories(descriptors, false, false),
            Phase::SgxDirectory => self.admission_with_directories(descriptors, true, false),
            Phase::IncrementalOrs => self.admission_with_directories(descriptors, true, true),
            Phase::FullSgx => self.admission_full_sgx(descriptors),
        }
    }

    fn admission_with_directories(
        &mut self,
        descriptors: Vec<RouterDescriptor>,
        sgx_directory: bool,
        attest_relays: bool,
    ) -> Result<Admission> {
        // Which authorities get to vote?
        let mut voters: Vec<usize> = (0..self.authorities.len()).collect();
        if sgx_directory {
            // Authorities mutually attest; those failing (tampered voting
            // logic) are excluded from the consensus process.
            let mut passed = vec![true; self.authorities.len()];
            for a in 0..self.authorities.len() {
                for (b, pass) in passed.iter_mut().enumerate() {
                    if a != b && !self.attest_authority(AttestKind::TorAuthorityPeer, a as u64, b) {
                        *pass = false;
                    }
                }
            }
            voters.retain(|&i| passed[i]);
            // Clients verify the directory too ("Tor network (Client):
            // number of authority nodes", Table 3).
            for i in 0..self.authorities.len() {
                self.attest_authority(AttestKind::TorClientCircuit, 90_000, i);
            }
        }

        // Attestation verdicts for relays (incremental phase).
        let mut rejected = Vec::new();
        let verdicts: Option<HashMap<u32, bool>> = if attest_relays {
            let mut map = HashMap::new();
            for i in 0..self.network.relays.len() {
                if self.relay_platforms[i].is_some() {
                    // The lowest-id voting authority performs admission.
                    let challenger = voters.first().copied().unwrap_or(0) as u64;
                    let ok = self.attest_relay(challenger, i);
                    map.insert(i as u32, ok);
                    if !ok {
                        rejected.push(i as u32);
                    }
                }
            }
            Some(map)
        } else {
            None
        };

        let mut votes: Vec<Vote> = Vec::with_capacity(voters.len());
        for &i in &voters {
            votes.push(self.authorities[i].vote(&descriptors, verdicts.as_ref(), &mut self.rng)?);
        }
        let consensus = form_consensus(&descriptors, votes);
        let keys: HashMap<u32, teenet_crypto::schnorr::VerifyingKey> = voters
            .iter()
            .map(|&i| (self.authorities[i].id, self.authorities[i].public_key()))
            .collect();
        consensus.validate(&keys, voters.len().div_ceil(2))?;
        Ok(Admission {
            admitted: consensus.routers.clone(),
            consensus: Some(consensus),
            dht: None,
            rejected,
        })
    }

    fn admission_full_sgx(&mut self, descriptors: Vec<RouterDescriptor>) -> Result<Admission> {
        // No directory: every relay is attested directly (here by the
        // client; "problematic Tor nodes are excluded during the remote
        // attestation") and admitted members form a Chord ring.
        let mut ring = ChordRing::new();
        let mut admitted = Vec::new();
        let mut rejected = Vec::new();
        for (i, desc) in descriptors.iter().enumerate() {
            let ok = self.attest_relay(90_000, i);
            self.ledger
                .record(AttestKind::TorClientCircuit, 90_000, i as u64);
            if ok {
                ring.join(desc.relay_id);
                admitted.push(desc.clone());
            } else {
                rejected.push(desc.relay_id);
            }
        }
        Ok(Admission {
            admitted,
            consensus: None,
            dht: Some(ring),
            rejected,
        })
    }

    /// Selects a (guard, middle, exit) path from admitted relays.
    ///
    /// `force_exit`: use this relay as exit if admitted (attack scenarios
    /// model the unlucky selection directly).
    pub fn select_path(
        &mut self,
        admission: &Admission,
        force_exit: Option<u32>,
    ) -> Result<Vec<teenet_netsim::NodeId>> {
        let exits: Vec<&RouterDescriptor> =
            admission.admitted.iter().filter(|d| d.is_exit).collect();
        if exits.is_empty() {
            return Err(TorError::NoPath("no admitted exits"));
        }
        let exit = match force_exit {
            Some(id) => *exits
                .iter()
                .find(|d| d.relay_id == id)
                .ok_or(TorError::NoPath("forced exit not admitted"))?,
            None => exits[self.rng.gen_range(exits.len() as u64) as usize],
        };
        let others: Vec<&RouterDescriptor> = admission
            .admitted
            .iter()
            .filter(|d| d.relay_id != exit.relay_id)
            .collect();
        if others.len() < 2 {
            return Err(TorError::NoPath("not enough relays"));
        }
        let guard = others[self.rng.gen_range(others.len() as u64) as usize];
        let middle = loop {
            let m = others[self.rng.gen_range(others.len() as u64) as usize];
            if m.relay_id != guard.relay_id {
                break m;
            }
        };
        Ok(vec![guard.net_node, middle.net_node, exit.net_node])
    }

    /// Builds a circuit along `path` and exchanges `data` with the
    /// built-in echo server; returns the reply the client received.
    pub fn exchange(&mut self, path: Vec<teenet_netsim::NodeId>, data: &[u8]) -> Result<Vec<u8>> {
        let client_node = self.network.clients[self.client].net_node;
        let server_node = self.network.servers[self.server].net_node;
        let (circ, msgs) = self.network.clients[self.client].open_circuit(path)?;
        self.network.transmit(client_node, msgs);
        if !self.network.pump(200) {
            return Err(TorError::CircuitState("network did not quiesce"));
        }
        if !self.network.clients[self.client].is_ready(circ) {
            return Err(TorError::CircuitState("circuit failed to build"));
        }
        let msgs = self.network.clients[self.client].begin(circ, server_node)?;
        self.network.transmit(client_node, msgs);
        self.network.pump(200);
        let msgs = self.network.clients[self.client].send_data(circ, data)?;
        self.network.transmit(client_node, msgs);
        self.network.pump(200);
        let received = self.network.clients[self.client].received_data(circ);
        received
            .last()
            .map(|d| d.to_vec())
            .ok_or(TorError::CircuitState("no reply received"))
    }
}

/// The relay id compromised authorities try to force-admit (no descriptor
/// exists for it, modelling an attacker-controlled phantom).
pub const PHANTOM_RELAY: u32 = 9_999;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vanilla_admits_everyone() {
        let mut dep = TorDeployment::build(TorSpec::fast(Phase::Vanilla, 1)).unwrap();
        let admission = dep.run_admission().unwrap();
        assert_eq!(admission.admitted.len(), 6);
        assert!(admission.consensus.is_some());
        assert!(admission.dht.is_none());
        assert_eq!(dep.ledger.total(), 0, "no attestations in vanilla Tor");
    }

    #[test]
    fn vanilla_circuit_works() {
        let mut dep = TorDeployment::build(TorSpec::fast(Phase::Vanilla, 2)).unwrap();
        let admission = dep.run_admission().unwrap();
        let path = dep.select_path(&admission, None).unwrap();
        let reply = dep.exchange(path, b"hello tor").unwrap();
        assert_eq!(reply, b"echo:hello tor");
    }

    #[test]
    fn sgx_directory_counts_attestations() {
        let mut dep = TorDeployment::build(TorSpec::fast(Phase::SgxDirectory, 3)).unwrap();
        dep.run_admission().unwrap();
        // 3 authorities mutually attest: 3*2 = 6 peer attestations, plus
        // the client attesting each of the 3.
        assert_eq!(dep.ledger.count(AttestKind::TorAuthorityPeer), 6);
        assert_eq!(dep.ledger.count(AttestKind::TorClientCircuit), 3);
    }

    #[test]
    fn compromised_authority_excluded_in_sgx_directory() {
        let mut spec = TorSpec::fast(Phase::SgxDirectory, 4);
        spec.compromised_authorities = vec![0];
        let mut dep = TorDeployment::build(spec).unwrap();
        let admission = dep.run_admission().unwrap();
        // The subverted authority could not drop relay 1: its tampered
        // enclave failed attestation and its vote was never counted.
        assert!(admission.admitted.iter().any(|d| d.relay_id == 1));
        assert!(!admission
            .admitted
            .iter()
            .any(|d| d.relay_id == PHANTOM_RELAY));
    }

    #[test]
    fn incremental_rejects_tampered_sgx_relay() {
        let mut spec = TorSpec::fast(Phase::IncrementalOrs, 5);
        spec.bad_apples = vec![0]; // an exit running the BadApple build
        let mut dep = TorDeployment::build(spec).unwrap();
        let admission = dep.run_admission().unwrap();
        assert!(admission.rejected.contains(&0));
        assert!(!admission.admitted.iter().any(|d| d.relay_id == 0));
        // Honest relays pass and are auto-admitted.
        assert!(admission.admitted.iter().any(|d| d.relay_id == 1));
    }

    #[test]
    fn incremental_nonsgx_malicious_relay_still_admitted() {
        // The interim-deployment tension the paper flags: a malicious
        // relay that is NOT SGX-capable is still admitted by the old
        // manual-trust path.
        let mut spec = TorSpec::fast(Phase::IncrementalOrs, 6);
        spec.sgx_relay_count = 3; // relays 3..6 are legacy
        spec.bad_apples = vec![4]; // legacy malicious relay
        let mut dep = TorDeployment::build(spec).unwrap();
        let admission = dep.run_admission().unwrap();
        assert!(admission.admitted.iter().any(|d| d.relay_id == 4));
    }

    #[test]
    fn full_sgx_uses_dht_and_excludes_malicious() {
        let mut spec = TorSpec::fast(Phase::FullSgx, 7);
        spec.bad_apples = vec![0];
        let mut dep = TorDeployment::build(spec).unwrap();
        let admission = dep.run_admission().unwrap();
        assert!(admission.consensus.is_none(), "no directory in full SGX");
        let ring = admission.dht.as_ref().unwrap();
        assert_eq!(ring.len(), 5);
        assert!(!ring.contains(0));
        assert!(admission.rejected.contains(&0));
        // Lookups work among members.
        let member = ring.members()[0];
        let (owner, _) = ring.lookup(member, 0x1234_5678).unwrap();
        assert!(ring.contains(owner));
    }

    #[test]
    fn full_sgx_circuit_through_attested_relays() {
        let mut dep = TorDeployment::build(TorSpec::fast(Phase::FullSgx, 8)).unwrap();
        let admission = dep.run_admission().unwrap();
        let path = dep.select_path(&admission, None).unwrap();
        let reply = dep.exchange(path, b"fully attested").unwrap();
        assert_eq!(reply, b"echo:fully attested");
    }

    #[test]
    fn attestation_counts_scale_with_network_size() {
        // Table 3's point: attestations ∝ network size.
        let mut small = TorSpec::fast(Phase::FullSgx, 9);
        small.n_relays = 4;
        small.n_exits = 2;
        let mut big = TorSpec::fast(Phase::FullSgx, 9);
        big.n_relays = 8;
        big.n_exits = 4;
        let mut d1 = TorDeployment::build(small).unwrap();
        d1.run_admission().unwrap();
        let mut d2 = TorDeployment::build(big).unwrap();
        d2.run_admission().unwrap();
        assert_eq!(
            d2.ledger.count(AttestKind::TorRouterAdmission),
            2 * d1.ledger.count(AttestKind::TorRouterAdmission)
        );
    }

    #[test]
    fn forced_exit_requires_admission() {
        let mut spec = TorSpec::fast(Phase::FullSgx, 10);
        spec.bad_apples = vec![0];
        let mut dep = TorDeployment::build(spec).unwrap();
        let admission = dep.run_admission().unwrap();
        // The rejected bad apple cannot be forced into a path.
        assert!(dep.select_path(&admission, Some(0)).is_err());
    }
}

#[cfg(test)]
mod sealing_tests {
    use super::*;
    use teenet_crypto::sha256::sha256;

    fn sgx_platform(seed: u64) -> (Box<dyn TeePlatform>, EnclaveId, EpidGroup, SecureRng) {
        let mut rng = SecureRng::seed_from_u64(seed);
        let epid = EpidGroup::new(9, &mut rng).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let mut platform = deploy_platform(TeeBackend::Sgx, "authority-host", &epid, seed).unwrap();
        let enclave = platform
            .create_signed(
                Box::new(TorServiceEnclave::new(
                    "authority",
                    1,
                    Vec::new(),
                    AttestConfig::fast(),
                )),
                &author,
                1,
            )
            .unwrap();
        (platform, enclave, epid, rng)
    }

    #[test]
    fn authority_key_survives_restart_via_sealing() {
        let (mut platform, enclave, _epid, mut rng) = sgx_platform(71);
        let mut authority_key = vec![0u8; 64];
        rng.fill_bytes(&mut authority_key);

        // Seal inside the enclave; the host keeps only the blob.
        let blob = platform.ecall_nohost(enclave, 2, &authority_key).unwrap();
        assert!(
            !blob
                .windows(authority_key.len())
                .any(|w| w == authority_key.as_slice()),
            "the key must not appear in the blob"
        );

        // "Restart": tear the enclave down, load the identical build.
        platform.destroy_enclave(enclave).unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let enclave2 = platform
            .create_signed(
                Box::new(TorServiceEnclave::new(
                    "authority",
                    1,
                    Vec::new(),
                    AttestConfig::fast(),
                )),
                &author,
                1,
            )
            .unwrap();
        let len = platform.ecall_nohost(enclave2, 3, &blob).unwrap();
        assert_eq!(u32::from_le_bytes(len.try_into().unwrap()), 64);
        // The restored state matches (checked via a public digest).
        let digest = platform.ecall_nohost(enclave2, 4, &[]).unwrap();
        assert_eq!(digest, sha256(&authority_key).to_vec());
    }

    #[test]
    fn stale_sealed_state_is_rejected_as_rollback() {
        let (mut platform, enclave, _epid, _rng) = sgx_platform(73);
        // Two generations of state: the host keeps both sealed blobs.
        let old_blob = platform
            .ecall_nohost(enclave, 2, b"signing key v1")
            .unwrap();
        let new_blob = platform
            .ecall_nohost(enclave, 2, b"signing key v2")
            .unwrap();

        // Restoring the current generation over itself is a replay: the
        // epoch does not advance, so the enclave refuses.
        assert!(platform.ecall_nohost(enclave, 3, &new_blob).is_err());

        // A fresh instance accepts the latest blob once...
        let (mut p2, e2, _epid2, _rng2) = sgx_platform(73);
        let len = p2.ecall_nohost(e2, 3, &new_blob).unwrap();
        assert_eq!(u32::from_le_bytes(len.try_into().unwrap()), 14);
        let digest = p2.ecall_nohost(e2, 4, &[]).unwrap();
        assert_eq!(digest, sha256(b"signing key v2").to_vec());

        // ...then rejects the older generation: an authentic blob, sealed
        // by this very code on this very platform, but stale.
        assert!(p2.ecall_nohost(e2, 3, &old_blob).is_err());
        // State is untouched by the failed rollback.
        let digest = p2.ecall_nohost(e2, 4, &[]).unwrap();
        assert_eq!(digest, sha256(b"signing key v2").to_vec());
    }

    #[test]
    fn sealed_state_unusable_on_other_platform() {
        let (mut p1, e1, epid, mut rng) = sgx_platform(72);
        let blob = p1.ecall_nohost(e1, 2, b"authority secret").unwrap();
        // Same code, different machine: the device key differs.
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let mut p2 = deploy_platform(TeeBackend::Sgx, "stolen-disk-host", &epid, 999).unwrap();
        let e2 = p2
            .create_signed(
                Box::new(TorServiceEnclave::new(
                    "authority",
                    1,
                    Vec::new(),
                    AttestConfig::fast(),
                )),
                &author,
                1,
            )
            .unwrap();
        assert!(p2.ecall_nohost(e2, 3, &blob).is_err());
    }

    #[test]
    fn sealed_state_unusable_by_different_code() {
        // A tampered build (different MRENCLAVE) cannot unseal the
        // authority's state even on the same platform.
        let (mut platform, enclave, _epid, mut rng) = sgx_platform(73);
        let blob = platform
            .ecall_nohost(enclave, 2, b"keys + OR list")
            .unwrap();
        let author = SigningKey::generate(&SchnorrGroup::small(), &mut rng).unwrap();
        let evil = platform
            .create_signed(
                Box::new(TorServiceEnclave::new(
                    "authority",
                    1,
                    b"patched: subverted voting".to_vec(),
                    AttestConfig::fast(),
                )),
                &author,
                1,
            )
            .unwrap();
        assert!(platform.ecall_nohost(evil, 3, &blob).is_err());
    }
}
