//! The five registered workloads (the paper's four plus the keystore
//! fleet) as load scenarios, all driven through one generic
//! [`ServiceScenario`].
//!
//! Each workload crate implements [`EnclaveService`]; this module only
//! wraps a service in the calibrate-then-replay [`Scenario`] contract and
//! registers it in [`REGISTRY`], from which [`NAMES`] and the
//! [`by_name_switchless`] lookup derive. Adding a sixth workload is one
//! service impl plus one registry entry — no new scenario struct.

use teenet::driver::AttestService;
use teenet_app::{AppHarness, EnclaveService};
use teenet_interdomain::driver::BgpService;
use teenet_keystore::KeystoreService;
use teenet_mbox::driver::TlsMboxService;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};
use teenet_tor::driver::TorService;

use crate::scenario::{Calibration, Scenario};

/// A load scenario that drives any [`EnclaveService`] through
/// [`AppHarness`] for calibration.
pub struct ServiceScenario<S: EnclaveService> {
    service: S,
    seed: u64,
    mode: TransitionMode,
    backend: TeeBackend,
    switchless: SwitchlessConfig,
}

impl<S: EnclaveService> ServiceScenario<S> {
    /// Wraps `service`, calibrating at `seed` under `mode` against
    /// `backend` with the `switchless` worker-pool configuration.
    pub fn new(
        service: S,
        seed: u64,
        mode: TransitionMode,
        backend: TeeBackend,
        switchless: SwitchlessConfig,
    ) -> Self {
        ServiceScenario {
            service,
            seed,
            mode,
            backend,
            switchless,
        }
    }
}

impl<S: EnclaveService> Scenario for ServiceScenario<S> {
    fn name(&self) -> &'static str {
        self.service.name()
    }

    fn describe(&self) -> &'static str {
        self.service.describe()
    }

    fn calibrate(&mut self) -> Calibration {
        AppHarness::new(self.seed, self.mode, self.backend, self.switchless)
            .calibrate(&mut self.service)
            .expect("calibration cannot fail on an honest deployment")
    }
}

/// One registered workload: its name, listing description, and builder.
pub struct ScenarioEntry {
    /// Stable scenario name (what `loadgen` accepts).
    pub name: &'static str,
    /// One-line description for `loadgen --list`.
    pub describe: &'static str,
    build: fn(u64, TransitionMode, TeeBackend, SwitchlessConfig) -> Box<dyn Scenario>,
}

impl ScenarioEntry {
    /// Builds this entry's scenario, calibrating at `seed` under `mode`
    /// against `backend` with the `switchless` worker-pool configuration.
    pub fn build_switchless(
        &self,
        seed: u64,
        mode: TransitionMode,
        backend: TeeBackend,
        switchless: SwitchlessConfig,
    ) -> Box<dyn Scenario> {
        (self.build)(seed, mode, backend, switchless)
    }
}

/// The [`ScenarioEntry`] builder of every registered service: its
/// default shape, wrapped in a [`ServiceScenario`].
fn build<S: EnclaveService + Default + 'static>(
    seed: u64,
    mode: TransitionMode,
    backend: TeeBackend,
    switchless: SwitchlessConfig,
) -> Box<dyn Scenario> {
    Box::new(ServiceScenario::new(
        S::default(),
        seed,
        mode,
        backend,
        switchless,
    ))
}

/// Every workload `loadgen` can drive, in listing order.
pub const REGISTRY: [ScenarioEntry; 5] = [
    ScenarioEntry {
        name: "attest",
        describe: "remote attestation storm: one Figure-1 attestation per session",
        build: build::<AttestService>,
    },
    ScenarioEntry {
        name: "tls",
        describe: "TLS middlebox record traffic: in-enclave DPI on provisioned sessions",
        build: build::<TlsMboxService>,
    },
    ScenarioEntry {
        name: "tor",
        describe: "Tor circuit + stream traffic through attested SGX onion routers",
        build: build::<TorService>,
    },
    ScenarioEntry {
        name: "bgp",
        describe: "BGP announcement churn against the SGX inter-domain controller",
        build: build::<BgpService>,
    },
    ScenarioEntry {
        name: "keystore",
        describe: "attested coordinator/worker keystore: sealed key churn across an enclave fleet",
        build: build::<KeystoreService>,
    },
];

/// All scenario names `loadgen` accepts, derived from [`REGISTRY`].
pub const NAMES: [&str; REGISTRY.len()] = {
    let mut names = [""; REGISTRY.len()];
    let mut i = 0;
    while i < REGISTRY.len() {
        names[i] = REGISTRY[i].name;
        i += 1;
    }
    names
};

/// Builds the registered scenario called `name` (see
/// [`ScenarioEntry::build_switchless`]); `None` for an unknown name.
pub fn by_name_switchless(
    name: &str,
    seed: u64,
    mode: TransitionMode,
    backend: TeeBackend,
    switchless: SwitchlessConfig,
) -> Option<Box<dyn Scenario>> {
    REGISTRY
        .iter()
        .find(|entry| entry.name == name)
        .map(|entry| entry.build_switchless(seed, mode, backend, switchless))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registered scenario `name` on SGX with the default ring.
    fn on_sgx(name: &str, seed: u64, mode: TransitionMode) -> Option<Box<dyn Scenario>> {
        by_name_switchless(
            name,
            seed,
            mode,
            TeeBackend::Sgx,
            SwitchlessConfig::default(),
        )
    }

    #[test]
    fn every_registered_service_resolves_and_round_trips_its_name() {
        for entry in &REGISTRY {
            let scenario = on_sgx(entry.name, 1, TransitionMode::Classic)
                .expect("registered name must resolve");
            assert_eq!(scenario.name(), entry.name);
            assert_eq!(scenario.describe(), entry.describe);
        }
        assert_eq!(NAMES, ["attest", "tls", "tor", "bgp", "keystore"]);
        assert!(on_sgx("nonesuch", 1, TransitionMode::Classic).is_none());
    }

    #[test]
    fn switchless_mode_tags_the_calibration() {
        let mut s = on_sgx("attest", 1, TransitionMode::Switchless).unwrap();
        let cal = s.calibrate();
        assert_eq!(cal.mode, TransitionMode::Switchless);
        assert_eq!(cal.backend, TeeBackend::Sgx);
        assert_eq!(cal.ops.len(), 1);
        assert_eq!(cal.ops[0].name, "attest");
    }

    #[test]
    fn backend_tags_and_reprices_the_calibration() {
        let classic = TransitionMode::Classic;
        let default = SwitchlessConfig::default();
        let mut sgx = by_name_switchless("attest", 1, classic, TeeBackend::Sgx, default).unwrap();
        let mut vm = by_name_switchless("attest", 1, classic, TeeBackend::VmTee, default).unwrap();
        let sgx_cal = sgx.calibrate();
        let vm_cal = vm.calibrate();
        assert_eq!(vm_cal.backend, TeeBackend::VmTee);
        assert_eq!(vm_cal.ops.len(), sgx_cal.ops.len());
        // Same protocol, different boundary pricing: the session scripts
        // must not cost the same, and each prices under its own model.
        assert_ne!(
            sgx_cal.session_server_cost().cycles(&sgx_cal.cost_model()),
            vm_cal.session_server_cost().cycles(&vm_cal.cost_model()),
        );
    }

    #[test]
    fn by_name_switchless_tags_the_calibration_and_charges_idle_spins() {
        use teenet_sgx::WorkerScaling;
        let cfg = SwitchlessConfig {
            workers: 3,
            spin_budget: 4,
            scaling: WorkerScaling::Fixed,
            ..SwitchlessConfig::default()
        };
        let mut multi =
            by_name_switchless("tls", 1, TransitionMode::Switchless, TeeBackend::Sgx, cfg).unwrap();
        let multi_cal = multi.calibrate();
        assert_eq!(multi_cal.switchless, cfg);
        let multi_t = multi_cal.session_transitions();
        assert!(multi_t.elided > 0, "the ring must still elide crossings");
        assert!(
            multi_t.idle_spins > 0,
            "idle workers with a spin budget must be charged"
        );

        // The default single-worker/zero-spin shape burns nothing, and its
        // calibration is the default ring's.
        let mut single = on_sgx("tls", 1, TransitionMode::Switchless).unwrap();
        let single_cal = single.calibrate();
        assert_eq!(single_cal.switchless, SwitchlessConfig::default());
        assert_eq!(single_cal.session_transitions().idle_spins, 0);
        // Idle spins cost normal instructions: the over-provisioned pool
        // must be strictly more expensive server-side.
        assert!(
            multi_cal.session_server_cost().normal_instr
                > single_cal.session_server_cost().normal_instr
        );
    }

    #[test]
    fn default_shapes_calibrate() {
        let mut tls = on_sgx("tls", 2, TransitionMode::Classic).unwrap();
        let cal = tls.calibrate();
        assert_eq!(cal.ops.len(), 4);
        assert!(cal.ops.iter().all(|op| op.name == "record"));
        assert!(cal.ops[0].request_bytes > 1024);

        let mut tor = on_sgx("tor", 3, TransitionMode::Classic).unwrap();
        let cal = tor.calibrate();
        assert_eq!(cal.ops.len(), 5);
        assert_eq!(cal.ops[0].name, "extend");
        assert!(cal.setup.sgx_instr > 0);

        let mut bgp = on_sgx("bgp", 4, TransitionMode::Classic).unwrap();
        let cal = bgp.calibrate();
        assert_eq!(cal.ops.len(), 2);
        assert_eq!(cal.ops[0].name, "announce");
        assert_eq!(cal.ops[1].name, "pull");
        assert!(cal.ops[0].server.normal_instr > cal.ops[1].server.normal_instr);

        let mut keystore = on_sgx("keystore", 5, TransitionMode::Classic).unwrap();
        let cal = keystore.calibrate();
        // attest + provision + 4×release + revoke.
        assert_eq!(cal.ops.len(), 7);
        assert_eq!(cal.ops[0].name, "attest");
        assert_eq!(cal.ops[6].name, "revoke");
        // Fleet bootstrap (4 attestations + provisions) dominates setup.
        assert!(cal.setup.sgx_instr > 0);
    }

    #[test]
    fn every_calibration_holds_its_ops_at_exact_capacity() {
        // A replay holds its calibration for its whole length: each op
        // keeps its frame sizes in 32 bits, and `ops` keeps no slack.
        assert!(std::mem::size_of::<crate::OpProfile>() <= 88);
        for entry in &REGISTRY {
            for mode in [TransitionMode::Classic, TransitionMode::Switchless] {
                for backend in [TeeBackend::Sgx, TeeBackend::VmTee] {
                    let cal = entry
                        .build_switchless(1, mode, backend, SwitchlessConfig::default())
                        .calibrate();
                    assert_eq!(
                        cal.ops.len(),
                        cal.ops.capacity(),
                        "{} {mode:?} {backend:?}",
                        entry.name
                    );
                }
            }
        }
    }
}
