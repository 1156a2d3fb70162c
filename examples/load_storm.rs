//! Load-generation walkthrough: stress the attestation service with an
//! open-loop storm, compare a lossy closed-loop run, then replay the
//! same storm through the sharded model and show the report is identical
//! no matter how many OS threads carry it.
//!
//! ```text
//! cargo run -p teenet-bench --example load_storm
//! ```

use teenet::driver::AttestService;
use teenet_load::{LoadConfig, LoadMode, LoadRunner, Scenario, ServiceScenario};
use teenet_netsim::fault::FaultConfig;
use teenet_sgx::{SwitchlessConfig, TeeBackend, TransitionMode};

fn main() {
    // Calibrate once against the real enclave stack: one full Figure-1
    // attestation is executed and its instruction counters and wire sizes
    // captured. Everything after this line runs on virtual time.
    let mut scenario = ServiceScenario::new(
        AttestService::default(),
        42,
        TransitionMode::Classic,
        TeeBackend::Sgx,
        SwitchlessConfig::default(),
    );
    let calibration = scenario.calibrate();
    println!(
        "calibrated: {} op(s), server cost {} SGX + {} normal instructions/session\n",
        calibration.ops.len(),
        calibration.session_server_cost().sgx_instr,
        calibration.session_server_cost().normal_instr,
    );

    // An open-loop Poisson storm at ~50% of calibrated capacity.
    let config = LoadConfig::new(2_000, 42, LoadMode::Open { rate_per_sec: None });
    let report = LoadRunner::new(config).run(scenario.name(), &calibration);
    print!("{}", report.text());

    // The same workload closed-loop over a 1%-lossy network: retransmission
    // keeps sessions completing, at a latency cost visible in the tail.
    let mut config = LoadConfig::new(2_000, 42, LoadMode::Closed { concurrency: 8 });
    config.faults = FaultConfig {
        drop_chance: 0.01,
        ..FaultConfig::default()
    };
    let report = LoadRunner::new(config).run(scenario.name(), &calibration);
    println!();
    print!("{}", report.text());

    // Sharded replay: sessions become pure functions of (seed, index) and
    // split across OS threads. The report bytes cannot depend on the
    // thread count — replaying on 1 and 4 shards proves it.
    let mut config = LoadConfig::new(2_000, 42, LoadMode::Closed { concurrency: 8 });
    config.faults = FaultConfig {
        drop_chance: 0.01,
        ..FaultConfig::default()
    };
    let runner = LoadRunner::new(config);
    let one = runner.run_sharded(scenario.name(), &calibration, 1);
    let four = runner.run_sharded(scenario.name(), &calibration, 4);
    assert_eq!(
        one.json(),
        four.json(),
        "sharded replay must be thread-count independent"
    );
    println!();
    println!("sharded replay on 1 and 4 threads: byte-identical reports");
    print!("{}", four.text());
}
