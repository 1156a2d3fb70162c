//! Reproduces **Table 2**: number of instructions for a single packet
//! transmission from inside an enclave — 1 packet vs a 100-packet batch,
//! with and without symmetric encryption — followed by the modelled
//! amortisation sweep over batch sizes 1–100.
//!
//! Run: `cargo run --release -p teenet-bench --bin table2`

use teenet::fmt;
use teenet_bench::{measure_packet_send, BATCH_SWEEP};

fn main() {
    let one_plain = measure_packet_send(1, false, 1);
    let one_crypto = measure_packet_send(1, true, 1);
    let batch_plain = measure_packet_send(100, false, 1);
    let batch_crypto = measure_packet_send(100, true, 1);

    println!("Table 2: Number of instructions of a single packet transmission");
    println!("(paper values: 1 pkt 6 SGX, 13K/97K normal; 100 pkts 204 SGX, 136K/972K normal)");
    println!();
    println!("               |  SGX (1 packet)     |  SGX (100 packets)  |");
    println!("               | w/o crypto   crypto | w/o crypto   crypto |");
    println!(
        "SGX(U) inst.   | {:>10} {:>8} | {:>10} {:>8} |",
        one_plain.sgx_instr, one_crypto.sgx_instr, batch_plain.sgx_instr, batch_crypto.sgx_instr
    );
    println!(
        "Normal inst.   | {:>10} {:>8} | {:>10} {:>8} |",
        fmt::instr(one_plain.normal_instr),
        fmt::instr(one_crypto.normal_instr),
        fmt::instr(batch_plain.normal_instr),
        fmt::instr(batch_crypto.normal_instr)
    );
    println!();
    let per_packet_single = one_plain.normal_instr;
    let per_packet_batched = batch_plain.normal_instr / 100;
    println!(
        "Amortisation: {} normal instructions for a lone packet vs {} per packet in a 100-batch ({}x better)",
        fmt::instr(per_packet_single),
        fmt::instr(per_packet_batched),
        per_packet_single / per_packet_batched.max(1)
    );

    println!();
    println!("Batch sweep (modelled, per packet; SGX(U) is for the whole batch):");
    println!(" batch | SGX(U) | normal w/o crypto | normal crypto");
    for n in BATCH_SWEEP {
        let plain = measure_packet_send(n, false, 1);
        let crypto = measure_packet_send(n, true, 1);
        println!(
            " {n:>5} | {:>6} | {:>17} | {:>13}",
            plain.sgx_instr,
            plain.normal_instr / u64::from(n),
            crypto.normal_instr / u64::from(n)
        );
    }
}
