//! The dense statevector kernels against the preserved full-scan reference
//! kernels on the 20-qubit Quantum Volume cell (depth 20, seed 7): the pair
//! and quad walkers must reproduce every amplitude bit for bit on a
//! 2²⁰-amplitude state, far beyond the unit tests' 8-qubit gate zoo.
//!
//! Unoptimized, the reference kernels take over a minute on this cell, so
//! debug builds skip it; CI runs it with
//! `cargo test --release -p snailqc-circuit --test qv20_reference`.

use snailqc_circuit::simulate;
use snailqc_circuit::simulator::reference;

#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
fn qv20_dense_kernels_match_the_reference_kernels_bitwise() {
    let circuit = snailqc_workloads::quantum_volume(20, 20, 7);
    let old = reference::simulate(&circuit);
    let new = simulate(&circuit);
    assert_eq!(old.amplitudes().len(), new.amplitudes().len());
    let drifted = old
        .amplitudes()
        .iter()
        .zip(new.amplitudes())
        .position(|(a, b)| a.re.to_bits() != b.re.to_bits() || a.im.to_bits() != b.im.to_bits());
    assert_eq!(
        drifted, None,
        "dense kernels drifted from the reference kernels on QV-20"
    );
}
