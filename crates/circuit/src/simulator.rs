//! A dense statevector simulator with pair/quad-iteration kernels.
//!
//! The co-design study itself only needs structural circuit metrics, but a
//! simulator makes the rest of the stack testable: workload generators are
//! checked against known output states and the router's correctness is
//! verified by comparing statevectors before and after SWAP insertion (up to
//! the tracked qubit permutation). States up to [`MAX_DENSE_QUBITS`] qubits
//! are supported; beyond that the stabilizer tableau engine in `snailqc-sim`
//! takes over for Clifford circuits.
//!
//! # Engine design
//!
//! The hot path iterates **directly over amplitude pairs/quads** instead of
//! scanning all `2^n` indices and skipping the 1/2 (or 3/4) that are not run
//! bases. For a gate on bit masks `b_hi > b_lo` the four quad streams are two
//! pairs of contiguous runs of length `b_lo`, so the inner loop is branch-free
//! and cache-blocked by construction. On x86-64 with AVX2 the generic
//! matrix kernels process two amplitudes per 256-bit lane using a
//! mul/permute/addsub sequence that performs *exactly* the scalar operation
//! order per lane (no FMA contraction), so vectorised results are
//! **bitwise identical** to the scalar kernels — and both are bitwise
//! identical to the pre-rewrite full-scan kernels preserved in
//! [`mod@reference`].
//!
//! Diagonal and permutation gates (Z/S/Rz/CZ/CX/SWAP/…) dispatch to
//! specialized kernels that skip the generic 4×4 matmul. To stay bitwise
//! faithful they emulate the `0·a` and `1·a` terms of the full matmul
//! ([`zero-sign emulation`](self#zero-sign-emulation)) instead of dropping
//! them.
//!
//! Above [`PARALLEL_MIN_DIM`] amplitudes, [`ExecMode::Auto`] splits the
//! independent runs across rayon `join` tasks. Each amplitude quad is
//! computed independently with the same per-quad operation order, so the
//! parallel output is bitwise identical to serial execution.
//!
//! # Zero-sign emulation
//!
//! IEEE-754 keeps signed zeros: `0.0 * x` has the sign of `x`, and
//! `(+0.0) + (-0.0) = +0.0`. The old kernels multiplied through exact-zero
//! matrix entries, so their outputs carry zero signs derived from *skipped*
//! amplitudes. The specialized kernels reproduce those signs with cheap
//! sign-bit arithmetic (`zero_mul`/`one_mul`) under the assumption that all
//! amplitudes are finite — which holds for any unitary circuit acting on a
//! normalized state.

use crate::circuit::Circuit;
use crate::gate::Gate;
use snailqc_math::complex::{C64, ONE, ZERO};
use snailqc_math::{Matrix2, Matrix4};
use snailqc_obs as obs;

/// Hard cap on the dense statevector size (`2^28` amplitudes = 4 GiB).
///
/// The pair-iteration kernels keep this comfortably usable on CI-class
/// machines; anything larger must go through the `snailqc-sim` stabilizer
/// engine (Clifford circuits only).
pub const MAX_DENSE_QUBITS: usize = 28;

/// Amplitude-count threshold above which [`ExecMode::Auto`] parallelises
/// (2^22 amplitudes = 64 MiB of state).
pub const PARALLEL_MIN_DIM: usize = 1 << 22;

/// Amplitudes per leaf task when the run space is split across threads.
const PAR_LEAF_AMPS: usize = 1 << 16;

/// Execution strategy for [`StateVector::apply_circuit_mode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Single-threaded.
    Serial,
    /// Force the rayon-join run splitting regardless of state size
    /// (useful for testing the serial/parallel bitwise identity).
    Parallel,
    /// Parallel when the state has at least [`PARALLEL_MIN_DIM`] amplitudes
    /// and more than one hardware thread is available.
    Auto,
}

/// A dense complex statevector over `n` qubits.
///
/// Qubit 0 is the most significant bit of the basis-state index, matching the
/// `|q0 q1 …⟩` labelling used by [`snailqc_math::gates`].
#[derive(Debug, Clone)]
pub struct StateVector {
    num_qubits: usize,
    amplitudes: Vec<C64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    pub fn zero_state(num_qubits: usize) -> Self {
        assert!(
            num_qubits <= MAX_DENSE_QUBITS,
            "statevector simulator limited to MAX_DENSE_QUBITS = {MAX_DENSE_QUBITS} qubits \
             (requested {num_qubits}); use the snailqc-sim stabilizer engine for larger \
             Clifford circuits"
        );
        let mut amplitudes = vec![ZERO; 1 << num_qubits];
        amplitudes[0] = ONE;
        Self {
            num_qubits,
            amplitudes,
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude vector in computational-basis order.
    pub fn amplitudes(&self) -> &[C64] {
        &self.amplitudes
    }

    /// The probability of measuring basis state `index`.
    pub fn probability(&self, index: usize) -> f64 {
        self.amplitudes[index].norm_sqr()
    }

    /// Sum of all probabilities (should be 1 for a normalized state).
    pub fn total_probability(&self) -> f64 {
        self.amplitudes.iter().map(|a| a.norm_sqr()).sum()
    }

    /// `|⟨self|other⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.num_qubits, other.num_qubits);
        let overlap: C64 = self
            .amplitudes
            .iter()
            .zip(other.amplitudes.iter())
            .map(|(a, b)| a.conj() * *b)
            .sum();
        overlap.norm_sqr()
    }

    fn bit_position(&self, qubit: usize) -> usize {
        self.num_qubits - 1 - qubit
    }

    /// Applies a single-qubit unitary to `qubit`.
    pub fn apply_1q(&mut self, m: &Matrix2, qubit: usize) {
        self.apply_1q_mode(m, qubit, false);
    }

    fn apply_1q_mode(&mut self, m: &Matrix2, qubit: usize, parallel: bool) {
        assert!(qubit < self.num_qubits);
        let bit = 1usize << self.bit_position(qubit);
        let m = [m[(0, 0)], m[(0, 1)], m[(1, 0)], m[(1, 1)]];
        kernels::generic_1q(&mut self.amplitudes, bit, &m, parallel);
    }

    /// Applies a two-qubit unitary to `(q0, q1)` where `q0` is the most
    /// significant operand of the 4×4 matrix.
    pub fn apply_2q(&mut self, m: &Matrix4, q0: usize, q1: usize) {
        self.apply_2q_mode(m, q0, q1, false);
    }

    fn apply_2q_mode(&mut self, m: &Matrix4, q0: usize, q1: usize, parallel: bool) {
        assert!(q0 < self.num_qubits && q1 < self.num_qubits && q0 != q1);
        let b0 = 1usize << self.bit_position(q0);
        let b1 = 1usize << self.bit_position(q1);
        let mut flat = [ZERO; 16];
        for r in 0..4 {
            for c in 0..4 {
                flat[4 * r + c] = m[(r, c)];
            }
        }
        kernels::generic_2q(&mut self.amplitudes, b0, b1, &flat, parallel);
    }

    /// Applies a single gate, dispatching diagonal/permutation gates to
    /// their specialized kernels and everything else to the generic
    /// matrix kernels.
    pub fn apply_gate(&mut self, gate: &Gate, qubits: &[usize]) {
        self.apply_gate_mode(gate, qubits, false);
    }

    fn apply_gate_mode(&mut self, gate: &Gate, qubits: &[usize], parallel: bool) {
        match gate {
            // Diagonal single-qubit gates: diag(d0, d1).
            Gate::I
            | Gate::Z
            | Gate::S
            | Gate::Sdg
            | Gate::T
            | Gate::Tdg
            | Gate::RZ(_)
            | Gate::P(_) => {
                let m = gate.matrix2().expect("1q matrix");
                assert!(qubits[0] < self.num_qubits);
                let bit = 1usize << self.bit_position(qubits[0]);
                kernels::diag_1q(&mut self.amplitudes, bit, m[(0, 0)], m[(1, 1)]);
            }
            // Pauli X: pure bit-flip permutation.
            Gate::X => {
                assert!(qubits[0] < self.num_qubits);
                let bit = 1usize << self.bit_position(qubits[0]);
                kernels::perm_x(&mut self.amplitudes, bit);
            }
            // Diagonal two-qubit gates: diag(d0, d1, d2, d3).
            Gate::CZ | Gate::CPhase(_) | Gate::RZZ(_) => {
                let m = gate.matrix4().expect("2q matrix");
                let (b0, b1) = self.two_qubit_masks(qubits);
                let d = [m[(0, 0)], m[(1, 1)], m[(2, 2)], m[(3, 3)]];
                kernels::diag_2q(&mut self.amplitudes, b0, b1, &d);
            }
            Gate::CX => {
                let (b0, b1) = self.two_qubit_masks(qubits);
                kernels::perm_cx(&mut self.amplitudes, b0, b1);
            }
            Gate::Swap => {
                let (b0, b1) = self.two_qubit_masks(qubits);
                kernels::perm_swap(&mut self.amplitudes, b0, b1);
            }
            _ => match gate.num_qubits() {
                1 => {
                    let m = gate.matrix2().expect("1q matrix");
                    self.apply_1q_mode(&m, qubits[0], parallel);
                }
                2 => {
                    let m = gate.matrix4().expect("2q matrix");
                    self.apply_2q_mode(&m, qubits[0], qubits[1], parallel);
                }
                _ => unreachable!("only 1- and 2-qubit gates exist"),
            },
        }
    }

    fn two_qubit_masks(&self, qubits: &[usize]) -> (usize, usize) {
        let (q0, q1) = (qubits[0], qubits[1]);
        assert!(q0 < self.num_qubits && q1 < self.num_qubits && q0 != q1);
        (
            1usize << self.bit_position(q0),
            1usize << self.bit_position(q1),
        )
    }

    /// Applies every instruction of `circuit` in order, then the circuit's
    /// global phase, using [`ExecMode::Auto`].
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        self.apply_circuit_mode(circuit, ExecMode::Auto);
    }

    /// Applies every instruction of `circuit` in order with an explicit
    /// execution mode. All modes produce bitwise-identical amplitudes.
    pub fn apply_circuit_mode(&mut self, circuit: &Circuit, mode: ExecMode) {
        assert_eq!(circuit.num_qubits(), self.num_qubits);
        let _span = obs::span("sim.apply");
        obs::counter_add("sim.gates_applied", circuit.len() as u64);
        let parallel = match mode {
            ExecMode::Serial => false,
            ExecMode::Parallel => true,
            ExecMode::Auto => {
                self.amplitudes.len() >= PARALLEL_MIN_DIM
                    && std::thread::available_parallelism()
                        .map(|p| p.get() > 1)
                        .unwrap_or(false)
            }
        };
        if circuit.global_phase() != 0.0 {
            let phase = C64::cis(circuit.global_phase());
            for amp in &mut self.amplitudes {
                *amp *= phase;
            }
        }
        for inst in circuit.instructions() {
            self.apply_gate_mode(&inst.gate, &inst.qubits, parallel);
        }
    }

    /// Permutes the qubit labels: qubit `q` of the current state becomes
    /// qubit `perm[q]` of the returned state. Used to undo the layout
    /// permutation a router leaves behind.
    pub fn permute_qubits(&self, perm: &[usize]) -> StateVector {
        assert_eq!(perm.len(), self.num_qubits);
        let mut out = StateVector {
            num_qubits: self.num_qubits,
            amplitudes: vec![ZERO; self.amplitudes.len()],
        };
        for (idx, amp) in self.amplitudes.iter().enumerate() {
            let mut new_idx = 0usize;
            for (q, &target) in perm.iter().enumerate() {
                let bit = (idx >> self.bit_position(q)) & 1;
                if bit == 1 {
                    new_idx |= 1 << (self.num_qubits - 1 - target);
                }
            }
            out.amplitudes[new_idx] = *amp;
        }
        out
    }
}

/// Runs `circuit` on `|0…0⟩` and returns the final state.
pub fn simulate(circuit: &Circuit) -> StateVector {
    let mut sv = StateVector::zero_state(circuit.num_qubits());
    sv.apply_circuit(circuit);
    sv
}

/// The pair/quad-iteration kernels behind [`StateVector`].
mod kernels {
    use super::*;

    const SIGN: u64 = 1u64 << 63;

    /// Bitwise-identical replacement for `ZERO * a` (finite `a`):
    /// `(0·re − 0·im, 0·im + 0·re)` computed from the operands' sign bits.
    #[inline(always)]
    fn zero_mul(a: C64) -> C64 {
        let sre = a.re.to_bits() & SIGN;
        let sim = a.im.to_bits() & SIGN;
        C64 {
            re: f64::from_bits(sre & !sim),
            im: f64::from_bits(sre & sim),
        }
    }

    /// `0.0 * x` for finite `x`: a zero carrying the sign of `x`.
    #[inline(always)]
    fn zsign(x: f64) -> f64 {
        f64::from_bits(x.to_bits() & SIGN)
    }

    /// Bitwise-identical replacement for `ONE * a` (finite `a`):
    /// `(1·re − 0·im, 1·im + 0·re)`.
    #[inline(always)]
    fn one_mul(a: C64) -> C64 {
        C64 {
            re: a.re - zsign(a.im),
            im: a.im + zsign(a.re),
        }
    }

    /// A raw amplitude pointer that may cross thread boundaries. Soundness:
    /// the parallel drivers hand each task a disjoint set of runs.
    #[derive(Clone, Copy)]
    struct SendPtr(*mut C64);
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}

    /// Recursively splits `[run_lo, run_hi)` across rayon `join` tasks,
    /// processing at most `leaf` runs per task.
    fn par_runs<F>(ptr: SendPtr, run_lo: usize, run_hi: usize, leaf: usize, f: &F)
    where
        F: Fn(SendPtr, usize) + Sync,
    {
        if run_hi - run_lo <= leaf {
            for run in run_lo..run_hi {
                f(ptr, run);
            }
        } else {
            let mid = run_lo + (run_hi - run_lo) / 2;
            rayon::join(
                || par_runs(ptr, run_lo, mid, leaf, f),
                || par_runs(ptr, mid, run_hi, leaf, f),
            );
        }
    }

    // --- generic 1q ---------------------------------------------------------

    /// One contiguous pair run: streams `[p0, p0+len)` and `[p1, p1+len)`.
    ///
    /// Safety: both streams must be in-bounds and disjoint.
    unsafe fn pair_run_scalar(m: &[C64; 4], p0: *mut C64, p1: *mut C64, len: usize) {
        for k in 0..len {
            let a0 = *p0.add(k);
            let a1 = *p1.add(k);
            *p0.add(k) = m[0] * a0 + m[1] * a1;
            *p1.add(k) = m[2] * a0 + m[3] * a1;
        }
    }

    /// AVX2 pair run: two complex amplitudes per 256-bit vector. The
    /// mul/permute/addsub sequence reproduces the exact scalar operation
    /// order per lane (`m·a` then the `+`), so results are bit-identical.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn pair_run_avx2(m: &[C64; 4], p0: *mut C64, p1: *mut C64, len: usize) {
        use std::arch::x86_64::*;
        let mut reb = [_mm256_setzero_pd(); 4];
        let mut imb = [_mm256_setzero_pd(); 4];
        for (i, e) in m.iter().enumerate() {
            reb[i] = _mm256_set1_pd(e.re);
            imb[i] = _mm256_set1_pd(e.im);
        }
        let mut k = 0usize;
        while k < len {
            let v0 = _mm256_loadu_pd(p0.add(k) as *const f64);
            let v1 = _mm256_loadu_pd(p1.add(k) as *const f64);
            let w0 = _mm256_permute_pd(v0, 0b0101);
            let w1 = _mm256_permute_pd(v1, 0b0101);
            let o0 = _mm256_add_pd(
                _mm256_addsub_pd(_mm256_mul_pd(reb[0], v0), _mm256_mul_pd(imb[0], w0)),
                _mm256_addsub_pd(_mm256_mul_pd(reb[1], v1), _mm256_mul_pd(imb[1], w1)),
            );
            let o1 = _mm256_add_pd(
                _mm256_addsub_pd(_mm256_mul_pd(reb[2], v0), _mm256_mul_pd(imb[2], w0)),
                _mm256_addsub_pd(_mm256_mul_pd(reb[3], v1), _mm256_mul_pd(imb[3], w1)),
            );
            _mm256_storeu_pd(p0.add(k) as *mut f64, o0);
            _mm256_storeu_pd(p1.add(k) as *mut f64, o1);
            k += 2;
        }
    }

    #[inline]
    fn avx2_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Safety: `base + 2*bit <= amps.len()`, base aligned to `2*bit`.
    unsafe fn pair_run(ptr: *mut C64, base: usize, bit: usize, m: &[C64; 4], vector: bool) {
        let p0 = ptr.add(base);
        let p1 = ptr.add(base + bit);
        #[cfg(target_arch = "x86_64")]
        if vector && bit >= 2 {
            return pair_run_avx2(m, p0, p1, bit);
        }
        let _ = vector;
        pair_run_scalar(m, p0, p1, bit);
    }

    pub(super) fn generic_1q(amps: &mut [C64], bit: usize, m: &[C64; 4], parallel: bool) {
        let dim = amps.len();
        let vector = avx2_available();
        let ptr = amps.as_mut_ptr();
        let nruns = dim / (2 * bit);
        if parallel && nruns >= 2 {
            let leaf = (PAR_LEAF_AMPS / (2 * bit)).max(1);
            par_runs(
                SendPtr(ptr),
                0,
                nruns,
                leaf,
                &|p: SendPtr, run: usize| unsafe {
                    pair_run(p.0, run * 2 * bit, bit, m, vector);
                },
            );
        } else {
            for run in 0..nruns {
                unsafe { pair_run(ptr, run * 2 * bit, bit, m, vector) };
            }
        }
    }

    // --- generic 2q ---------------------------------------------------------

    /// One quad run at `base`: streams `base`, `base|b1`, `base|b0`,
    /// `base|b0|b1`, each of length `bl = min(b0, b1)`. The stream order
    /// mirrors the index array of the reference kernel, so row binding is
    /// independent of which operand mask is larger.
    ///
    /// Safety: all four streams in-bounds; `base` aligned so the runs are
    /// disjoint (guaranteed by the `2·bl` stepping of the drivers).
    unsafe fn quad_run_scalar(
        m: &[C64; 16],
        p0: *mut C64,
        p1: *mut C64,
        p2: *mut C64,
        p3: *mut C64,
        len: usize,
    ) {
        for k in 0..len {
            let a = [*p0.add(k), *p1.add(k), *p2.add(k), *p3.add(k)];
            let mut out = [ZERO; 4];
            for r in 0..4 {
                let mut acc = ZERO;
                for (c, amp) in a.iter().enumerate() {
                    acc += m[4 * r + c] * *amp;
                }
                out[r] = acc;
            }
            *p0.add(k) = out[0];
            *p1.add(k) = out[1];
            *p2.add(k) = out[2];
            *p3.add(k) = out[3];
        }
    }

    /// AVX2 quad run: two complex amplitudes per vector across the four
    /// streams. Per lane the operation order is exactly the scalar
    /// `acc = ZERO; acc += m·a_c` chain (addsub ≡ the sub/add halves of the
    /// complex product; no FMA), so results are bit-identical to
    /// [`quad_run_scalar`] and the reference kernel.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    unsafe fn quad_run_avx2(
        m: &[C64; 16],
        p0: *mut C64,
        p1: *mut C64,
        p2: *mut C64,
        p3: *mut C64,
        len: usize,
    ) {
        use std::arch::x86_64::*;
        let mut reb = [_mm256_setzero_pd(); 16];
        let mut imb = [_mm256_setzero_pd(); 16];
        for (i, e) in m.iter().enumerate() {
            reb[i] = _mm256_set1_pd(e.re);
            imb[i] = _mm256_set1_pd(e.im);
        }
        let mut k = 0usize;
        while k < len {
            let v0 = _mm256_loadu_pd(p0.add(k) as *const f64);
            let v1 = _mm256_loadu_pd(p1.add(k) as *const f64);
            let v2 = _mm256_loadu_pd(p2.add(k) as *const f64);
            let v3 = _mm256_loadu_pd(p3.add(k) as *const f64);
            let w0 = _mm256_permute_pd(v0, 0b0101);
            let w1 = _mm256_permute_pd(v1, 0b0101);
            let w2 = _mm256_permute_pd(v2, 0b0101);
            let w3 = _mm256_permute_pd(v3, 0b0101);
            macro_rules! row {
                ($r:expr) => {{
                    let mut acc = _mm256_setzero_pd();
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_addsub_pd(
                            _mm256_mul_pd(reb[4 * $r], v0),
                            _mm256_mul_pd(imb[4 * $r], w0),
                        ),
                    );
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_addsub_pd(
                            _mm256_mul_pd(reb[4 * $r + 1], v1),
                            _mm256_mul_pd(imb[4 * $r + 1], w1),
                        ),
                    );
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_addsub_pd(
                            _mm256_mul_pd(reb[4 * $r + 2], v2),
                            _mm256_mul_pd(imb[4 * $r + 2], w2),
                        ),
                    );
                    acc = _mm256_add_pd(
                        acc,
                        _mm256_addsub_pd(
                            _mm256_mul_pd(reb[4 * $r + 3], v3),
                            _mm256_mul_pd(imb[4 * $r + 3], w3),
                        ),
                    );
                    acc
                }};
            }
            let o0 = row!(0);
            let o1 = row!(1);
            let o2 = row!(2);
            let o3 = row!(3);
            _mm256_storeu_pd(p0.add(k) as *mut f64, o0);
            _mm256_storeu_pd(p1.add(k) as *mut f64, o1);
            _mm256_storeu_pd(p2.add(k) as *mut f64, o2);
            _mm256_storeu_pd(p3.add(k) as *mut f64, o3);
            k += 2;
        }
    }

    /// Safety: see [`quad_run_scalar`].
    unsafe fn quad_run(
        ptr: *mut C64,
        base: usize,
        b0: usize,
        b1: usize,
        bl: usize,
        m: &[C64; 16],
        vector: bool,
    ) {
        let p0 = ptr.add(base);
        let p1 = ptr.add(base | b1);
        let p2 = ptr.add(base | b0);
        let p3 = ptr.add(base | b0 | b1);
        #[cfg(target_arch = "x86_64")]
        if vector && bl >= 2 {
            return quad_run_avx2(m, p0, p1, p2, p3, bl);
        }
        let _ = vector;
        quad_run_scalar(m, p0, p1, p2, p3, bl);
    }

    /// Base index of quad run `run` for masks `(bh, bl)`: runs advance by
    /// `2·bl` inside a `bh`-superblock and by `2·bh` across superblocks.
    #[inline(always)]
    fn quad_run_base(run: usize, bh: usize, bl: usize) -> usize {
        let runs_per_block = bh / (2 * bl);
        let hi = run / runs_per_block;
        let mid = run % runs_per_block;
        hi * 2 * bh + mid * 2 * bl
    }

    pub(super) fn generic_2q(
        amps: &mut [C64],
        b0: usize,
        b1: usize,
        m: &[C64; 16],
        parallel: bool,
    ) {
        let dim = amps.len();
        let (bh, bl) = (b0.max(b1), b0.min(b1));
        let vector = avx2_available();
        let ptr = amps.as_mut_ptr();
        let nruns = dim / (4 * bl);
        if parallel && nruns >= 2 {
            let leaf = (PAR_LEAF_AMPS / (4 * bl)).max(1);
            par_runs(
                SendPtr(ptr),
                0,
                nruns,
                leaf,
                &|p: SendPtr, run: usize| unsafe {
                    quad_run(p.0, quad_run_base(run, bh, bl), b0, b1, bl, m, vector);
                },
            );
        } else {
            for run in 0..nruns {
                unsafe { quad_run(ptr, quad_run_base(run, bh, bl), b0, b1, bl, m, vector) };
            }
        }
    }

    // --- specialized kernels ------------------------------------------------
    //
    // Each specialized kernel reproduces the exact accumulation chain of the
    // generic kernel with the gate's known-zero/one entries replaced by
    // `zero_mul`/`one_mul`, so outputs stay bitwise identical while skipping
    // the full complex matmul.

    /// diag(d0, d1) on one qubit.
    pub(super) fn diag_1q(amps: &mut [C64], bit: usize, d0: C64, d1: C64) {
        let dim = amps.len();
        let mut base = 0usize;
        while base < dim {
            for i0 in base..base + bit {
                let i1 = i0 + bit;
                let a0 = amps[i0];
                let a1 = amps[i1];
                amps[i0] = d0 * a0 + zero_mul(a1);
                amps[i1] = zero_mul(a0) + d1 * a1;
            }
            base += 2 * bit;
        }
    }

    /// Pauli X on one qubit (row order of `gates::x()`).
    pub(super) fn perm_x(amps: &mut [C64], bit: usize) {
        let dim = amps.len();
        let mut base = 0usize;
        while base < dim {
            for i0 in base..base + bit {
                let i1 = i0 + bit;
                let a0 = amps[i0];
                let a1 = amps[i1];
                amps[i0] = zero_mul(a0) + one_mul(a1);
                amps[i1] = one_mul(a0) + zero_mul(a1);
            }
            base += 2 * bit;
        }
    }

    /// Walks every quad `(i0, i1, i2, i3) = (base, base|b1, base|b0,
    /// base|b0|b1)` and applies `f` to its four amplitudes.
    #[inline(always)]
    fn for_each_quad(amps: &mut [C64], b0: usize, b1: usize, mut f: impl FnMut(&mut [C64; 4])) {
        let dim = amps.len();
        let (bh, bl) = (b0.max(b1), b0.min(b1));
        let mut base_h = 0usize;
        while base_h < dim {
            let mut base_m = base_h;
            while base_m < base_h + bh {
                for low in base_m..base_m + bl {
                    let idx = [low, low | b1, low | b0, low | b0 | b1];
                    let mut a = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
                    f(&mut a);
                    amps[idx[0]] = a[0];
                    amps[idx[1]] = a[1];
                    amps[idx[2]] = a[2];
                    amps[idx[3]] = a[3];
                }
                base_m += 2 * bl;
            }
            base_h += 2 * bh;
        }
    }

    /// diag(d0, d1, d2, d3) on a qubit pair.
    pub(super) fn diag_2q(amps: &mut [C64], b0: usize, b1: usize, d: &[C64; 4]) {
        let d = *d;
        for_each_quad(amps, b0, b1, |a| {
            let out0 = (((ZERO + d[0] * a[0]) + zero_mul(a[1])) + zero_mul(a[2])) + zero_mul(a[3]);
            let out1 = (((ZERO + zero_mul(a[0])) + d[1] * a[1]) + zero_mul(a[2])) + zero_mul(a[3]);
            let out2 = (((ZERO + zero_mul(a[0])) + zero_mul(a[1])) + d[2] * a[2]) + zero_mul(a[3]);
            let out3 = (((ZERO + zero_mul(a[0])) + zero_mul(a[1])) + zero_mul(a[2])) + d[3] * a[3];
            *a = [out0, out1, out2, out3];
        });
    }

    /// CNOT (row order of `gates::cx()`: control is the `b0` operand).
    pub(super) fn perm_cx(amps: &mut [C64], b0: usize, b1: usize) {
        for_each_quad(amps, b0, b1, |a| {
            let out0 =
                (((ZERO + one_mul(a[0])) + zero_mul(a[1])) + zero_mul(a[2])) + zero_mul(a[3]);
            let out1 =
                (((ZERO + zero_mul(a[0])) + one_mul(a[1])) + zero_mul(a[2])) + zero_mul(a[3]);
            let out2 =
                (((ZERO + zero_mul(a[0])) + zero_mul(a[1])) + zero_mul(a[2])) + one_mul(a[3]);
            let out3 =
                (((ZERO + zero_mul(a[0])) + zero_mul(a[1])) + one_mul(a[2])) + zero_mul(a[3]);
            *a = [out0, out1, out2, out3];
        });
    }

    /// SWAP (row order of `gates::swap()`).
    pub(super) fn perm_swap(amps: &mut [C64], b0: usize, b1: usize) {
        for_each_quad(amps, b0, b1, |a| {
            let out0 =
                (((ZERO + one_mul(a[0])) + zero_mul(a[1])) + zero_mul(a[2])) + zero_mul(a[3]);
            let out1 =
                (((ZERO + zero_mul(a[0])) + zero_mul(a[1])) + one_mul(a[2])) + zero_mul(a[3]);
            let out2 =
                (((ZERO + zero_mul(a[0])) + one_mul(a[1])) + zero_mul(a[2])) + zero_mul(a[3]);
            let out3 =
                (((ZERO + zero_mul(a[0])) + zero_mul(a[1])) + zero_mul(a[2])) + one_mul(a[3]);
            *a = [out0, out1, out2, out3];
        });
    }
}

/// The pre-rewrite full-scan kernels, preserved verbatim.
///
/// These scan all `2^n` indices per gate and skip non-base indices, applying
/// the generic matrix product for every gate. They define the bitwise
/// reference semantics the rewritten engine must reproduce exactly
/// (`tests/qv20_reference.rs` and the sim crate's agreement suite check it).
pub mod reference {
    use super::*;

    /// Applies a single-qubit unitary with the pre-rewrite full-scan kernel.
    pub fn apply_1q(sv: &mut StateVector, m: &Matrix2, qubit: usize) {
        assert!(qubit < sv.num_qubits);
        let bit = 1usize << sv.bit_position(qubit);
        let dim = sv.amplitudes.len();
        for idx in 0..dim {
            if idx & bit != 0 {
                continue;
            }
            let i0 = idx;
            let i1 = idx | bit;
            let a0 = sv.amplitudes[i0];
            let a1 = sv.amplitudes[i1];
            sv.amplitudes[i0] = m[(0, 0)] * a0 + m[(0, 1)] * a1;
            sv.amplitudes[i1] = m[(1, 0)] * a0 + m[(1, 1)] * a1;
        }
    }

    /// Applies a two-qubit unitary with the pre-rewrite full-scan kernel.
    pub fn apply_2q(sv: &mut StateVector, m: &Matrix4, q0: usize, q1: usize) {
        assert!(q0 < sv.num_qubits && q1 < sv.num_qubits && q0 != q1);
        let b0 = 1usize << sv.bit_position(q0);
        let b1 = 1usize << sv.bit_position(q1);
        let dim = sv.amplitudes.len();
        for idx in 0..dim {
            if idx & b0 != 0 || idx & b1 != 0 {
                continue;
            }
            let i = [idx, idx | b1, idx | b0, idx | b0 | b1];
            let a = [
                sv.amplitudes[i[0]],
                sv.amplitudes[i[1]],
                sv.amplitudes[i[2]],
                sv.amplitudes[i[3]],
            ];
            for r in 0..4 {
                let mut acc = ZERO;
                for c in 0..4 {
                    acc += m[(r, c)] * a[c];
                }
                sv.amplitudes[i[r]] = acc;
            }
        }
    }

    /// Applies every instruction (then the global phase) with the
    /// pre-rewrite kernels.
    pub fn apply_circuit(sv: &mut StateVector, circuit: &Circuit) {
        assert_eq!(circuit.num_qubits(), sv.num_qubits);
        if circuit.global_phase() != 0.0 {
            let phase = C64::cis(circuit.global_phase());
            for amp in &mut sv.amplitudes {
                *amp *= phase;
            }
        }
        for inst in circuit.instructions() {
            match inst.gate.num_qubits() {
                1 => {
                    let m = inst.gate.matrix2().expect("1q matrix");
                    apply_1q(sv, &m, inst.qubits[0]);
                }
                2 => {
                    let m = inst.gate.matrix4().expect("2q matrix");
                    apply_2q(sv, &m, inst.qubits[0], inst.qubits[1]);
                }
                _ => unreachable!("only 1- and 2-qubit gates exist"),
            }
        }
    }

    /// Runs `circuit` on `|0…0⟩` with the pre-rewrite kernels.
    pub fn simulate(circuit: &Circuit) -> StateVector {
        let mut sv = StateVector::zero_state(circuit.num_qubits());
        apply_circuit(&mut sv, circuit);
        sv
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::Gate;

    const TOL: f64 = 1e-10;

    fn bitwise_eq(a: &StateVector, b: &StateVector) -> bool {
        a.amplitudes()
            .iter()
            .zip(b.amplitudes().iter())
            .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
    }

    #[test]
    fn global_phase_multiplies_every_amplitude() {
        let mut c = Circuit::new(1);
        c.h(0);
        c.add_global_phase(std::f64::consts::FRAC_PI_2);
        let sv = simulate(&c);
        // e^{iπ/2}·(1/√2) = i/√2 on both amplitudes.
        for idx in 0..2 {
            let amp = sv.amplitudes()[idx];
            assert!(amp.re.abs() < TOL, "amp[{idx}] = {amp:?}");
            assert!((amp.im - std::f64::consts::FRAC_1_SQRT_2).abs() < TOL);
        }
        // Probabilities (and fidelity against the unphased circuit) are
        // unchanged: the phase is unobservable.
        let mut plain = Circuit::new(1);
        plain.h(0);
        assert!((sv.fidelity(&simulate(&plain)) - 1.0).abs() < TOL);
    }

    #[test]
    fn zero_state_is_normalized() {
        let sv = StateVector::zero_state(3);
        assert!((sv.total_probability() - 1.0).abs() < TOL);
        assert!((sv.probability(0) - 1.0).abs() < TOL);
    }

    #[test]
    fn x_flips_the_addressed_qubit() {
        // X on qubit 0 of |00⟩ gives |10⟩ = index 2.
        let mut c = Circuit::new(2);
        c.x(0);
        let sv = simulate(&c);
        assert!((sv.probability(0b10) - 1.0).abs() < TOL);

        let mut c = Circuit::new(2);
        c.x(1);
        let sv = simulate(&c);
        assert!((sv.probability(0b01) - 1.0).abs() < TOL);
    }

    #[test]
    fn bell_state_from_h_cx() {
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        let sv = simulate(&c);
        assert!((sv.probability(0b00) - 0.5).abs() < TOL);
        assert!((sv.probability(0b11) - 0.5).abs() < TOL);
        assert!(sv.probability(0b01) < TOL);
        assert!(sv.probability(0b10) < TOL);
    }

    #[test]
    fn ghz_state_probabilities() {
        let n = 5;
        let mut c = Circuit::new(n);
        c.h(0);
        for i in 0..n - 1 {
            c.cx(i, i + 1);
        }
        let sv = simulate(&c);
        assert!((sv.probability(0) - 0.5).abs() < TOL);
        assert!((sv.probability((1 << n) - 1) - 0.5).abs() < TOL);
    }

    #[test]
    fn swap_gate_exchanges_qubits() {
        let mut c = Circuit::new(2);
        c.x(0);
        c.swap(0, 1);
        let sv = simulate(&c);
        assert!((sv.probability(0b01) - 1.0).abs() < TOL);
    }

    #[test]
    fn circuit_equals_its_unitary_action() {
        // CX(0,1) applied via apply_2q vs via Gate matrix on a superposition.
        let mut c = Circuit::new(2);
        c.h(0);
        c.h(1);
        c.push(Gate::CZ, &[0, 1]);
        let sv = simulate(&c);
        assert!((sv.total_probability() - 1.0).abs() < TOL);
        // All four basis states have probability 1/4 (CZ only adds phases).
        for idx in 0..4 {
            assert!((sv.probability(idx) - 0.25).abs() < TOL);
        }
    }

    #[test]
    fn unitarity_is_preserved_through_random_circuit() {
        let mut c = Circuit::new(4);
        c.h(0);
        c.cx(0, 1);
        c.push(Gate::SqrtISwap, &[1, 2]);
        c.push(Gate::Syc, &[2, 3]);
        c.rz(0.7, 3);
        c.push(Gate::RZZ(0.3), &[0, 3]);
        let sv = simulate(&c);
        assert!((sv.total_probability() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn inverse_circuit_returns_to_zero() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.push(Gate::SqrtISwap, &[1, 2]);
        c.rz(0.9, 2);
        let mut full = c.clone();
        full.compose(&c.inverse());
        let sv = simulate(&full);
        assert!((sv.probability(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn permute_qubits_relabels_state() {
        // |10⟩ with permutation q0→q1, q1→q0 becomes |01⟩.
        let mut c = Circuit::new(2);
        c.x(0);
        let sv = simulate(&c);
        let permuted = sv.permute_qubits(&[1, 0]);
        assert!((permuted.probability(0b01) - 1.0).abs() < TOL);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.cx(1, 2);
        let a = simulate(&c);
        let b = simulate(&c);
        assert!((a.fidelity(&b) - 1.0).abs() < TOL);
    }

    #[test]
    fn fidelity_of_orthogonal_states_is_zero() {
        let zero = StateVector::zero_state(2);
        let mut c = Circuit::new(2);
        c.x(0);
        let one = simulate(&c);
        assert!(zero.fidelity(&one) < TOL);
    }

    #[test]
    fn swap_equivalence_with_permutation() {
        // Applying SWAP(0,1) is the same as relabelling the qubits.
        let mut base = Circuit::new(3);
        base.h(0);
        base.cx(0, 2);
        base.rz(0.4, 2);
        let mut swapped = base.clone();
        swapped.swap(0, 1);
        let sv_swapped = simulate(&swapped);
        let sv_base = simulate(&base);
        let undone = sv_swapped.permute_qubits(&[1, 0, 2]);
        assert!((sv_base.fidelity(&undone) - 1.0).abs() < 1e-9);
    }

    /// A gate zoo that exercises every kernel path: specialized diagonal,
    /// permutation, generic 1q, generic 2q (every qubit position so both
    /// scalar and AVX2 run lengths occur).
    fn kernel_zoo(n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for q in 0..n {
            c.h(q);
        }
        for q in 0..n {
            c.push(Gate::RZ(0.3 + q as f64), &[q]);
            c.push(Gate::T, &[q]);
            c.push(Gate::X, &[q]);
            c.push(Gate::RY(0.7 * (q + 1) as f64), &[q]);
        }
        for q in 0..n - 1 {
            c.cx(q, q + 1);
            c.push(Gate::CZ, &[q + 1, q]);
            c.push(Gate::RZZ(0.5 + q as f64), &[q, q + 1]);
            c.swap(q, q + 1);
            c.push(Gate::SqrtISwap, &[q, q + 1]);
        }
        c.push(Gate::Syc, &[0, n - 1]);
        c.push(Gate::CPhase(0.9), &[n - 1, 0]);
        c
    }

    #[test]
    fn new_engine_matches_reference_bitwise() {
        for n in [2, 3, 5, 6] {
            let c = kernel_zoo(n);
            let new = simulate(&c);
            let old = reference::simulate(&c);
            assert!(bitwise_eq(&new, &old), "mismatch at n = {n}");
        }
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        let c = kernel_zoo(6);
        let mut serial = StateVector::zero_state(6);
        serial.apply_circuit_mode(&c, ExecMode::Serial);
        let mut parallel = StateVector::zero_state(6);
        parallel.apply_circuit_mode(&c, ExecMode::Parallel);
        assert!(bitwise_eq(&serial, &parallel));
    }

    #[test]
    fn dense_cap_is_documented_constant() {
        assert_eq!(MAX_DENSE_QUBITS, 28);
        // Constructing at the cap would allocate 4 GiB; just check the
        // guard fires above it.
        let result = std::panic::catch_unwind(|| StateVector::zero_state(MAX_DENSE_QUBITS + 1));
        assert!(result.is_err());
    }
}
