//! NuOp-style numerical template decomposition (paper §6.3, Eq. 10–11).
//!
//! To study basis gates with no known analytic decomposition (`ⁿ√iSWAP` for
//! `n > 2`), the paper reproduces NuOp: build a template that interleaves `k`
//! applications of the basis gate with parameterized single-qubit layers and
//! numerically maximize the Hilbert–Schmidt fidelity against the target
//! unitary. This module implements that engine with a gradient-based
//! optimizer (central differences + Adam) and multiple random restarts.

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use snailqc_circuit::Gate;
use snailqc_math::gates::u3;
use snailqc_math::{Matrix2, Matrix4};

/// Hilbert–Schmidt gate fidelity `|Tr(U_d† U_t)| / dim` (paper Eq. 11).
pub fn hilbert_schmidt_fidelity(a: &Matrix4, b: &Matrix4) -> f64 {
    a.hs_inner(b).abs() / 4.0
}

/// The result of fitting a `k`-gate template to a target unitary.
#[derive(Debug, Clone)]
pub struct TemplateFit {
    /// Number of basis-gate applications in the template.
    pub k: usize,
    /// Achieved Hilbert–Schmidt fidelity `F_d`.
    pub fidelity: f64,
    /// Optimized single-qubit parameters, 6 per interleaved layer
    /// (`θ, φ, λ` for each of the two qubits), `6 (k + 1)` in total.
    pub params: Vec<f64>,
}

impl TemplateFit {
    /// Decomposition infidelity `1 - F_d`.
    pub fn infidelity(&self) -> f64 {
        1.0 - self.fidelity
    }
}

/// Numerical template decomposer for a fixed two-qubit basis gate.
#[derive(Debug, Clone)]
pub struct NuOpDecomposer {
    basis: Matrix4,
    max_iterations: usize,
    restarts: usize,
    tolerance: f64,
}

impl NuOpDecomposer {
    /// Creates a decomposer for the given basis gate with default optimizer
    /// settings (3 restarts, 250 Adam iterations, stop at infidelity 1e-10).
    pub fn new(basis_gate: Gate) -> Self {
        let basis = basis_gate.matrix4().expect("basis gate must be two-qubit");
        Self {
            basis,
            max_iterations: 250,
            restarts: 3,
            tolerance: 1e-10,
        }
    }

    /// Overrides the optimizer iteration budget.
    pub fn with_max_iterations(mut self, iters: usize) -> Self {
        self.max_iterations = iters;
        self
    }

    /// Overrides the number of random restarts.
    pub fn with_restarts(mut self, restarts: usize) -> Self {
        self.restarts = restarts.max(1);
        self
    }

    /// Evaluates the template unitary for a parameter vector.
    fn template_unitary(&self, params: &[f64], k: usize) -> Matrix4 {
        assert_eq!(params.len(), 6 * (k + 1));
        let mut u = local_layer(&params[0..6]);
        for i in 0..k {
            u = self.basis * u;
            let offset = 6 * (i + 1);
            u = local_layer(&params[offset..offset + 6]) * u;
        }
        u
    }

    /// Fits a `k`-application template to `target`, returning the best fit
    /// over the configured number of random restarts.
    pub fn fit(&self, target: &Matrix4, k: usize, seed: u64) -> TemplateFit {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 6 * (k + 1);
        let mut best = TemplateFit {
            k,
            fidelity: -1.0,
            params: vec![0.0; dim],
        };
        for _ in 0..self.restarts {
            let mut params: Vec<f64> = (0..dim)
                .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
                .collect();
            let fid = self.optimize(target, k, &mut params);
            if fid > best.fidelity {
                best.fidelity = fid;
                best.params = params;
            }
            if best.infidelity() < self.tolerance {
                break;
            }
        }
        best
    }

    /// Adam ascent on the Hilbert–Schmidt fidelity with central-difference
    /// gradients. Returns the final fidelity; `params` is updated in place.
    fn optimize(&self, target: &Matrix4, k: usize, params: &mut [f64]) -> f64 {
        let dim = params.len();
        let eval = |p: &[f64]| hilbert_schmidt_fidelity(&self.template_unitary(p, k), target);

        let mut m = vec![0.0; dim];
        let mut v = vec![0.0; dim];
        let (beta1, beta2, eps) = (0.9, 0.999, 1e-8);
        let mut lr = 0.15;
        let h = 1e-5;
        let mut best_f = eval(params);
        let mut best_p = params.to_vec();
        let mut stall = 0usize;

        for t in 1..=self.max_iterations {
            // Central-difference gradient.
            let mut grad = vec![0.0; dim];
            for i in 0..dim {
                let orig = params[i];
                params[i] = orig + h;
                let fp = eval(params);
                params[i] = orig - h;
                let fm = eval(params);
                params[i] = orig;
                grad[i] = (fp - fm) / (2.0 * h);
            }
            for i in 0..dim {
                m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                let mh = m[i] / (1.0 - beta1.powi(t as i32));
                let vh = v[i] / (1.0 - beta2.powi(t as i32));
                params[i] += lr * mh / (vh.sqrt() + eps);
            }
            let f = eval(params);
            if f > best_f + 1e-14 {
                best_f = f;
                best_p.copy_from_slice(params);
                stall = 0;
            } else {
                stall += 1;
                if stall.is_multiple_of(20) {
                    lr *= 0.5;
                }
                if stall > 60 {
                    break;
                }
            }
            if 1.0 - best_f < self.tolerance {
                break;
            }
        }
        params.copy_from_slice(&best_p);
        best_f
    }
}

/// Builds the tensor product of two `U3` gates from six parameters.
fn local_layer(p: &[f64]) -> Matrix4 {
    let a: Matrix2 = u3(p[0], p[1], p[2]);
    let b: Matrix2 = u3(p[3], p[4], p[5]);
    a.kron(&b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use snailqc_math::gates;
    use snailqc_math::random::haar_unitary4;

    #[test]
    fn hs_fidelity_bounds() {
        let id = Matrix4::identity();
        assert!((hilbert_schmidt_fidelity(&id, &id) - 1.0).abs() < 1e-12);
        let cx = gates::cx();
        let f = hilbert_schmidt_fidelity(&id, &cx);
        assert!((0.0..1.0).contains(&f));
        // Global phase does not matter.
        let phased = cx.scale(snailqc_math::C64::cis(0.7));
        assert!((hilbert_schmidt_fidelity(&cx, &phased) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn template_with_identity_layers_is_the_basis_power() {
        let d = NuOpDecomposer::new(Gate::SqrtISwap);
        let u = d.template_unitary(&[0.0; 18], 2);
        assert!(u.approx_eq(&gates::iswap(), 1e-12));
    }

    #[test]
    fn recovers_a_single_basis_gate_with_k1() {
        let d = NuOpDecomposer::new(Gate::SqrtISwap).with_max_iterations(150);
        let fit = d.fit(&gates::sqrt_iswap(), 1, 3);
        assert!(fit.fidelity > 1.0 - 1e-6, "fidelity {}", fit.fidelity);
    }

    #[test]
    fn cnot_needs_two_sqrt_iswaps() {
        let d = NuOpDecomposer::new(Gate::SqrtISwap).with_max_iterations(300);
        let one = d.fit(&gates::cx(), 1, 5);
        let two = d.fit(&gates::cx(), 2, 5);
        assert!(
            one.fidelity < 0.99,
            "k=1 should be insufficient: {}",
            one.fidelity
        );
        assert!(
            two.fidelity > 1.0 - 1e-5,
            "k=2 should be exact: {}",
            two.fidelity
        );
    }

    #[test]
    fn haar_target_reaches_high_fidelity_with_three_sqrt_iswaps() {
        let mut rng = StdRng::seed_from_u64(11);
        let target = haar_unitary4(&mut rng);
        let d = NuOpDecomposer::new(Gate::SqrtISwap)
            .with_max_iterations(400)
            .with_restarts(4);
        let fit = d.fit(&target, 3, 7);
        assert!(fit.fidelity > 1.0 - 1e-3, "fidelity {}", fit.fidelity);
    }

    #[test]
    fn fidelity_never_exceeds_one() {
        let d = NuOpDecomposer::new(Gate::SqrtISwap).with_max_iterations(100);
        let fit = d.fit(&gates::swap(), 3, 17);
        assert!(fit.fidelity <= 1.0 + 1e-9);
        assert!(fit.infidelity() >= -1e-9);
    }
}
