//! The pulse-duration sensitivity study of paper §6.3 / Fig. 15.
//!
//! For `N` Haar-random two-qubit targets and each basis gate `ⁿ√iSWAP`
//! (`n = 2..7`), the study fits templates of increasing size `k`, records the
//! average decomposition infidelity per `k` (Fig. 15 top-left), the pulse
//! duration of near-exact decompositions (top-right), and the best total
//! fidelity under the decoherence model as a function of the iSWAP pulse
//! fidelity (bottom).

use crate::fidelity::evaluate_fits;
use crate::nuop::{NuOpDecomposer, TemplateFit};
use rand::rngs::StdRng;
use rand::SeedableRng;
use snailqc_circuit::Gate;
use snailqc_math::random::haar_unitary4;
use snailqc_math::Matrix4;

/// Configuration of the Fig. 15 study.
#[derive(Debug, Clone, serde::Serialize)]
pub struct StudyConfig {
    /// Number of Haar-random target unitaries (the paper uses N = 50).
    pub samples: usize,
    /// Root indices `n` of the `ⁿ√iSWAP` bases to evaluate.
    pub roots: Vec<u32>,
    /// Template sizes `k` to fit.
    pub template_sizes: Vec<usize>,
    /// iSWAP pulse fidelities for the total-fidelity sweep (x-axis of
    /// Fig. 15 bottom).
    pub iswap_fidelities: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
    /// Optimizer iteration budget per fit.
    pub optimizer_iterations: usize,
}

impl Default for StudyConfig {
    fn default() -> Self {
        Self {
            samples: 50,
            roots: vec![2, 3, 4, 5, 6, 7],
            template_sizes: (2..=8).collect(),
            iswap_fidelities: vec![0.90, 0.925, 0.95, 0.975, 0.99, 1.0],
            seed: 2023,
            optimizer_iterations: 220,
        }
    }
}

/// Average decomposition infidelity for one `(n, k)` cell (Fig. 15 top-left).
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct InfidelityCell {
    /// Root index of the basis gate.
    pub n: u32,
    /// Template size.
    pub k: usize,
    /// Average `1 − F_d` over the sampled targets.
    pub avg_infidelity: f64,
    /// Pulse duration `k / n` in iSWAP units.
    pub pulse_duration: f64,
}

/// Average best total fidelity for one `(n, F_b)` cell (Fig. 15 bottom).
#[derive(Debug, Clone, Copy, serde::Serialize)]
pub struct TotalFidelityCell {
    /// Root index of the basis gate.
    pub n: u32,
    /// iSWAP pulse fidelity on the x-axis.
    pub fb_iswap: f64,
    /// Average over targets of `max_k F_d(k) · F_b(ⁿ√iSWAP)^k`.
    pub avg_total_fidelity: f64,
}

/// Full output of the Fig. 15 study.
#[derive(Debug, Clone, serde::Serialize)]
pub struct StudyResult {
    /// The configuration that produced this result.
    pub config: StudyConfig,
    /// Fig. 15 top-left / top-right data.
    pub infidelity_grid: Vec<InfidelityCell>,
    /// Fig. 15 bottom data.
    pub total_fidelity_grid: Vec<TotalFidelityCell>,
}

impl StudyResult {
    /// Average decomposition infidelity for a given `(n, k)`.
    pub fn infidelity(&self, n: u32, k: usize) -> Option<f64> {
        self.infidelity_grid
            .iter()
            .find(|c| c.n == n && c.k == k)
            .map(|c| c.avg_infidelity)
    }

    /// Average best total fidelity for a given `(n, fb)`.
    pub fn total(&self, n: u32, fb: f64) -> Option<f64> {
        self.total_fidelity_grid
            .iter()
            .find(|c| c.n == n && (c.fb_iswap - fb).abs() < 1e-12)
            .map(|c| c.avg_total_fidelity)
    }

    /// The paper's headline: relative infidelity reduction of the `n`-th root
    /// basis versus √iSWAP at the given iSWAP fidelity
    /// (`25%` for `⁴√iSWAP` at `F_b(iSWAP) = 0.99`).
    pub fn infidelity_reduction_vs_sqrt_iswap(&self, n: u32, fb: f64) -> Option<f64> {
        let sqrt = self.total(2, fb)?;
        let other = self.total(n, fb)?;
        let inf_sqrt = 1.0 - sqrt;
        let inf_other = 1.0 - other;
        if inf_sqrt <= 0.0 {
            return None;
        }
        Some((inf_sqrt - inf_other) / inf_sqrt)
    }
}

/// Runs the full study.
pub fn run_study(config: &StudyConfig) -> StudyResult {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let targets: Vec<Matrix4> = (0..config.samples)
        .map(|_| haar_unitary4(&mut rng))
        .collect();

    let mut infidelity_grid = Vec::new();
    let mut total_fidelity_grid = Vec::new();

    for &n in &config.roots {
        let decomposer = NuOpDecomposer::new(Gate::ISwapPow(1.0 / f64::from(n)))
            .with_max_iterations(config.optimizer_iterations)
            .with_restarts(2);

        // Fit every (target, k) pair once and reuse across both sub-figures.
        let mut fits_per_target: Vec<Vec<TemplateFit>> = Vec::with_capacity(targets.len());
        for (t_idx, target) in targets.iter().enumerate() {
            let fits: Vec<TemplateFit> = config
                .template_sizes
                .iter()
                .map(|&k| decomposer.fit(target, k, config.seed ^ (t_idx as u64) << 8 ^ (k as u64)))
                .collect();
            fits_per_target.push(fits);
        }

        for (ki, &k) in config.template_sizes.iter().enumerate() {
            let avg_infidelity = fits_per_target
                .iter()
                .map(|fits| fits[ki].infidelity().max(0.0))
                .sum::<f64>()
                / targets.len() as f64;
            infidelity_grid.push(InfidelityCell {
                n,
                k,
                avg_infidelity,
                pulse_duration: k as f64 / f64::from(n),
            });
        }

        for &fb in &config.iswap_fidelities {
            let avg_total = fits_per_target
                .iter()
                .map(|fits| evaluate_fits(fits, n, fb).1.total_fidelity)
                .sum::<f64>()
                / targets.len() as f64;
            total_fidelity_grid.push(TotalFidelityCell {
                n,
                fb_iswap: fb,
                avg_total_fidelity: avg_total,
            });
        }
    }

    StudyResult {
        config: config.clone(),
        infidelity_grid,
        total_fidelity_grid,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fidelity::{nth_root_basis_fidelity, total_fidelity};

    /// A reduced configuration that keeps the study fast.
    fn quick() -> StudyConfig {
        StudyConfig {
            samples: 3,
            roots: vec![2, 3, 4],
            template_sizes: (2..=5).collect(),
            iswap_fidelities: vec![0.95, 0.99],
            seed: 7,
            optimizer_iterations: 120,
        }
    }

    #[test]
    fn quick_study_runs_and_is_monotone_in_k() {
        let result = run_study(&quick());
        // For the √iSWAP basis, infidelity at k=3 must be far below k=2
        // (three applications synthesize any two-qubit gate exactly).
        let i2 = result.infidelity(2, 2).unwrap();
        let i3 = result.infidelity(2, 3).unwrap();
        assert!(i3 < i2, "k=3 ({i3}) should beat k=2 ({i2})");
        assert!(i3 < 1e-2, "k=3 infidelity should be small, got {i3}");
    }

    #[test]
    fn deeper_roots_need_more_gates() {
        let result = run_study(&quick());
        // At k=3 the 4th-root basis cannot yet be near-exact while √iSWAP is.
        let sqrt_k3 = result.infidelity(2, 3).unwrap();
        let fourth_k3 = result.infidelity(4, 3).unwrap();
        assert!(fourth_k3 > sqrt_k3);
    }

    #[test]
    fn total_fidelity_improves_with_perfect_gates() {
        let result = run_study(&quick());
        for &n in &result.config.roots {
            let poor = result.total(n, 0.95).unwrap();
            let good = result.total(n, 0.99).unwrap();
            assert!(good > poor, "n = {n}");
        }
    }

    #[test]
    fn ideal_model_favors_finer_roots_at_fixed_duration() {
        // The paper's argument: k=4 of ³√iSWAP (duration 1.33) beats k=3 of
        // √iSWAP (duration 1.5) because each pulse is shorter.
        let ideal = |n, k| total_fidelity(1.0, nth_root_basis_fidelity(0.99, n), k);
        let (sqrt, third) = (ideal(2, 3), ideal(3, 4));
        assert!(third > sqrt, "third-root {third} vs sqrt {sqrt}");
    }

    #[test]
    fn result_lookup_handles_missing_cells() {
        let result = run_study(&quick());
        assert!(result.infidelity(2, 99).is_none());
        assert!(result.total(99, 0.99).is_none());
    }
}
