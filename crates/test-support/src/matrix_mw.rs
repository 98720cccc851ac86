//! The matrix multiplicative weights (MMW) game of Section 2.1.
//!
//! For a fixed `ε₀ ≤ 1/2` and `W⁽¹⁾ = I`, iteration `t` of the game:
//!
//! 1. produces the probability matrix `P⁽ᵗ⁾ = W⁽ᵗ⁾ / Tr W⁽ᵗ⁾`,
//! 2. incurs a gain matrix `M⁽ᵗ⁾` (chosen adversarially), and
//! 3. updates `W⁽ᵗ⁺¹⁾ = exp(ε₀ Σ_{t'≤t} M⁽ᵗ'⁾)`.
//!
//! Arora–Kale's regret bound (Theorem 2.1) then guarantees, for PSD gains
//! `M⁽ᵗ⁾ ⪯ I`:
//!
//! ```text
//!   (1+ε₀) Σ_t M⁽ᵗ⁾ • P⁽ᵗ⁾  ≥  λmax(Σ_t M⁽ᵗ⁾) − ln(m)/ε₀.
//! ```
//!
//! The solver never plays this game explicitly; this implementation
//! documents the mechanism its convergence proof runs through and is
//! property-tested against the regret bound directly (the bound is the
//! *only* fact Lemma 3.2 needs from the framework).

use psdp_linalg::{sym_eigen, LinalgError, Mat};

/// State of a matrix multiplicative weights game.
///
/// ```
/// use psdp_test_support::MmwGame;
/// use psdp_linalg::Mat;
///
/// let mut game = MmwGame::new(2, 0.5);
/// // Feed the same rank-1 gain repeatedly: weights concentrate on it, and
/// // the Theorem 2.1 regret bound holds throughout.
/// let gain = Mat::from_diag(&[1.0, 0.0]);
/// for _ in 0..20 {
///     game.play(&gain)?;
/// }
/// let p = game.probability_matrix()?;
/// assert!(p[(0, 0)] > 0.95);
/// let (lhs, rhs) = game.regret_bound_sides()?;
/// assert!(lhs >= rhs);
/// # Ok::<(), psdp_linalg::LinalgError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MmwGame {
    eps0: f64,
    dim: usize,
    /// Running sum of gain matrices `Σ M⁽ᵗ'⁾`.
    gain_sum: Mat,
    /// Running sum of observed gains `Σ M⁽ᵗ⁾ • P⁽ᵗ⁾`.
    observed_gain: f64,
    /// Rounds played.
    rounds: usize,
}

impl MmwGame {
    /// Start a game on `dim × dim` matrices with learning rate `eps0`.
    ///
    /// # Panics
    /// Panics unless `0 < eps0 ≤ 1/2` (the Theorem 2.1 regime).
    pub fn new(dim: usize, eps0: f64) -> Self {
        assert!(eps0 > 0.0 && eps0 <= 0.5, "MMW needs 0 < eps0 <= 1/2, got {eps0}");
        MmwGame { eps0, dim, gain_sum: Mat::zeros(dim, dim), observed_gain: 0.0, rounds: 0 }
    }

    /// The current probability matrix `P = exp(ε₀ ΣM) / Tr[exp(ε₀ ΣM)]`.
    ///
    /// Computed with a spectral shift so large cumulative gains cannot
    /// overflow.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn probability_matrix(&self) -> Result<Mat, LinalgError> {
        let mut scaled = self.gain_sum.clone();
        scaled.scale(self.eps0);
        scaled.symmetrize();
        let eig = sym_eigen(&scaled)?;
        let shift = eig.lambda_max();
        let w = eig.apply_fn(|lam| (lam - shift).exp());
        let tr = w.trace();
        Ok(w.scaled(1.0 / tr))
    }

    /// Play one round: observe `P⁽ᵗ⁾`, incur the gain `M⁽ᵗ⁾`, update state.
    /// Returns the scalar gain `M⁽ᵗ⁾ • P⁽ᵗ⁾` of this round.
    ///
    /// `m_gain` should satisfy `0 ⪯ M ⪯ I` for the regret bound to hold; this
    /// is the caller's contract (checked only in debug builds, where it costs
    /// an eigendecomposition).
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn play(&mut self, m_gain: &Mat) -> Result<f64, LinalgError> {
        assert_eq!(m_gain.nrows(), self.dim, "gain dimension mismatch");
        #[cfg(debug_assertions)]
        {
            let eig = sym_eigen(m_gain)?;
            debug_assert!(eig.lambda_min() > -1e-8, "gain not PSD: {}", eig.lambda_min());
            debug_assert!(eig.lambda_max() < 1.0 + 1e-8, "gain exceeds I: {}", eig.lambda_max());
        }
        let p = self.probability_matrix()?;
        let g = m_gain.dot(&p);
        self.observed_gain += g;
        self.gain_sum.axpy(1.0, m_gain);
        self.rounds += 1;
        Ok(g)
    }

    /// Rounds played so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Accumulated observed gain `Σ_t M⁽ᵗ⁾ • P⁽ᵗ⁾`.
    pub fn observed_gain(&self) -> f64 {
        self.observed_gain
    }

    /// The two sides of the Theorem 2.1 regret bound,
    /// `(lhs, rhs) = ((1+ε₀)·Σ M•P,  λmax(Σ M) − ln(m)/ε₀)`.
    /// The bound asserts `lhs ≥ rhs`.
    ///
    /// # Errors
    /// Propagates eigensolver failures.
    pub fn regret_bound_sides(&self) -> Result<(f64, f64), LinalgError> {
        let lam = sym_eigen(&self.gain_sum)?.lambda_max();
        let lhs = (1.0 + self.eps0) * self.observed_gain;
        let rhs = lam - (self.dim as f64).ln() / self.eps0;
        Ok((lhs, rhs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probability_matrix_starts_uniform() {
        let g = MmwGame::new(4, 0.5);
        let p = g.probability_matrix().unwrap();
        for i in 0..4 {
            assert!((p[(i, i)] - 0.25).abs() < 1e-12);
            for j in 0..4 {
                if i != j {
                    assert!(p[(i, j)].abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn probability_matrix_trace_one_always() {
        let mut g = MmwGame::new(3, 0.3);
        let gain = Mat::from_diag(&[1.0, 0.5, 0.0]);
        for _ in 0..5 {
            g.play(&gain).unwrap();
            let p = g.probability_matrix().unwrap();
            assert!((p.trace() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn weights_concentrate_on_high_gain_direction() {
        let mut g = MmwGame::new(2, 0.5);
        let gain = Mat::from_diag(&[1.0, 0.0]);
        for _ in 0..30 {
            g.play(&gain).unwrap();
        }
        let p = g.probability_matrix().unwrap();
        assert!(p[(0, 0)] > 0.99, "should concentrate on coordinate 0: {}", p[(0, 0)]);
    }

    #[test]
    fn regret_bound_holds_diagonal_adversary() {
        // Alternating adversary on diagonal gains.
        let mut g = MmwGame::new(3, 0.25);
        let gains = [
            Mat::from_diag(&[1.0, 0.0, 0.3]),
            Mat::from_diag(&[0.0, 1.0, 0.3]),
            Mat::from_diag(&[0.2, 0.2, 1.0]),
        ];
        for t in 0..60 {
            g.play(&gains[t % 3]).unwrap();
        }
        let (lhs, rhs) = g.regret_bound_sides().unwrap();
        assert!(lhs >= rhs - 1e-9, "regret bound violated: {lhs} < {rhs}");
    }

    #[test]
    fn regret_bound_holds_rotating_adversary() {
        // Non-commuting gains exercise the genuinely "matrix" part.
        let mut g = MmwGame::new(2, 0.5);
        let m1 = Mat::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]); // projector onto (1,1)/√2
        let m2 = Mat::from_rows(&[&[0.5, -0.5], &[-0.5, 0.5]]); // projector onto (1,-1)/√2
        let m3 = Mat::from_diag(&[1.0, 0.0]);
        for t in 0..45 {
            let m = match t % 3 {
                0 => &m1,
                1 => &m2,
                _ => &m3,
            };
            g.play(m).unwrap();
        }
        let (lhs, rhs) = g.regret_bound_sides().unwrap();
        assert!(lhs >= rhs - 1e-9, "regret bound violated: {lhs} < {rhs}");
    }

    #[test]
    fn overflow_safe_probabilities() {
        // ε₀·ΣM reaches 1000: exp would overflow without the spectral shift.
        let mut g = MmwGame::new(2, 0.5);
        let gain = Mat::from_diag(&[1.0, 0.0]);
        for _ in 0..2000 {
            g.play(&gain).unwrap();
        }
        let p = g.probability_matrix().unwrap();
        assert!(p[(0, 0)] > 0.999 && p[(0, 0)].is_finite());
        assert!((p.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn rejects_large_eps0() {
        let _ = MmwGame::new(2, 0.9);
    }
}
