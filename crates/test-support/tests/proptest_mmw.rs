//! Property tests: the Theorem 2.1 regret bound holds against randomized
//! adversaries, and on diagonal gains the matrix game reduces to scalar
//! multiplicative weights (Hedge).

use proptest::prelude::*;
use psdp_linalg::Mat;
use psdp_test_support::MmwGame;

/// A random PSD gain with ‖M‖ ≤ 1: convex combination of rank-1 projectors.
fn gain(dim: usize, coords: &[f64]) -> Mat {
    let mut v: Vec<f64> = coords.iter().take(dim).cloned().collect();
    while v.len() < dim {
        v.push(0.1);
    }
    let norm: f64 = v.iter().map(|x| x * x).sum::<f64>().sqrt().max(1e-9);
    for x in &mut v {
        *x /= norm;
    }
    let mut g = Mat::zeros(dim, dim);
    g.rank1_update(1.0, &v); // unit projector: eigenvalues {1, 0…}
    g
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Theorem 2.1 against random rank-1 adversaries.
    #[test]
    fn regret_bound_random_adversary(
        dim in 2usize..5,
        eps0 in 0.05_f64..0.5,
        seeds in proptest::collection::vec(proptest::collection::vec(-1.0_f64..1.0, 5), 10..40),
    ) {
        let mut game = MmwGame::new(dim, eps0);
        for s in &seeds {
            game.play(&gain(dim, s)).unwrap();
        }
        let (lhs, rhs) = game.regret_bound_sides().unwrap();
        prop_assert!(lhs >= rhs - 1e-8, "regret violated: {lhs} < {rhs}");
    }

    /// Diagonal gains in `[0, 1]` (the Hedge setting): the regret bound
    /// against the best single expert, `λmax(ΣM) = maxᵢ Gᵢ`.
    #[test]
    fn hedge_regret_random(
        n in 2usize..6,
        eps0 in 0.05_f64..0.5,
        rounds in proptest::collection::vec(proptest::collection::vec(0.0_f64..1.0, 6), 5..50),
    ) {
        let mut game = MmwGame::new(n, eps0);
        let mut cumulative = vec![0.0_f64; n];
        for r in &rounds {
            game.play(&Mat::from_diag(&r[..n])).unwrap();
            for (c, &x) in cumulative.iter_mut().zip(&r[..n]) {
                *c += x;
            }
        }
        let (lhs, rhs) = game.regret_bound_sides().unwrap();
        let best = cumulative.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
        prop_assert!((rhs - (best - (n as f64).ln() / eps0)).abs() < 1e-9);
        prop_assert!(lhs >= rhs - 1e-8, "hedge regret violated: {lhs} < {rhs}");
    }

    /// Diagonal gains: the matrix game's probability matrix is diagonal and
    /// equals Hedge's closed form, a softmax of the cumulative gains,
    /// `pᵢ = exp(ε₀ Gᵢ) / Σⱼ exp(ε₀ Gⱼ)`.
    #[test]
    fn matrix_game_specializes_to_hedge(
        n in 2usize..5,
        rounds in proptest::collection::vec(proptest::collection::vec(0.0_f64..1.0, 5), 3..12),
    ) {
        let eps0 = 0.4;
        let mut g = MmwGame::new(n, eps0);
        let mut cumulative = vec![0.0_f64; n];
        for r in &rounds {
            let gains = &r[..n];
            let weights: Vec<f64> = cumulative.iter().map(|&c| (eps0 * c).exp()).collect();
            let z: f64 = weights.iter().sum();
            let gp = g.probability_matrix().unwrap();
            for i in 0..n {
                prop_assert!((weights[i] / z - gp[(i, i)]).abs() < 1e-8);
                for j in 0..n {
                    if i != j {
                        prop_assert!(gp[(i, j)].abs() < 1e-10, "off-diagonal leakage");
                    }
                }
            }
            g.play(&Mat::from_diag(gains)).unwrap();
            for (c, &x) in cumulative.iter_mut().zip(gains) {
                *c += x;
            }
        }
    }
}
