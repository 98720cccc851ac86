//! Graphs and Laplacians for workload generation.
//!
//! Several positive-SDP workloads are graph-derived (edge Laplacians are
//! rank-1 PSD matrices — the prototypical factorized constraints), so the
//! sparse crate owns a minimal undirected weighted graph type and its
//! Laplacian constructors.

use crate::csr::Csr;
use crate::factor::FactorPsd;

/// An undirected weighted graph on vertices `0..n`.
#[derive(Debug, Clone)]
pub struct Graph {
    n: usize,
    /// Undirected edges `(u, v, w)` with `u < v`, `w > 0`.
    edges: Vec<(usize, usize, f64)>,
}

impl Graph {
    /// Create a graph with `n` vertices and no edges.
    pub fn new(n: usize) -> Self {
        Graph { n, edges: Vec::new() }
    }

    /// Add an undirected edge; self-loops are rejected.
    ///
    /// # Panics
    /// Panics on out-of-range endpoints, self-loops, or non-positive weight.
    pub fn add_edge(&mut self, u: usize, v: usize, w: f64) {
        assert!(u < self.n && v < self.n, "edge ({u},{v}) out of range");
        assert_ne!(u, v, "self-loops not supported");
        assert!(w > 0.0, "edge weight must be positive");
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        self.edges.push((a, b, w));
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Edge list view.
    pub fn edges(&self) -> &[(usize, usize, f64)] {
        &self.edges
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.edges.len()
    }

    /// The graph Laplacian `L = Σ_e w_e (e_u − e_v)(e_u − e_v)ᵀ` as CSR.
    pub fn laplacian(&self) -> Csr {
        let mut trip = Vec::with_capacity(4 * self.edges.len());
        for &(u, v, w) in &self.edges {
            trip.push((u, u, w));
            trip.push((v, v, w));
            trip.push((u, v, -w));
            trip.push((v, u, -w));
        }
        Csr::from_triplets(self.n, self.n, &trip)
    }

    /// Per-edge Laplacians as rank-1 factorized PSD matrices
    /// `L_e = w (e_u − e_v)(e_u − e_v)ᵀ`, i.e. factor `√w (e_u − e_v)`.
    pub fn edge_laplacians(&self) -> Vec<FactorPsd> {
        self.edges
            .iter()
            .map(|&(u, v, w)| {
                let s = w.sqrt();
                let trip = vec![(u, 0usize, s), (v, 0usize, -s)];
                FactorPsd::new(Csr::from_triplets(self.n, 1, &trip))
            })
            .collect()
    }

    /// A simple path graph `0—1—…—(n−1)` with unit weights.
    pub fn path(n: usize) -> Self {
        let mut g = Graph::new(n);
        for i in 1..n {
            g.add_edge(i - 1, i, 1.0);
        }
        g
    }

    /// A cycle graph with unit weights.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "cycle needs at least 3 vertices");
        let mut g = Graph::path(n);
        g.add_edge(n - 1, 0, 1.0);
        g
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psdp_linalg::{sym_eigen, Mat};

    /// The complete graph `K_n` with unit weights.
    fn complete(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for u in 0..n {
            for v in (u + 1)..n {
                g.add_edge(u, v, 1.0);
            }
        }
        g
    }

    #[test]
    fn laplacian_row_sums_zero() {
        let g = Graph::cycle(5);
        let l = g.laplacian().to_dense();
        for i in 0..5 {
            let s: f64 = l.row(i).iter().sum();
            assert!(s.abs() < 1e-14);
        }
    }

    #[test]
    fn laplacian_psd_with_zero_eigenvalue() {
        let g = complete(4);
        let l = g.laplacian().to_dense();
        let eig = sym_eigen(&l).unwrap();
        assert!(eig.lambda_min().abs() < 1e-10, "connected graph: lambda_min = 0");
        // K_n Laplacian has eigenvalues {0, n, ..., n}.
        assert!((eig.lambda_max() - 4.0).abs() < 1e-10);
    }

    #[test]
    fn edge_laplacians_sum_to_laplacian() {
        let g = Graph::path(6);
        let mut acc = Mat::zeros(6, 6);
        for e in g.edge_laplacians() {
            e.add_scaled_into(&mut acc, 1.0);
        }
        let l = g.laplacian().to_dense();
        for i in 0..6 {
            for j in 0..6 {
                assert!((acc[(i, j)] - l[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn weighted_edges() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 2.0);
        g.add_edge(2, 1, 3.0); // order normalized internally
        let l = g.laplacian().to_dense();
        assert_eq!(l[(0, 0)], 2.0);
        assert_eq!(l[(1, 1)], 5.0);
        assert_eq!(l[(2, 2)], 3.0);
        assert_eq!(l[(0, 1)], -2.0);
        assert_eq!(l[(1, 2)], -3.0);
    }

    #[test]
    #[should_panic]
    fn rejects_self_loop() {
        let mut g = Graph::new(3);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    fn counts() {
        let g = complete(5);
        assert_eq!(g.n(), 5);
        assert_eq!(g.m(), 10);
        assert_eq!(g.edges().len(), 10);
    }
}
