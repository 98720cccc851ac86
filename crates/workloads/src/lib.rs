//! # psdp-workloads
//!
//! Instance generators for the experiments (all deterministic in a seed):
//!
//! * [`beamforming`] — synthetic downlink-beamforming covering SDPs (the
//!   IPS'10 application the paper names as fully inside its framework),
//! * [`random`] — random factorized packing instances with a width knob,
//! * [`diagonal`] — positive-LP (diagonal) instances for cross-validation,
//! * [`ellipse`] — 2-D ellipse packing incl. the Figure 1 instance,
//! * [`commuting`] — simultaneously diagonalizable families with exact
//!   optima,
//! * [`graphs`] — edge-Laplacian packing over random/grid graphs,
//! * [`mixed`] — mixed packing–covering instances (diagonal-embedded LPs
//!   and graph edge-cover families) for the Jain–Yao solver,
//! * [`stream`] — zipf-repeated serving request streams for the
//!   `psdp-serve` scheduler and the `serve_throughput` bench.

#![warn(missing_docs)]

pub mod beamforming;
pub mod commuting;
pub mod diagonal;
pub mod ellipse;
pub mod graphs;
pub mod mixed;
pub mod random;
pub mod stream;

pub use beamforming::{beamforming_sdp, Beamforming};
pub use commuting::{commuting_family, CommutingFamily};
pub use diagonal::{diagonal_columns, random_lp_diagonal, set_cover_packing};
pub use ellipse::{figure1_instance, Ellipse};
pub use graphs::{edge_packing, edge_packing_sparse, gnp, grid, vertex_star_packing};
pub use mixed::{mixed_edge_cover, mixed_lp_diagonal};
pub use random::{random_factorized, RandomFactorized};
pub use stream::{
    mixed_request_stream, multi_client_streams, request_stream, stream_frames, stream_jsonl,
    KindedRequest, MixedStreamSpec, RequestStreamSpec, StreamBatch, StreamKind, StreamRequest,
};
