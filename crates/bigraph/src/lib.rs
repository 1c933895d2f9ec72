#![warn(missing_docs)]

//! Uncertain weighted bipartite network substrate.
//!
//! This crate provides the data model the MPMB paper (ICDE 2025) is defined
//! over: an **uncertain bipartite weighted network** `G = (V=(L,R), E, p, w)`
//! (Definition 1), its deterministic **backbone graph** `H`, and **possible
//! worlds** `W_i ⊆ H` obtained by sampling each edge independently with its
//! probability (Definition 2).
//!
//! The graph is stored in compressed sparse row (CSR) form for both sides so
//! neighborhood scans are cache-friendly in the hot sampling loops of the
//! solver crate. Edge weights and probabilities live in dense parallel
//! arrays indexed by [`EdgeId`].
//!
//! # Quick example
//!
//! ```
//! use bigraph::{GraphBuilder, Left, Right};
//!
//! // The uncertain network of Figure 1(a) in the paper.
//! let mut b = GraphBuilder::new();
//! b.add_edge(Left(0), Right(0), 2.0, 0.5).unwrap();
//! b.add_edge(Left(0), Right(1), 2.0, 0.6).unwrap();
//! b.add_edge(Left(0), Right(2), 1.0, 0.8).unwrap();
//! b.add_edge(Left(1), Right(0), 3.0, 0.3).unwrap();
//! b.add_edge(Left(1), Right(1), 3.0, 0.4).unwrap();
//! b.add_edge(Left(1), Right(2), 1.0, 0.7).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.num_edges(), 6);
//! assert_eq!(g.left_degree(Left(0)), 3);
//! ```

pub mod bitset;
pub mod builder;
pub mod codec;
pub mod expected;
pub mod fx;
pub mod generators;
pub mod graph;
pub mod io;
pub mod priority;
pub mod sample;
pub mod stats;
pub mod storage;
pub mod types;
pub mod world;

pub use bitset::BitSet;
pub use builder::{BuildError, GraphBuilder};
pub use codec::{fnv1a64, open_frame, seal_frame, CodecError, Decoder, Encoder};
pub use graph::UncertainBipartiteGraph;
pub use priority::{degree_desc_ranks, VertexPriority};
pub use sample::{
    accept_prob, accept_word, fixed_point_threshold, trial_rng, LazyEdgeSampler, WorldSampler,
    FIXED_POINT_ONE,
};
pub use stats::GraphStats;
pub use storage::{
    peek_container_checksum, read_container_path, section_checksum, write_container,
    write_container_path, ContainerMeta, ContainerReader, StorageError, CONTAINER_MAGIC,
    CONTAINER_VERSION,
};
pub use types::{EdgeId, Left, Right, Side, Vertex, Weight};
pub use world::PossibleWorld;
