//! # simsym-graph
//!
//! Bipartite *system graphs* for the machine model of Johnson & Schneider,
//! *Symmetry and Similarity in Distributed Systems* (PODC 1985).
//!
//! A system `Σ = (N, state₀, I, SP)` connects **processors** to **shared
//! variables** through a connected bipartite graph `N` whose edges are
//! labeled with *names*: the local name a processor uses for a variable.
//! The paper requires that every processor has **exactly one `n`-neighbor
//! for each name `n` in `NAMES`**, so a name always denotes a unique
//! variable from a processor's point of view (the `n-nbr` function of §2).
//!
//! This crate provides:
//!
//! * [`SystemGraph`] — the validated network `N`, built through
//!   [`SystemGraphBuilder`];
//! * [`topology`] — generators for rings, stars, lines, random networks and
//!   each figure of the paper ([`topology::figure1`], [`topology::figure2`],
//!   [`topology::figure3`], [`topology::philosophers_table`],
//!   [`topology::philosophers_alternating`]);
//! * [`automorphism`] — the *graph-theoretic* notion of symmetry used in
//!   Section 7 of the paper: two nodes are symmetric iff some automorphism
//!   of the system graph maps one to the other. Orbit computation is exposed
//!   through [`automorphism::orbits`] and pairwise tests through
//!   [`automorphism::are_symmetric`];
//! * [`dot`] — Graphviz export for debugging and documentation.
//!
//! Initial states (`state₀`) are deliberately *not* stored in the graph:
//! Section 5 of the paper studies *homogeneous families* — sets of systems
//! that share a network but differ in their initial states — so states are
//! supplied separately by `simsym-vm`.
//!
//! ```
//! use simsym_graph::{SystemGraph, topology};
//!
//! let ring = topology::uniform_ring(5);
//! assert_eq!(ring.processor_count(), 5);
//! assert_eq!(ring.variable_count(), 5);
//! assert!(ring.is_connected());
//! ```

pub mod automorphism;
pub mod dot;
mod error;
mod ids;
mod names;
pub mod spec;
mod system;
pub mod topology;

pub use error::GraphError;
pub use ids::{Node, ProcId, VarId};
pub use names::{NameId, NameTable};
pub use spec::{parse_spec, to_spec, ParsedSpec, SpecError};
pub use system::{SystemGraph, SystemGraphBuilder};
