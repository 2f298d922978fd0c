//! # simsym — Symmetry and Similarity in Distributed Systems
//!
//! A full reproduction of *“Symmetry and Similarity in Distributed Systems”*
//! (Ralph E. Johnson and Fred B. Schneider, PODC 1985) as an executable Rust
//! library.
//!
//! The paper introduces the **similarity relation**: a model-independent
//! characterization of symmetry in concurrent systems. Two processors are
//! *similar* if some schedule forces them into the same state at the same
//! time infinitely often, for any program — and similar processors can never
//! be told apart, so no deterministic program can elect exactly one of them
//! as a leader (the *selection problem*).
//!
//! This workspace provides:
//!
//! * [`graph`] — the bipartite processor/shared-variable *system graphs* of
//!   the paper, with named edges, the paper's figure topologies, and
//!   graph-automorphism (orbit) machinery for the graph-theoretic notion of
//!   symmetry used in Section 7.
//! * [`vm`] — an executable machine model: instruction sets **S**
//!   (read/write), **L** (S + lock/unlock) and **Q** (peek/post on multiset
//!   variables), schedules (round-robin, fair, k-bounded-fair, adversarial),
//!   traces, and invariant monitors for Uniqueness and Stability.
//! * [`core`] — the similarity theory itself: similarity labelings,
//!   Algorithm 1 (partition refinement, naive and Hopcroft `O(n log n)`),
//!   Algorithm 2 (distributed alibi-based label learning), Algorithm 3
//!   (homogeneous families), Algorithm 4 (selection in L via `relabel`),
//!   mimicry for fair-S systems, the model-power hierarchy, and randomized
//!   symmetry breaking.
//! * [`check`] — the lint subsystem: static lints over system graphs and
//!   topology specs, plus dynamic probe-based checkers (lockset race
//!   detection, lock-order deadlock analysis, lock discipline, ISA
//!   conformance) with stable diagnostic codes.
//! * [`serve`] — the multi-tenant simulation farm: a bounded job queue,
//!   a fixed worker pool, and content-addressed
//!   artifact store behind a std-only HTTP/1.1 + NDJSON wire protocol
//!   (`simsym serve` / `simsym submit`).
//! * [`mp`] — a message-passing substrate and its reduction to Q-systems.
//! * [`philo`] — the Dining Philosophers case study: the impossibility for
//!   five philosophers (DP), the six-philosopher symmetric deterministic
//!   solution (DP′), Chandy–Misra-style encapsulated asymmetry, and the
//!   Lehmann–Rabin randomized algorithm.
//!
//! ## Quickstart
//!
//! Decide whether a ring of processors admits a leader-election (selection)
//! algorithm under each machine model:
//!
//! ```
//! use simsym::graph::topology;
//! use simsym::core::{similarity, decide_selection, Model};
//!
//! // A 5-ring where every processor looks identical.
//! let ring = topology::uniform_ring(5);
//! let labeling = similarity(&ring, Model::Q);
//! // All processors get the same label: no deterministic selection in Q —
//! // and locking does not help a ring either (neighbors use different
//! // names, Theorem 9); on an odd ring only extended locking breaks it
//! // (§6; even rings admit an alternating extended-locking outcome that
//! // still defeats selection).
//! assert!(!labeling.has_uniquely_labeled_processor());
//! assert!(!decide_selection(&ring, Model::L).possible());
//! assert!(decide_selection(&ring, Model::LStar).possible());
//!
//! // Figure 1 — two processors calling one variable by the same name —
//! // is the opposite: unsolvable in Q, solvable in L (they race for the
//! // lock).
//! let fig1 = topology::figure1();
//! assert!(!decide_selection(&fig1, Model::Q).possible());
//! assert!(decide_selection(&fig1, Model::L).possible());
//! ```
//!
//! See `examples/` for end-to-end demonstrations and `EXPERIMENTS.md` for
//! the paper-claim vs. measured-result index.

pub use simsym_check as check;
pub use simsym_core as core;
pub use simsym_graph as graph;
pub use simsym_mp as mp;
pub use simsym_philo as philo;
pub use simsym_serve as serve;
pub use simsym_vm as vm;

/// Crate version of the facade, for diagnostics.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

/// The most commonly used items in one import:
/// `use simsym::prelude::*;`.
pub mod prelude {
    pub use simsym_core::{
        decide_selection, decide_selection_with_init, hopcroft_similarity, similarity,
        similarity_with_init, Labeling, Model,
    };
    pub use simsym_graph::{topology, Node, ProcId, SystemGraph, VarId};
    pub use simsym_vm::{
        run, run_until, InstructionSet, Machine, Program, RoundRobin, Scheduler, SystemInit, Value,
    };
}
