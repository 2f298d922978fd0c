//! Generators for system-graph topologies, including every figure of the
//! paper.
//!
//! | Constructor | Paper source |
//! |---|---|
//! | [`figure1`] | Fig. 1 — the trivial two-processor system |
//! | [`figure2`] | Fig. 2 — the “complicated alibis” system |
//! | [`figure3`] | Fig. 3 — the fair-S mimicry system |
//! | [`philosophers_table`] | Fig. 4 — `n` philosophers facing the table |
//! | [`philosophers_alternating`] | Fig. 5 — alternating orientation (even `n`) |
//!
//! General-purpose topologies ([`uniform_ring`], [`marked_ring`], [`line()`](fn@line),
//! [`star`], [`shared_board`], [`random_system`]) are used throughout the
//! test suite and the benchmarks.

use crate::{ProcId, SystemGraph, VarId};
use rand::Rng;

/// Conventional names used by the ring topologies.
pub const LEFT: &str = "left";
/// Conventional names used by the ring topologies.
pub const RIGHT: &str = "right";

/// Figure 1 of the paper: two processors sharing a single variable, both
/// calling it by the same name `n`.
///
/// Under instruction set **S** or **Q**, a round-robin schedule makes the
/// two processors behave similarly, so no program can select either
/// (Theorem 2). Under **L** they can break the tie by locking.
///
/// ```
/// let g = simsym_graph::topology::figure1();
/// assert_eq!(g.processor_count(), 2);
/// assert_eq!(g.variable_count(), 1);
/// ```
pub fn figure1() -> SystemGraph {
    let mut b = SystemGraph::builder();
    let n = b.name("n");
    let ps = b.processors(2);
    let v = b.variable();
    for p in ps {
        b.connect(p, n, v).expect("figure1 wiring");
    }
    b.build().expect("figure1 is well formed")
}

/// Figure 2 of the paper: the “complicated alibis” system.
///
/// Three processors `p₁ p₂ p₃` and three variables `v₁ v₂ v₃`:
///
/// * `p₁` and `p₂` call `v₁` by name `a`; `p₃` calls `v₂` by name `a`;
/// * all three call `v₃` by name `b`.
///
/// `p₁ ~ p₂` but `p₁ ≁ p₃`; the distributed label-learning of Algorithm 2
/// needs both kinds of processor alibi to let `p₃` learn its label (§4).
///
/// Node numbering: processors `p0..p2` are the paper's `p₁..p₃`; variables
/// `v0..v2` are `v₁..v₃`.
pub fn figure2() -> SystemGraph {
    let mut b = SystemGraph::builder();
    let a = b.name("a");
    let bb = b.name("b");
    let ps = b.processors(3);
    let vs = b.variables(3);
    b.connect(ps[0], a, vs[0]).expect("figure2 wiring");
    b.connect(ps[1], a, vs[0]).expect("figure2 wiring");
    b.connect(ps[2], a, vs[1]).expect("figure2 wiring");
    for p in ps {
        b.connect(p, bb, vs[2]).expect("figure2 wiring");
    }
    b.build().expect("figure2 is well formed")
}

/// Figure 3 of the paper: the fair-S mimicry system.
///
/// Processors `p`, `q`, `z` (ids `p0`, `p1`, `p2`) and variables `u`, `w`:
/// `p` has a private variable `u` while `q` and `z` share `w`, all under the
/// single name `a`. With `z` given a distinguished initial state, `p` and
/// `q` are *dissimilar* under the bounded-fair-S labeling — yet in a fair
/// (not bounded-fair) system `p` **mimics** `q`: as long as `z` takes no
/// step, `q`'s world is indistinguishable from `p`'s, so no distributed
/// algorithm can let processors learn their labels (§6).
///
/// The system is intentionally *disconnected* (`{p, u}` vs `{q, z, w}`):
/// the mimicry obstruction is exactly that `p`'s component is a perfect
/// stand-in for the subsystem of `q`'s component in which `z` never acts.
pub fn figure3() -> SystemGraph {
    let mut b = SystemGraph::builder();
    let a = b.name("a");
    let ps = b.processors(3);
    let u = b.variable();
    let w = b.variable();
    b.connect(ps[0], a, u).expect("figure3 wiring");
    b.connect(ps[1], a, w).expect("figure3 wiring");
    b.connect(ps[2], a, w).expect("figure3 wiring");
    b.build().expect("figure3 is well formed")
}

/// A ring of `n` processors with a shared variable (a *fork*) between each
/// adjacent pair, all processors oriented the same way.
///
/// Processor `i` calls variable `i` its **right** neighbor and variable
/// `(i + n − 1) mod n` its **left** neighbor; so variable `i` sits between
/// processors `i` (right) and `i+1` (left). For `n = 5` this is exactly
/// Figure 4 — the dining-philosophers table.
///
/// # Panics
///
/// Panics if `n < 2` (a self-loop ring would give a processor the same
/// variable under two names, which is legal, but degenerate — use
/// [`figure1`] for the 2-node case with one name).
pub fn uniform_ring(n: usize) -> SystemGraph {
    assert!(n >= 2, "ring needs at least 2 processors");
    // Bulk construction: identical graph to the builder version (same name
    // interning order, same ids), but O(n) flat arrays instead of n hash
    // maps — this is what lets 10^5–10^6-processor rings build instantly.
    SystemGraph::from_fn(&[LEFT, RIGHT], n, n, |p, name| {
        if name == 0 {
            (p + n - 1) % n // left
        } else {
            p // right
        }
    })
    .expect("ring is well formed")
}

/// Figure 4 of the paper: `n` philosophers facing the table (the classical
/// dining arrangement). Equivalent to [`uniform_ring`].
pub fn philosophers_table(n: usize) -> SystemGraph {
    uniform_ring(n)
}

/// Figure 5 of the paper: `n` philosophers (even `n`) with **alternate
/// philosophers turned away from the table**, so each fork is called by the
/// *same* name by both of its users: forks alternate right–right and
/// left–left around the ring.
///
/// Even-indexed philosophers face the table (`right → fork i`,
/// `left → fork i−1`); odd-indexed philosophers have their backs turned
/// (`right → fork i−1`, `left → fork i`). The resulting system is symmetric
/// in the graph-theoretic sense (every philosopher maps to every other by
/// an automorphism) yet *not all philosophers are similar* — this is what
/// makes the six-philosopher problem solvable (DP′, §7).
///
/// # Panics
///
/// Panics if `n` is odd or `n < 2`: the alternating orientation requires an
/// even cycle.
pub fn philosophers_alternating(n: usize) -> SystemGraph {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "alternating table requires even n >= 2"
    );
    // Flat construction (see `uniform_ring`): even philosophers face the
    // table (right = fwd), odd ones sit turned away (right = back).
    SystemGraph::from_fn(&[LEFT, RIGHT], n, n, |p, name| {
        let fwd = p;
        let back = (p + n - 1) % n;
        if (p % 2 == 0) == (name == 1) {
            fwd
        } else {
            back
        }
    })
    .expect("alternating table is well formed")
}

/// A [`uniform_ring`] of `n` processors where processor `0` is *marked*:
/// every processor gains a `token` neighbor, but processor `0` has a private
/// token variable while all others share a common one.
///
/// The mark breaks similarity in every instruction set (the private token
/// variable has degree 1, the shared one degree `n−1`), so selection is
/// solvable even in **Q** — a convenient positive control for the test
/// suite.
///
/// # Panics
///
/// Panics if `n < 3` (with fewer processors the “shared” token variable
/// would not distinguish anything).
pub fn marked_ring(n: usize) -> SystemGraph {
    assert!(n >= 3, "marked ring needs at least 3 processors");
    // Variables 0..n are the ring, n is p0's private token, n+1 the shared
    // token. Same layout the builder version produced, built flat.
    SystemGraph::from_fn(&[LEFT, RIGHT, "token"], n, n + 2, |p, name| match name {
        0 => (p + n - 1) % n,         // left
        1 => p,                       // right
        _ => n + usize::from(p != 0), // token: private for p0
    })
    .expect("marked ring is well formed")
}

/// An open line of `n` processors: like [`uniform_ring`] but the ends are
/// closed off with private end variables, so the two end processors are
/// structurally distinguished.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn line(n: usize) -> SystemGraph {
    assert!(n >= 2, "line needs at least 2 processors");
    let mut b = SystemGraph::builder();
    let left = b.name(LEFT);
    let right = b.name(RIGHT);
    let ps = b.processors(n);
    // n - 1 interior variables plus 2 end caps.
    let interior = b.variables(n - 1);
    let cap_l = b.variable();
    let cap_r = b.variable();
    for i in 0..n {
        let lv = if i == 0 { cap_l } else { interior[i - 1] };
        let rv = if i == n - 1 { cap_r } else { interior[i] };
        b.connect(ps[i], left, lv).expect("line wiring");
        b.connect(ps[i], right, rv).expect("line wiring");
    }
    b.build().expect("line is well formed")
}

/// A star: `n` leaf processors all sharing one hub variable under the name
/// `hub`. Not *distributed* in the §7 sense (the hub is accessed by every
/// processor).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize) -> SystemGraph {
    assert!(n > 0, "star needs at least one processor");
    let mut b = SystemGraph::builder();
    let hub = b.name("hub");
    let ps = b.processors(n);
    let v = b.variable();
    for p in ps {
        b.connect(p, hub, v).expect("star wiring");
    }
    b.build().expect("star is well formed")
}

/// A fully shared board: `p` processors each see the same `v` variables
/// under names `slot0..slot{v-1}`. Maximally symmetric: all processors are
/// interchangeable.
///
/// # Panics
///
/// Panics if `p == 0` or `v == 0`.
pub fn shared_board(p: usize, v: usize) -> SystemGraph {
    assert!(
        p > 0 && v > 0,
        "shared board needs processors and variables"
    );
    let mut b = SystemGraph::builder();
    let names: Vec<_> = (0..v).map(|i| b.name(&format!("slot{i}"))).collect();
    let ps = b.processors(p);
    let vs = b.variables(v);
    for &proc in &ps {
        for (i, &name) in names.iter().enumerate() {
            b.connect(proc, name, vs[i]).expect("board wiring");
        }
    }
    b.build().expect("shared board is well formed")
}

/// A pseudo-random system: `procs` processors, `vars` variables and
/// `names` edge names; every processor is connected to a uniformly random
/// variable under each name. Variables left unreferenced are removed.
///
/// Used by the property tests and the scaling benchmarks (E3).
///
/// # Panics
///
/// Panics if any argument is zero.
pub fn random_system<R: Rng>(procs: usize, vars: usize, names: usize, rng: &mut R) -> SystemGraph {
    assert!(
        procs > 0 && vars > 0 && names > 0,
        "all sizes must be positive"
    );
    // First pick the assignments, then rebuild with only-used variables so
    // ids stay dense.
    let assign: Vec<Vec<usize>> = (0..procs)
        .map(|_| (0..names).map(|_| rng.gen_range(0..vars)).collect())
        .collect();
    let mut used: Vec<Option<VarId>> = vec![None; vars];
    let mut b = SystemGraph::builder();
    let name_ids: Vec<_> = (0..names).map(|i| b.name(&format!("n{i}"))).collect();
    let ps = b.processors(procs);
    for (pi, row) in assign.iter().enumerate() {
        for (ni, &vi) in row.iter().enumerate() {
            let v = *used[vi].get_or_insert_with(|| b.variable());
            b.connect(ps[pi], name_ids[ni], v).expect("random wiring");
        }
    }
    b.build().expect("random system is well formed")
}

/// A complete `arity`-ary tree of the given `depth` (depth 0 = a single
/// root): each tree edge is one shared variable, named `up` by the child
/// and `down{i}` by the parent for its `i`-th child. Leaves and the root
/// pad the unused names with private variables.
///
/// Trees are a natural similarity test bed: with uniform initial states,
/// processors at the same depth are similar, so selection is solvable in
/// Q (the root is uniquely labeled) — asymmetry from *shape* rather than
/// initial state.
///
/// # Panics
///
/// Panics if `arity == 0`.
pub fn tree(arity: usize, depth: usize) -> SystemGraph {
    assert!(arity > 0, "tree needs positive arity");
    let mut b = SystemGraph::builder();
    let up = b.name("up");
    let downs: Vec<_> = (0..arity).map(|i| b.name(&format!("down{i}"))).collect();
    // Breadth-first processor layout.
    let mut levels: Vec<Vec<ProcId>> = Vec::new();
    let mut count = 1usize;
    for _ in 0..=depth {
        levels.push(b.processors(count));
        count *= arity;
    }
    // Root's "up" is a private variable.
    let root_up = b.variable();
    b.connect(levels[0][0], up, root_up).expect("tree wiring");
    for d in 0..=depth {
        for (pi, &p) in levels[d].clone().iter().enumerate() {
            for (ci, &dn) in downs.iter().enumerate() {
                if d < depth {
                    let child = levels[d + 1][pi * arity + ci];
                    let v = b.variable();
                    b.connect(p, dn, v).expect("tree wiring");
                    b.connect(child, up, v).expect("tree wiring");
                } else {
                    // Leaves: private pads for the down names.
                    let v = b.variable();
                    b.connect(p, dn, v).expect("tree wiring");
                }
            }
        }
    }
    b.build().expect("tree is well formed")
}

/// A `w × h` torus: processors on a wrap-around grid, a shared variable
/// per grid edge, names `east`/`west`/`north`/`south`. Fully
/// vertex-transitive for `w, h ≥ 2` — a two-dimensional generalization of
/// the uniform ring.
///
/// # Panics
///
/// Panics if `w < 2` or `h < 2`.
pub fn torus(w: usize, h: usize) -> SystemGraph {
    assert!(w >= 2 && h >= 2, "torus needs both sides >= 2");
    let mut b = SystemGraph::builder();
    let east = b.name("east");
    let west = b.name("west");
    let north = b.name("north");
    let south = b.name("south");
    let ps = b.processors(w * h);
    let at = |x: usize, y: usize| ps[(y % h) * w + (x % w)];
    // Horizontal edges: h_vars[y][x] sits east of (x, y).
    for y in 0..h {
        for x in 0..w {
            let v = b.variable();
            b.connect(at(x, y), east, v).expect("torus wiring");
            b.connect(at(x + 1, y), west, v).expect("torus wiring");
        }
    }
    // Vertical edges: south of (x, y).
    for y in 0..h {
        for x in 0..w {
            let v = b.variable();
            b.connect(at(x, y), south, v).expect("torus wiring");
            b.connect(at(x, y + 1), north, v).expect("torus wiring");
        }
    }
    b.build().expect("torus is well formed")
}

/// A `dim`-dimensional hypercube: `2^dim` processors, one shared variable
/// per cube edge (`dim · 2^(dim−1)` of them), names `dim0..dim{d−1}` — each
/// processor calls the edge along axis `d` its `dim{d}` neighbor. Fully
/// vertex-transitive, so every processor is graph-symmetric to every other;
/// the canonical "large regular topology" for the 10^5–10^6 scale tier
/// (`dim = 17` is 131,072 processors, `dim = 20` is 1,048,576).
///
/// Edge along axis `d` incident to nodes `u` and `u | (1 << d)` (where `u`
/// has bit `d` clear) gets variable index `d · 2^(dim−1) + rank(u)`, with
/// `rank(u)` = `u` with bit `d` deleted — a bijection onto
/// `0..dim·2^(dim−1)`.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim > 26` (2^26 processors ≈ the point where
/// the adjacency alone outgrows a small container).
pub fn hypercube(dim: usize) -> SystemGraph {
    assert!((1..=26).contains(&dim), "hypercube needs 1 <= dim <= 26");
    let names: Vec<String> = (0..dim).map(|d| format!("dim{d}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let procs = 1usize << dim;
    let half = procs >> 1;
    SystemGraph::from_fn(&name_refs, procs, dim * half, |p, d| {
        let u = p & !(1 << d); // lower endpoint of the edge along axis d
        let low = u & ((1 << d) - 1);
        let high = (u >> (d + 1)) << d;
        d * half + (high | low)
    })
    .expect("hypercube is well formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ring_from_fn_matches_builder() {
        // The flat construction must produce the *identical* graph the
        // builder produced before the CSR rewrite: same ids, same edges.
        for n in [2, 3, 7, 16] {
            let fast = uniform_ring(n);
            let mut b = SystemGraph::builder();
            let left = b.name(LEFT);
            let right = b.name(RIGHT);
            let ps = b.processors(n);
            let vs = b.variables(n);
            for i in 0..n {
                b.connect(ps[i], right, vs[i]).unwrap();
                b.connect(ps[i], left, vs[(i + n - 1) % n]).unwrap();
            }
            assert_eq!(fast, b.build().unwrap(), "ring n={n}");
        }
    }

    #[test]
    fn hypercube_shape() {
        for dim in 1..=6 {
            let g = hypercube(dim);
            assert_eq!(g.processor_count(), 1 << dim);
            assert_eq!(g.variable_count(), dim << (dim - 1));
            assert!(g.is_connected(), "dim={dim}");
            // dim 1 is two processors around one variable — not distributed.
            assert_eq!(g.is_distributed(), dim >= 2, "dim={dim}");
            // Every edge variable joins exactly two processors, and the two
            // endpoints differ in exactly the bit matching the name's axis.
            for v in g.variables() {
                let edges = g.variable_edges(v);
                assert_eq!(edges.len(), 2, "dim={dim} v={v:?}");
                let (p, n) = edges[0];
                let (q, m) = edges[1];
                assert_eq!(n, m);
                assert_eq!(p.index() ^ q.index(), 1 << n.index());
            }
        }
    }

    #[test]
    fn figure1_shape() {
        let g = figure1();
        assert_eq!(g.processor_count(), 2);
        assert_eq!(g.variable_count(), 1);
        assert_eq!(g.variable_degree(VarId::new(0)), 2);
        assert!(g.is_connected());
        assert!(!g.is_distributed()); // the single variable is shared by all
    }

    #[test]
    fn figure2_shape() {
        let g = figure2();
        assert_eq!(g.processor_count(), 3);
        assert_eq!(g.variable_count(), 3);
        assert_eq!(g.degree_sequence(), vec![1, 2, 3]);
        assert!(g.is_connected());
    }

    #[test]
    fn figure3_shape() {
        let g = figure3();
        assert_eq!(g.processor_count(), 3);
        assert_eq!(g.variable_count(), 2);
        assert_eq!(g.degree_sequence(), vec![1, 2]);
        // Deliberately disconnected: p's component mirrors the subsystem of
        // q's component without z.
        assert!(!g.is_connected());
    }

    #[test]
    fn ring_is_regular() {
        for n in [2, 3, 5, 8] {
            let g = uniform_ring(n);
            assert_eq!(g.processor_count(), n);
            assert_eq!(g.variable_count(), n);
            assert!(g.is_connected());
            assert!(g.degree_sequence().iter().all(|&d| d == 2));
        }
    }

    #[test]
    fn ring_adjacency_orientation() {
        let g = uniform_ring(4);
        let left = g.names().get(LEFT).unwrap();
        let right = g.names().get(RIGHT).unwrap();
        for i in 0..4 {
            let p = ProcId::new(i);
            let next = ProcId::new((i + 1) % 4);
            // p's right fork is next's left fork.
            assert_eq!(g.n_nbr(p, right), g.n_nbr(next, left));
        }
    }

    #[test]
    fn alternating_table_shares_names() {
        let g = philosophers_alternating(6);
        let left = g.names().get(LEFT).unwrap();
        let right = g.names().get(RIGHT).unwrap();
        // Every fork is called by the same name by both its users.
        for v in g.variables() {
            let rights: Vec<_> = g.variable_n_neighbors(v, right).collect();
            let lefts: Vec<_> = g.variable_n_neighbors(v, left).collect();
            assert!(
                (rights.len() == 2 && lefts.is_empty()) || (lefts.len() == 2 && rights.is_empty()),
                "fork {v} should be right-right or left-left"
            );
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn alternating_table_rejects_odd() {
        let _ = philosophers_alternating(5);
    }

    #[test]
    fn marked_ring_distinguishes_p0() {
        let g = marked_ring(5);
        assert_eq!(g.processor_count(), 5);
        assert_eq!(g.variable_count(), 7);
        let token = g.names().get("token").unwrap();
        let private = g.n_nbr(ProcId::new(0), token);
        let shared = g.n_nbr(ProcId::new(1), token);
        assert_ne!(private, shared);
        assert_eq!(g.variable_degree(private), 1);
        assert_eq!(g.variable_degree(shared), 4);
    }

    #[test]
    fn line_end_caps_have_degree_one() {
        let g = line(4);
        assert_eq!(g.processor_count(), 4);
        assert_eq!(g.variable_count(), 5);
        let degs = g.degree_sequence();
        assert_eq!(degs, vec![1, 1, 2, 2, 2]);
        assert!(g.is_connected());
    }

    #[test]
    fn star_is_centralized() {
        let g = star(4);
        assert!(!g.is_distributed());
        assert_eq!(g.variable_degree(VarId::new(0)), 4);
    }

    #[test]
    fn shared_board_fully_connected() {
        let g = shared_board(3, 2);
        assert_eq!(g.edge_count(), 6);
        for v in g.variables() {
            assert_eq!(g.variable_degree(v), 3);
        }
    }

    #[test]
    fn random_system_is_valid_and_deterministic_per_seed() {
        let mut rng1 = StdRng::seed_from_u64(42);
        let mut rng2 = StdRng::seed_from_u64(42);
        let g1 = random_system(10, 6, 3, &mut rng1);
        let g2 = random_system(10, 6, 3, &mut rng2);
        assert_eq!(g1, g2);
        assert_eq!(g1.processor_count(), 10);
        assert!(g1.variable_count() <= 6);
        // Every variable kept is referenced.
        for v in g1.variables() {
            assert!(g1.variable_degree(v) >= 1);
        }
    }

    #[test]
    fn tree_shape_and_levels() {
        let g = tree(2, 2);
        assert_eq!(g.processor_count(), 7);
        // 6 tree vars + 1 root pad + 4 leaves x 2 pads = 15 vars.
        assert_eq!(g.variable_count(), 15);
        assert!(g.is_connected());
        // Root's up-var has degree 1; internal tree vars degree 2.
        let up = g.names().get("up").unwrap();
        let root_up = g.n_nbr(ProcId::new(0), up);
        assert_eq!(g.variable_degree(root_up), 1);
    }

    #[test]
    #[should_panic(expected = "positive arity")]
    fn tree_rejects_zero_arity() {
        let _ = tree(0, 2);
    }

    #[test]
    fn torus_is_regular_and_connected() {
        let g = torus(3, 4);
        assert_eq!(g.processor_count(), 12);
        assert_eq!(g.variable_count(), 24);
        assert!(g.is_connected());
        assert!(g.degree_sequence().iter().all(|&d| d == 2));
        // Wrap-around: east of (w-1, y) is west of (0, y).
        let east = g.names().get("east").unwrap();
        let west = g.names().get("west").unwrap();
        assert_eq!(g.n_nbr(ProcId::new(2), east), g.n_nbr(ProcId::new(0), west));
    }

    #[test]
    #[should_panic(expected = "both sides")]
    fn torus_rejects_thin() {
        let _ = torus(1, 5);
    }
}
