//! The one registry of built-in system families. Every command resolves
//! its system here: `analyze`, `lint`, `elect`, `report` and `dot` take a
//! spec like `ring:5`, while `verify`, `faults` and `soak` take
//! `--family NAME [--procs N]`. Each family has one constructor, one size
//! rule checked before the constructor's own asserts can fire, and one
//! pair of default sizes; `list` and the usage text read the same table.

use crate::flags::{self, Flags, Kind};
use simsym::graph::{topology, SystemGraph};
use simsym::vm::{SystemInit, Value};
use simsym_graph::ProcId;

/// The most processor–variable edges a family may be built with. The
/// graph's flat arrays grow with the edge count, and a size past this can
/// exhaust memory before any check runs (`ring:200000000` asks for
/// 1.6 GB); an allocation failure aborts the process, which no
/// `catch_unwind` in the farm can stop.
const MAX_EDGES: usize = 1 << 22;

/// What a family's size parameter must satisfy.
#[derive(Clone, Copy)]
enum Rule {
    /// A fixed figure: no parameter (one given is ignored).
    Fixed,
    /// At least this many processors.
    AtLeast(usize),
    /// An even count of at least this many processors.
    Even(usize),
    /// A dimension in `1..=26`; as a processor count, a power of two.
    Dimension,
    /// `PxV`: positive processor and variable counts.
    Board,
}

/// The processor counts the `--family` commands run a family at.
#[derive(Clone, Copy)]
pub struct Procs {
    /// `verify`'s default `--procs`.
    pub verify: usize,
    /// The size `faults` runs at and `soak`'s default `--procs`.
    pub faults: usize,
}

/// One built-in family.
pub struct Family {
    /// The spec keyword (`ring` in `ring:5`), also the `--family` value.
    pub name: &'static str,
    /// The parameter `list` shows (`N`, `D`, `PxV`); empty for figures.
    param: &'static str,
    about: &'static str,
    rule: Rule,
    /// Builds the topology from a parameter that passed `rule`; only
    /// `board` reads the second argument.
    build: fn(usize, usize) -> SystemGraph,
    /// The processor–variable edge count `build` would produce, or `None`
    /// if it overflows; same arguments as `build`.
    edges: fn(usize, usize) -> Option<usize>,
    /// `Some` for the families `verify`, `faults` and `soak` take.
    procs: Option<Procs>,
}

// One row per family. `procs` holds the `--family` sizes: verify's
// default and the size faults and soak run at.
#[rustfmt::skip]
const FAMILIES: &[Family] = &[
    Family { name: "figure1", param: "", rule: Rule::Fixed,
        build: |_, _| topology::figure1(), edges: |_, _| Some(2), procs: None,
        about: "two processors sharing one variable by the same name (Fig. 1)" },
    Family { name: "figure2", param: "", rule: Rule::Fixed,
        build: |_, _| topology::figure2(), edges: |_, _| Some(6), procs: None,
        about: "the 'complicated alibis' system (Fig. 2)" },
    Family { name: "figure3", param: "", rule: Rule::Fixed,
        build: |_, _| topology::figure3(), edges: |_, _| Some(3), procs: None,
        about: "the fair-S mimicry system (Fig. 3; mark p2 to get the paper's z)" },
    Family { name: "ring", param: "N", rule: Rule::AtLeast(2),
        build: |n, _| topology::uniform_ring(n), edges: |n, _| n.checked_mul(2),
        procs: Some(Procs { verify: 4, faults: 5 }),
        about: "uniform ring of N processors with left/right forks (Fig. 4 for N=5)" },
    Family { name: "marked-ring", param: "N", rule: Rule::AtLeast(3),
        build: |n, _| topology::marked_ring(n), edges: |n, _| n.checked_mul(3), procs: None,
        about: "ring with a structurally marked processor" },
    Family { name: "line", param: "N", rule: Rule::AtLeast(2),
        build: |n, _| topology::line(n), edges: |n, _| n.checked_mul(2), procs: None,
        about: "open line of N processors" },
    Family { name: "star", param: "N", rule: Rule::AtLeast(1),
        build: |n, _| topology::star(n), edges: |n, _| Some(n), procs: None,
        about: "N processors sharing one hub variable" },
    Family { name: "table", param: "N", rule: Rule::AtLeast(2),
        build: |n, _| topology::philosophers_table(n), edges: |n, _| n.checked_mul(2),
        procs: Some(Procs { verify: 4, faults: 6 }),
        about: "alias of ring:N (the dining table)" },
    Family { name: "alternating", param: "N", rule: Rule::Even(2),
        build: |n, _| topology::philosophers_alternating(n), edges: |n, _| n.checked_mul(2),
        procs: Some(Procs { verify: 4, faults: 6 }),
        about: "even-N table with alternating orientation (Fig. 5 for N=6)" },
    Family { name: "hypercube", param: "D", rule: Rule::Dimension,
        build: |d, _| topology::hypercube(d),
        edges: |d, _| 1usize.checked_shl(d as u32)?.checked_mul(d),
        procs: Some(Procs { verify: 8, faults: 8 }),
        about: "D-dimensional hypercube: 2^D processors, one variable per edge" },
    Family { name: "board", param: "PxV", rule: Rule::Board,
        build: topology::shared_board, edges: usize::checked_mul, procs: None,
        about: "P processors sharing V variables under common names" },
];

impl Family {
    /// The spec form `list` and the usage text show: `ring:N`, `figure1`.
    fn spec(&self) -> String {
        if self.param.is_empty() {
            self.name.to_owned()
        } else {
            format!("{}:{}", self.name, self.param)
        }
    }

    /// Checks a size parameter against the family's rule.
    fn check(&self, n: usize) -> Result<(), String> {
        let name = self.name;
        match self.rule {
            Rule::AtLeast(min) | Rule::Even(min) if n < min => {
                Err(format!("{name} needs size >= {min}"))
            }
            Rule::Even(_) if !n.is_multiple_of(2) => Err(format!("{name} needs an even size")),
            Rule::Dimension if n < 1 => Err(format!("{name} needs size >= 1")),
            Rule::Dimension if n > 26 => Err(format!("{name} dimension must be at most 26")),
            _ => Ok(()),
        }
    }

    /// Builds the family at `(a, b)` unless its graph would have more than
    /// [`MAX_EDGES`] processor–variable edges; `size` names the request
    /// in the refusal.
    fn build_bounded(&self, a: usize, b: usize, size: &str) -> Result<SystemGraph, String> {
        match (self.edges)(a, b) {
            Some(edges) if edges <= MAX_EDGES => Ok((self.build)(a, b)),
            _ => Err(format!(
                "{} {size} is too large: more than 2^22 processor-variable edges",
                self.name
            )),
        }
    }

    /// Builds the family from the parameter of a spec (`5` in `ring:5`).
    fn build_spec(&self, param: Option<&str>) -> Result<SystemGraph, String> {
        let name = self.name;
        match self.rule {
            Rule::Fixed => self.build_bounded(0, 0, ""),
            Rule::Board => {
                let usage = || format!("{name} needs PxV, e.g. {name}:3x2");
                let (a, b) = param.and_then(|p| p.split_once('x')).ok_or_else(usage)?;
                let procs: usize = a.parse().map_err(|_| "bad board size")?;
                let vars: usize = b.parse().map_err(|_| "bad board size")?;
                if procs == 0 || vars == 0 {
                    return Err("board sizes must be positive".to_owned());
                }
                self.build_bounded(procs, vars, &format!("{procs}x{vars}"))
            }
            _ => {
                let p = param.ok_or_else(|| format!("{name} needs a size, e.g. {name}:5"))?;
                let n = p.parse().map_err(|_| format!("bad size {p:?}"))?;
                self.check(n)?;
                self.build_bounded(n, 0, &format!("size {n}"))
            }
        }
    }

    /// Builds the family at a processor count (`--procs`); a hypercube
    /// count must be a power of two.
    pub fn build_procs(&self, procs: usize) -> Result<SystemGraph, String> {
        let n = match self.rule {
            Rule::Dimension => {
                if !(2..=(1 << 26)).contains(&procs) || !procs.is_power_of_two() {
                    return Err(format!(
                        "{} needs a power-of-two --procs between 2 and 2^26 (got {procs})",
                        self.name
                    ));
                }
                procs.trailing_zeros() as usize
            }
            _ => procs,
        };
        self.check(n)?;
        self.build_bounded(n, 0, &format!("--procs {procs}"))
    }
}

/// The `--family` names, joined by `sep`.
pub fn family_names(sep: &str) -> String {
    let names: Vec<&str> = FAMILIES
        .iter()
        .filter(|f| f.procs.is_some())
        .map(|f| f.name)
        .collect();
    names.join(sep)
}

/// The `--family` value `cmd` requires.
pub fn family_flag(flags: &Flags, cmd: &str) -> Result<String, String> {
    flags
        .text("--family")
        .ok_or_else(|| format!("{cmd} needs --family <{}>", family_names("|")))
}

/// Resolves a `--family` value to its family and default sizes.
pub fn by_flag(name: &str) -> Result<(&'static Family, Procs), String> {
    FAMILIES
        .iter()
        .find(|f| f.name == name)
        .and_then(|f| Some((f, f.procs?)))
        .ok_or_else(|| format!("unknown family {name:?} (have: {})", family_names(" | ")))
}

/// `simsym list`.
pub fn list() -> String {
    let mut out = String::from("built-in systems:\n");
    for f in FAMILIES {
        out.push_str(&format!("  {:<16} {}\n", f.spec(), f.about));
    }
    out
}

/// The usage text's `systems:` line: every spec form, wrapped at 80
/// columns.
pub fn systems_usage() -> String {
    let mut tokens: Vec<String> = FAMILIES.iter().map(|f| format!("{} |", f.spec())).collect();
    tokens.push("@spec-file.sysg".to_owned());
    let mut out = String::from("systems:");
    let mut width = out.len();
    for token in tokens {
        if width + 1 + token.len() > 80 {
            out.push_str("\n        ");
            width = 8;
        }
        out.push(' ');
        out.push_str(&token);
        width += 1 + token.len();
    }
    out
}

/// Parses a system spec like `ring:5` or `board:3x2`.
pub fn parse_system(spec: &str) -> Result<SystemGraph, String> {
    let (kind, param) = match spec.split_once(':') {
        Some((k, p)) => (k, Some(p)),
        None => (spec, None),
    };
    FAMILIES
        .iter()
        .find(|f| f.name == kind)
        .ok_or_else(|| format!("unknown system {kind:?}"))?
        .build_spec(param)
}

/// Parses `<system> [--mark p0,p1]`. A leading `@` loads a spec file
/// (see `simsym_graph::spec`), whose own `mark` lines seed the init.
pub fn parse_system_args(args: &[String]) -> Result<(SystemGraph, SystemInit), String> {
    let spec = args.first().ok_or("missing system spec")?;
    if let Some(path) = spec.strip_prefix('@') {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let parsed = simsym::graph::parse_spec(&text).map_err(|e| e.to_string())?;
        let mut init = SystemInit::uniform(&parsed.graph);
        for (p, value) in &parsed.marks {
            init.proc_values[p.index()] = Value::from(*value);
        }
        if args.len() > 1 {
            return Err(
                "spec files carry their own marks; flags are not supported with @file".into(),
            );
        }
        return Ok((parsed.graph, init));
    }
    let graph = parse_system(spec)?;
    let flags = flags::parse(&args[1..], &[("--mark", Kind::Str("a processor list"))])?;
    flags.no_rest("flag")?;
    let init = match flags.text("--mark") {
        Some(list) => {
            SystemInit::with_marked(&graph, &parse_marks(&list, graph.processor_count())?)
        }
        None => SystemInit::uniform(&graph),
    };
    Ok((graph, init))
}

fn parse_marks(list: &str, procs: usize) -> Result<Vec<ProcId>, String> {
    list.split(',')
        .map(|tok| {
            let tok = tok.trim().trim_start_matches('p');
            let idx: usize = tok.parse().map_err(|_| format!("bad processor {tok:?}"))?;
            if idx >= procs {
                return Err(format!("processor p{idx} out of range (have {procs})"));
            }
            Ok(ProcId::new(idx))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_closed_forms_match_the_built_graphs() {
        for f in FAMILIES {
            let sizes = match f.rule {
                Rule::Fixed => vec![(0, 0)],
                Rule::Board => vec![(1, 1), (3, 2), (5, 7)],
                Rule::Dimension => vec![(1, 0), (3, 0), (6, 0)],
                Rule::Even(_) => vec![(2, 0), (8, 0)],
                Rule::AtLeast(min) => vec![(min, 0), (min + 5, 0)],
            };
            for (a, b) in sizes {
                let g = (f.build)(a, b);
                let built = g.processor_count() * g.name_count();
                assert_eq!((f.edges)(a, b), Some(built), "{} at ({a}, {b})", f.name);
            }
        }
        // The bound is inclusive: ring:2^21 has exactly 2^22 edges.
        let ring = FAMILIES.iter().find(|f| f.name == "ring").unwrap();
        assert_eq!((ring.edges)(1 << 21, 0), Some(MAX_EDGES));
    }
}
