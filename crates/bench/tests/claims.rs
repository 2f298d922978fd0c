//! Every experiment but E3 checks the paper's claims it measures and
//! prints exactly its section of `golden/experiments.txt`.
//!
//! The golden is the stdout of
//! `experiments e1 e2 e4 e5 e6 e7 e8 e9 e10 e11`; re-pin it by running
//! that command into the file. E3 is left out: its rows are timings,
//! and its one check (naive = Hopcroft) is property-tested by
//! `naive_and_hopcroft_always_agree`. One test per experiment lets them
//! run in parallel.

use simsym_bench::{report, BANNER};

const GOLDEN: &str = include_str!("golden/experiments.txt");

/// The golden's section for experiment `id`: from its `--- E<n>:`
/// header up to the next section or the end of the file.
fn golden_section(id: &str) -> &'static str {
    let body = GOLDEN
        .strip_prefix(BANNER)
        .expect("the golden starts with the banner");
    let header = format!("--- {}:", id.to_uppercase());
    let start = body
        .find(&header)
        .unwrap_or_else(|| panic!("no {id} section in the golden"));
    let end = body[start + 1..]
        .find("\n--- E")
        .map_or(body.len(), |i| start + 2 + i);
    &body[start..end]
}

/// The golden's lines against the run's, `-` and `+` where they differ.
fn line_diff(want: &str, got: &str) -> String {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut out = String::new();
    for i in 0..want.len().max(got.len()) {
        match (want.get(i), got.get(i)) {
            (Some(w), Some(g)) if w == g => out += &format!("  {w}\n"),
            (w, g) => {
                w.into_iter().for_each(|w| out += &format!("- {w}\n"));
                g.into_iter().for_each(|g| out += &format!("+ {g}\n"));
            }
        }
    }
    out
}

/// Runs experiment `id`: its claims must hold and its section must equal
/// the golden's byte for byte.
fn check(id: &str) {
    let (section, verdict) = report(id).expect("a known experiment");
    if let Err(claim) = verdict {
        panic!("claim failed: {claim}\n{section}");
    }
    let want = golden_section(id);
    assert!(
        section == want,
        "{id} differs from the golden:\n{}",
        line_diff(want, &section)
    );
}

macro_rules! claims {
    ($($id:ident)*) => {$(
        #[test]
        fn $id() {
            check(stringify!($id));
        }
    )*};
}

claims!(e1 e2 e4 e5 e6 e7 e8 e9 e10 e11);
