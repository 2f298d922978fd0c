//! The one flag parser every subcommand shares. A command declares its
//! flags in a [`Table`]; [`parse`] walks the argv once, types and checks
//! each value, rejects a flag given twice, and hands back every token the
//! table does not name as a positional, in order.

/// What a flag takes. The `&str` names the value in error messages.
#[derive(Clone, Copy)]
pub enum Kind {
    /// Present or absent.
    Switch,
    /// A switch that also takes the next token as its value unless that
    /// token is itself a flag (`analyze --trace [FILE]`).
    OptStr,
    /// An unsigned integer: `bad seed "x"`.
    U64(&'static str),
    /// A `usize`: `bad depth "x"`.
    Usize(&'static str),
    /// A positive integer; the noun is one unit: `at least one seed`.
    Count(&'static str),
    /// Any string; the noun is what is missing: `--repro-out needs a file`.
    Str(&'static str),
    /// One of a fixed list of names: `unknown reduction "x" (have: ...)`.
    Enum(&'static str, &'static [&'static str]),
}

/// A subcommand's flags: each name with what it takes.
pub type Table = [(&'static str, Kind)];

// Flags several subcommands share.
pub const JSON: (&str, Kind) = ("--json", Kind::Switch);
pub const JOURNAL: (&str, Kind) = ("--journal", Kind::Switch);
pub const SEED: (&str, Kind) = ("--seed", Kind::U64("seed"));
pub const STEPS: (&str, Kind) = ("--steps", Kind::U64("step count"));
pub const FAMILY: (&str, Kind) = ("--family", Kind::Str("a value"));
pub const PROCS: (&str, Kind) = ("--procs", Kind::Usize("processor count"));
pub const PROGRAM: (&str, Kind) = ("--program", Kind::Str("a fixture name"));
pub const ADDR: (&str, Kind) = ("--addr", Kind::Str("a value"));

enum Value {
    On,
    Num(u64),
    Text(String),
}

/// What [`parse`] found: typed flag values plus the positionals.
pub struct Flags {
    values: Vec<(&'static str, Value)>,
    /// Every token the table did not name, in order.
    pub rest: Vec<String>,
}

/// Parses `args` against `table`.
pub fn parse(args: &[String], table: &Table) -> Result<Flags, String> {
    let mut flags = Flags {
        values: Vec::new(),
        rest: Vec::new(),
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let Some(&(name, kind)) = table.iter().find(|(name, _)| name == arg) else {
            flags.rest.push(arg.clone());
            continue;
        };
        if flags.get(name).is_some() {
            return Err(format!("{name} given twice"));
        }
        let value = match kind {
            Kind::Switch => Value::On,
            Kind::OptStr => match it.next_if(|v| !v.starts_with("--")) {
                Some(v) => Value::Text(v.clone()),
                None => Value::On,
            },
            _ => {
                let v = it.next().ok_or_else(|| match kind {
                    Kind::Str(what) => format!("{name} needs {what}"),
                    Kind::Enum(_, names) => format!("{name} needs one of {}", names.join(" | ")),
                    _ => format!("{name} needs a value"),
                })?;
                typed(name, kind, v)?
            }
        };
        flags.values.push((name, value));
    }
    Ok(flags)
}

/// Checks one flag value against its kind.
fn typed(name: &str, kind: Kind, v: &str) -> Result<Value, String> {
    match kind {
        Kind::U64(what) => v
            .parse()
            .map(Value::Num)
            .map_err(|_| format!("bad {what} {v:?}")),
        Kind::Usize(what) => v
            .parse::<usize>()
            .map(|n| Value::Num(n as u64))
            .map_err(|_| format!("bad {what} {v:?}")),
        Kind::Count(unit) => v
            .parse()
            .ok()
            .filter(|&n| n > 0)
            .map(Value::Num)
            .ok_or_else(|| {
                format!("{name} needs a positive integer: at least one {unit} (got {v:?})")
            }),
        Kind::Enum(what, names) if !names.contains(&v) => Err(format!(
            "unknown {what} {v:?} (have: {})",
            names.join(" | ")
        )),
        _ => Ok(Value::Text(v.to_owned())),
    }
}

impl Flags {
    fn get(&self, name: &str) -> Option<&Value> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
    }

    /// Whether the flag was given (with or without a value).
    pub fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// A `U64` or `Count` flag's value.
    pub fn u64(&self, name: &str) -> Option<u64> {
        match self.get(name) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// A `Usize` or `Count` flag's value.
    pub fn usize(&self, name: &str) -> Option<usize> {
        self.u64(name).map(|n| n as usize)
    }

    /// A `Str`, `Enum` or valued `OptStr` flag's value.
    pub fn text(&self, name: &str) -> Option<String> {
        match self.get(name) {
            Some(Value::Text(s)) => Some(s.clone()),
            _ => None,
        }
    }

    /// Errors on the first positional, for commands that take none.
    pub fn no_rest(&self, what: &str) -> Result<(), String> {
        match self.rest.first() {
            Some(tok) => Err(format!("unknown {what} {tok:?}")),
            None => Ok(()),
        }
    }
}
