//! Dynamic values stored in processor registers and shared variables.
//!
//! The paper makes *no assumption about the number of possible states* of a
//! processor or variable (§2), so the simulator uses a small dynamic value
//! type instead of a fixed word size. Crucially, [`Value`] is totally
//! ordered and hashable: the *definition* of similarity compares the full
//! states of different processors for equality, and canonical ordering keeps
//! every container deterministic.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, OnceLock, RwLock};

/// A dynamic value: the contents of a register, a shared variable, or a
/// posted subvalue.
///
/// `Value` is deliberately closed under tupling and (multi)set formation so
/// that programs like Algorithm 2 — which circulate *sets of suspected
/// labels* — can be written directly.
///
/// ```
/// use simsym_vm::Value;
/// let v = Value::tuple([Value::from(1), Value::set([Value::from(true)])]);
/// assert_eq!(v.to_string(), "(1, {true})");
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub enum Value {
    /// The unit (uninitialized) value.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A signed integer.
    Int(i64),
    /// An interned symbol — used for similarity labels and program tags.
    Sym(u32),
    /// An ordered tuple. The elements are behind an [`Arc`], as a bag's
    /// map is, so cloning a tuple-holding register is a refcount bump;
    /// in-place register updates go through [`Arc::make_mut`] and copy
    /// only when the storage is shared.
    Tuple(Arc<[Value]>),
    /// A set (no duplicates, canonically ordered), `Arc`-shared like a
    /// tuple.
    Set(Arc<[Value]>),
    /// A multiset (bag), canonically ordered with multiplicities. The map
    /// is behind an [`Arc`] so cloning a bag-holding register is a
    /// refcount bump, not a deep map copy — `Arc`'s `Eq`/`Ord`/`Hash` all
    /// delegate to the map, so observable semantics are unchanged.
    Bag(Arc<BTreeMap<Value, usize>>),
}

impl Value {
    /// Builds a tuple value.
    pub fn tuple<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Tuple(items.into_iter().collect())
    }

    /// Builds a set value; duplicates are merged and order is canonical.
    pub fn set<I: IntoIterator<Item = Value>>(items: I) -> Value {
        // Sorted in its final allocation: collecting a sized iterator
        // allocates the `Arc` once, and only duplicates cost a copy.
        let mut set: Arc<[Value]> = items.into_iter().collect();
        let sorted = Arc::get_mut(&mut set).expect("a collected Arc is unshared");
        sorted.sort();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            let mut unique = sorted.to_vec();
            unique.dedup();
            set = unique.into();
        }
        Value::Set(set)
    }

    /// Builds a bag (multiset) value.
    pub fn bag<I: IntoIterator<Item = Value>>(items: I) -> Value {
        let mut m = BTreeMap::new();
        for item in items {
            *m.entry(item).or_insert(0) += 1;
        }
        Value::Bag(Arc::new(m))
    }

    /// A symbol value.
    pub fn sym(id: u32) -> Value {
        Value::Sym(id)
    }

    /// Whether this is [`Value::Unit`].
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// The boolean payload, if any.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if any.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The symbol payload, if any.
    pub fn as_sym(&self) -> Option<u32> {
        match self {
            Value::Sym(s) => Some(*s),
            _ => None,
        }
    }

    /// The tuple elements, if this is a tuple.
    pub fn as_tuple(&self) -> Option<&[Value]> {
        match self {
            Value::Tuple(items) => Some(items),
            _ => None,
        }
    }

    /// The set elements (canonically ordered), if this is a set.
    pub fn as_set(&self) -> Option<&[Value]> {
        match self {
            Value::Set(items) => Some(items),
            _ => None,
        }
    }

    /// Number of elements in a set, tuple, or bag (with multiplicity);
    /// `None` for scalar values.
    pub fn len(&self) -> Option<usize> {
        match self {
            Value::Tuple(items) | Value::Set(items) => Some(items.len()),
            Value::Bag(m) => Some(m.values().sum()),
            _ => None,
        }
    }

    /// Whether the container is empty; `None` for scalar values.
    pub fn is_empty(&self) -> Option<bool> {
        self.len().map(|n| n == 0)
    }

    /// Approximate heap footprint of this value in bytes, excluding the
    /// inline `size_of::<Value>()` of `self` itself. Used by the scale-tier
    /// bench rows to report bytes/processor analytically.
    pub fn approx_heap_bytes(&self) -> usize {
        match self {
            Value::Unit | Value::Bool(_) | Value::Int(_) | Value::Sym(_) => 0,
            Value::Tuple(items) | Value::Set(items) => {
                items.len() * std::mem::size_of::<Value>()
                    + items.iter().map(Value::approx_heap_bytes).sum::<usize>()
            }
            Value::Bag(m) => m
                .keys()
                .map(|v| {
                    // BTreeMap node overhead is amortised to roughly one
                    // (key, value) pair plus a pointer per entry.
                    std::mem::size_of::<Value>()
                        + std::mem::size_of::<usize>()
                        + std::mem::size_of::<usize>()
                        + v.approx_heap_bytes()
                })
                .sum(),
        }
    }
}

/// A dense process-global id for an interned [`Value`].
///
/// Q-ISA multiset variables store one subvalue per posting processor. In
/// practice programs circulate a small alphabet of distinct values (labels,
/// suspect sets, phase tuples), so [`SharedVar::Multi`] stores subvalues as
/// `ValueId`s and keeps a `(ValueId, count)` multiset — `post` becomes two
/// counter updates instead of a `BTreeMap` clone, and the canonical peek
/// view is patched incrementally. This mirrors the global [`RegId`] name
/// interner from the register file.
///
/// Interned ids are ordered by *interning time*, not value order; resolve
/// to [`Value`] before any ordering-sensitive comparison.
///
/// [`SharedVar::Multi`]: crate::SharedVar::Multi
/// [`RegId`]: crate::RegId
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ValueId(u32);

struct ValueInterner {
    values: Vec<&'static Value>,
    by_value: HashMap<&'static Value, u32>,
}

fn value_interner() -> &'static RwLock<ValueInterner> {
    static INTERNER: OnceLock<RwLock<ValueInterner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(ValueInterner {
            values: Vec::new(),
            by_value: HashMap::new(),
        })
    })
}

impl ValueId {
    /// Interns `value`, returning its dense id. Cheap (a read-locked hash
    /// lookup) when the value has been seen before.
    pub fn intern(value: &Value) -> ValueId {
        let interner = value_interner();
        if let Some(&id) = interner
            .read()
            .expect("value interner poisoned")
            .by_value
            .get(value)
        {
            return ValueId(id);
        }
        let mut w = interner.write().expect("value interner poisoned");
        // Double-checked: another thread may have interned it meanwhile.
        if let Some(&id) = w.by_value.get(value) {
            return ValueId(id);
        }
        let id = u32::try_from(w.values.len()).expect("value intern table overflow");
        let leaked: &'static Value = Box::leak(Box::new(value.clone()));
        w.values.push(leaked);
        w.by_value.insert(leaked, id);
        ValueId(id)
    }

    /// The interned value.
    pub fn resolve(self) -> &'static Value {
        value_interner()
            .read()
            .expect("value interner poisoned")
            .values[self.0 as usize]
    }

    /// The dense index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw u32 payload (stable within a process run only).
    pub fn raw(self) -> u32 {
        self.0
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<usize> for Value {
    fn from(i: usize) -> Self {
        Value::Int(i64::try_from(i).expect("usize fits in i64"))
    }
}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Sym(s) => write!(f, "#{s}"),
            Value::Tuple(items) => {
                write!(f, "(")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, ")")
            }
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "}}")
            }
            Value::Bag(m) => {
                write!(f, "⟅")?;
                let mut first = true;
                for (item, &count) in m.iter() {
                    for _ in 0..count {
                        if !first {
                            write!(f, ", ")?;
                        }
                        first = false;
                        write!(f, "{item}")?;
                    }
                }
                write!(f, "⟆")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_is_canonical() {
        let a = Value::set([Value::from(2), Value::from(1), Value::from(2)]);
        let b = Value::set([Value::from(1), Value::from(2)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), Some(2));
    }

    #[test]
    fn bag_counts_multiplicity() {
        let a = Value::bag([Value::from(1), Value::from(1), Value::from(2)]);
        assert_eq!(a.len(), Some(3));
        let b = Value::bag([Value::from(1), Value::from(2), Value::from(1)]);
        assert_eq!(a, b);
        let c = Value::bag([Value::from(1), Value::from(2)]);
        assert_ne!(a, c);
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from(5).as_int(), Some(5));
        assert_eq!(Value::sym(3).as_sym(), Some(3));
        assert_eq!(Value::from(5).as_bool(), None);
        assert!(Value::Unit.is_unit());
        let t = Value::tuple([Value::Unit, Value::from(1)]);
        assert_eq!(t.as_tuple().unwrap().len(), 2);
        assert_eq!(t.as_set(), None);
    }

    #[test]
    fn ordering_is_total_and_consistent() {
        let mut vs = vec![
            Value::set([Value::from(1)]),
            Value::Unit,
            Value::from(false),
            Value::from(-1),
            Value::sym(0),
            Value::tuple([]),
            Value::bag([]),
        ];
        vs.sort();
        let sorted = vs.clone();
        vs.sort();
        assert_eq!(vs, sorted);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::sym(2).to_string(), "#2");
        assert_eq!(
            Value::tuple([Value::from(1), Value::from(2)]).to_string(),
            "(1, 2)"
        );
        assert_eq!(
            Value::set([Value::from(2), Value::from(1)]).to_string(),
            "{1, 2}"
        );
        assert_eq!(
            Value::bag([Value::from(1), Value::from(1)]).to_string(),
            "⟅1, 1⟆"
        );
        // Debug mirrors Display and is never empty.
        assert_eq!(format!("{:?}", Value::Unit), "()");
    }

    #[test]
    fn clones_of_tuples_and_sets_share_storage() {
        let t = Value::tuple([Value::from(1), Value::set([Value::from(2)])]);
        let s = Value::set([Value::from(3), Value::from(1)]);
        for v in [t, s] {
            let c = v.clone();
            match (&v, &c) {
                (Value::Tuple(a), Value::Tuple(b)) | (Value::Set(a), Value::Set(b)) => {
                    assert!(Arc::ptr_eq(a, b), "{v} was deep-copied");
                }
                _ => panic!("clone changed the variant of {v}"),
            }
            assert_eq!(v, c);
        }
    }

    #[test]
    fn default_is_unit() {
        assert_eq!(Value::default(), Value::Unit);
    }

    #[test]
    fn usize_conversion() {
        assert_eq!(Value::from(7usize), Value::Int(7));
    }

    #[test]
    fn value_interning_is_stable_and_canonical() {
        let a = ValueId::intern(&Value::from(41_017));
        let b = ValueId::intern(&Value::from(41_017));
        assert_eq!(a, b);
        assert_eq!(a.resolve(), &Value::from(41_017));
        let c = ValueId::intern(&Value::set([Value::from(1), Value::from(2)]));
        assert_ne!(a, c);
        assert_eq!(c.resolve().len(), Some(2));
        assert_eq!(c.index(), c.raw() as usize);
    }

    #[test]
    fn approx_heap_bytes_counts_nested_payloads() {
        assert_eq!(Value::from(3).approx_heap_bytes(), 0);
        let t = Value::tuple([Value::from(1), Value::from(2)]);
        assert_eq!(t.approx_heap_bytes(), 2 * std::mem::size_of::<Value>());
        let nested = Value::tuple([t.clone()]);
        assert_eq!(
            nested.approx_heap_bytes(),
            std::mem::size_of::<Value>() + t.approx_heap_bytes()
        );
        assert!(Value::bag([Value::from(1)]).approx_heap_bytes() > 0);
    }
}
