//! The one state hash: 128-bit node digests, the state keys built from
//! them, and the 64-bit fingerprint folded from a key. Exploration, the
//! similarity quotient, recorded traces, the fault layer and the
//! message-passing machine all hash through this module.
//!
//! A node's *digest* is position-free: it hashes what the node holds,
//! never where it sits. A state key is the XOR over nodes of
//! [`place`]`(position, digest)`, a keyed bijection, so the same digests
//! serve the identity key (node `i` at position `i`) and every permuted
//! key of the quotient (node `i` at position `π(i)`) without rehashing
//! any state. A Q variable's digest is a base term XOR one owner term per
//! posted subvalue; renaming owners through `π` swaps only the terms of
//! owners `π` moves ([`rename_owners`]).
//!
//! Digests hash content, never an interned id: a register contributes
//! its name's digest, cached by the register interner, and a posted
//! subvalue its value's digest, cached by the value interner. Registers
//! combine by XOR, so neither interning order nor write order matters,
//! and a key or [`fold`]ed fingerprint is the same in every process.

use crate::value::InternedValues;
use crate::{Value, ValueId};
use simsym_graph::ProcId;
use std::hash::{Hash, Hasher};

/// A 128-bit digest or placed node pair, `(lo, hi)`.
pub(crate) type Digest = (u64, u64);

const LANE_A_SEED: u64 = 0x243F_6A88_85A3_08D3;
const LANE_B_SEED: u64 = 0x1319_8A2E_0370_7344;
const LANE_A_MUL: u64 = 0x9E37_79B9_7F4A_7C15;
const LANE_B_MUL: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PLACE_SALT: u64 = 0xA409_3822_299F_31D0;
const OWNER_SALT: u64 = 0x082E_FA98_EC4E_6C89;

/// The splitmix64 finalizer: a bijection on `u64` with full avalanche.
fn fmix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A two-lane streaming hasher with a 128-bit result, of which
/// [`Hasher::finish`] returns the low half. Unlike std's default hasher,
/// its output is fixed by this code, so it may be persisted.
pub struct DigestHasher {
    a: u64,
    b: u64,
}

impl Default for DigestHasher {
    /// A hasher in its fixed initial state.
    fn default() -> Self {
        DigestHasher {
            a: LANE_A_SEED,
            b: LANE_B_SEED,
        }
    }
}

impl DigestHasher {
    #[inline]
    fn absorb(&mut self, x: u64) {
        let a = (self.a ^ x).wrapping_mul(LANE_A_MUL);
        self.a = a ^ (a >> 32);
        let b = (self.b ^ x).wrapping_mul(LANE_B_MUL);
        self.b = b ^ (b >> 29);
    }
}

impl Hasher for DigestHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.absorb(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        // The tail word carries the remainder's length in its top byte,
        // so inputs that differ only by trailing zero bytes stay apart.
        let rest = chunks.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        tail[7] = rest.len() as u8;
        self.absorb(u64::from_le_bytes(tail));
    }

    fn write_u8(&mut self, i: u8) {
        self.absorb(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.absorb(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.absorb(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.absorb(i as u64);
    }

    fn finish(&self) -> u64 {
        fmix(self.a)
    }
}

/// The 128-bit digest of anything hashable.
pub(crate) fn digest_of<T: Hash + ?Sized>(t: &T) -> Digest {
    hash_from((LANE_A_SEED, LANE_B_SEED), t)
}

/// `t` hashed from lane state `(a, b)`, both lanes finalized.
fn hash_from<T: Hash + ?Sized>((a, b): Digest, t: &T) -> Digest {
    let mut h = DigestHasher { a, b };
    t.hash(&mut h);
    let lo = h.finish();
    (lo, fmix(h.b ^ lo))
}

/// A bijection of the 128-bit block for each `key`: distinct blocks stay
/// distinct under one key, and both output halves depend nonlinearly on
/// the key.
#[inline]
fn keyed_mix(key: u64, (lo, hi): Digest) -> Digest {
    let lo = fmix(lo ^ key);
    (lo, fmix(hi ^ lo ^ key.rotate_left(32)))
}

/// Node `digest` placed at `position`: the node's term in a state key.
#[inline]
pub(crate) fn place(position: usize, digest: Digest) -> Digest {
    keyed_mix(
        (position as u64 ^ PLACE_SALT).wrapping_mul(LANE_A_MUL),
        digest,
    )
}

/// A set register's term in a local-state digest: the value hashed by a
/// hasher seeded with the register name's digest. States XOR one term
/// per register, so neither write order nor interning order matters.
#[inline]
pub(crate) fn register_term(name: Digest, value: &Value) -> Digest {
    hash_from(name, value)
}

/// One posted subvalue's term in a Q variable's digest: `owner` (a
/// processor index) posted a subvalue with content digest `value`.
#[inline]
pub(crate) fn owner_term(owner: usize, value: Digest) -> Digest {
    keyed_mix(
        (owner as u64 ^ OWNER_SALT).wrapping_mul(LANE_B_MUL),
        (value.0, value.1 ^ OWNER_SALT),
    )
}

/// `a ^= b`, lane by lane.
#[inline]
pub(crate) fn xor_into(a: &mut Digest, b: Digest) {
    a.0 ^= b.0;
    a.1 ^= b.1;
}

/// The digest of a Q variable holding `owners` after every owner is
/// renamed through `perm` (`perm[p]` is the image of processor `p`):
/// the term of each owner `perm` moves is swapped for its image's.
/// Plain variables have no owners and keep their digest.
#[inline]
pub(crate) fn rename_owners(
    mut digest: Digest,
    owners: &[(ProcId, ValueId)],
    perm: &[usize],
    values: &InternedValues,
) -> Digest {
    for &(p, vid) in owners {
        let image = perm[p.index()];
        if image != p.index() {
            let value = values.digest(vid);
            xor_into(&mut digest, owner_term(p.index(), value));
            xor_into(&mut digest, owner_term(image, value));
        }
    }
    digest
}

/// The 64-bit fingerprint of a 128-bit state key.
pub(crate) fn fold((lo, hi): Digest) -> u64 {
    lo ^ hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_tails_are_length_framed() {
        assert_ne!(digest_of(&[1u8, 2][..]), digest_of(&[1u8, 2, 0][..]));
        assert_ne!(digest_of("ab"), digest_of("ab\0"));
        assert_ne!(digest_of(&[0u8; 8][..]), digest_of(&[0u8; 9][..]));
    }

    #[test]
    fn placement_is_position_keyed() {
        let d = digest_of(&Value::from(3));
        assert_ne!(place(0, d), place(1, d));
        assert_ne!(place(0, d), place(0, digest_of(&Value::from(4))));
        // Two nodes holding equal digests never cancel in the XOR.
        let (a, b) = (place(0, d), place(1, d));
        assert_ne!((a.0 ^ b.0, a.1 ^ b.1), (0, 0));
    }

    #[test]
    fn owner_terms_separate_owner_and_value() {
        let (v1, v2) = (digest_of(&Value::from(1)), digest_of(&Value::from(2)));
        assert_ne!(owner_term(0, v1), owner_term(1, v1));
        assert_ne!(owner_term(0, v1), owner_term(0, v2));
        assert_ne!(owner_term(0, v2), owner_term(1, v1));
    }

    #[test]
    fn register_terms_separate_name_and_value() {
        let (x, y) = (digest_of("x"), digest_of("y"));
        let (one, two) = (Value::from(1), Value::from(2));
        assert_ne!(register_term(x, &one), register_term(y, &one));
        assert_ne!(register_term(x, &one), register_term(x, &two));
        // Swapping the values of two registers changes the sum.
        let mut a = register_term(x, &one);
        xor_into(&mut a, register_term(y, &two));
        let mut b = register_term(x, &two);
        xor_into(&mut b, register_term(y, &one));
        assert_ne!(a, b);
    }
}
