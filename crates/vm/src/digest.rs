//! 128-bit node digests: the one hash of a processor's or variable's
//! state that both the machine's incremental fingerprint and the
//! similarity quotient's canonical key are built from.
//!
//! A node's *digest* is position-free: it hashes what the node holds,
//! never where it sits. A state key is the XOR over nodes of
//! [`place`]`(position, digest)`, a keyed bijection, so the same digests
//! serve the identity key (node `i` at position `i`) and every permuted
//! key of the quotient (node `i` at position `π(i)`) without rehashing
//! any state. A Q variable's digest is a base term XOR one [`owner_term`]
//! per posted subvalue; renaming owners through `π` swaps only the terms
//! of owners `π` moves ([`rename_owners`]).
//!
//! Digests hash interned ids ([`crate::RegId`], [`ValueId`]), whose values
//! depend on interning order. Keys built from them are therefore
//! process-local: they are compared within one process and never
//! persisted.

use crate::ValueId;
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

/// A two-lane streaming hasher with a 128-bit result. Each lane folds
/// every word in with its own multiply–xorshift step; [`finish128`]
/// finalizes both lanes with [`fmix`].
///
/// [`finish128`]: DigestHasher::finish128
pub(crate) struct DigestHasher {
    a: u64,
    b: u64,
}

impl DigestHasher {
    pub(crate) fn new() -> DigestHasher {
        DigestHasher {
            a: LANE_A_SEED,
            b: LANE_B_SEED,
        }
    }

    #[inline]
    fn absorb(&mut self, x: u64) {
        let a = (self.a ^ x).wrapping_mul(LANE_A_MUL);
        self.a = a ^ (a >> 32);
        let b = (self.b ^ x).wrapping_mul(LANE_B_MUL);
        self.b = b ^ (b >> 29);
    }

    pub(crate) fn finish128(&self) -> Digest {
        let lo = fmix(self.a);
        (lo, fmix(self.b ^ lo))
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

    fn write_u16(&mut self, i: u16) {
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
        self.finish128().0
    }
}

/// The 128-bit digest of anything hashable.
pub(crate) fn digest_of<T: Hash + ?Sized>(t: &T) -> Digest {
    let mut h = DigestHasher::new();
    t.hash(&mut h);
    h.finish128()
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

/// One posted subvalue's term in a Q variable's digest: `owner` (a
/// processor index) posted the subvalue interned as `vid`.
#[inline]
pub(crate) fn owner_term(owner: usize, vid: ValueId) -> Digest {
    keyed_mix(
        (owner as u64 ^ OWNER_SALT).wrapping_mul(LANE_B_MUL),
        (u64::from(vid.raw()), OWNER_SALT),
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
) -> Digest {
    for &(p, vid) in owners {
        let image = perm[p.index()];
        if image != p.index() {
            xor_into(&mut digest, owner_term(p.index(), vid));
            xor_into(&mut digest, owner_term(image, vid));
        }
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Value;

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
        let v1 = ValueId::intern(&Value::from(1));
        let v2 = ValueId::intern(&Value::from(2));
        assert_ne!(owner_term(0, v1), owner_term(1, v1));
        assert_ne!(owner_term(0, v1), owner_term(0, v2));
        assert_ne!(owner_term(0, v2), owner_term(1, v1));
    }
}
