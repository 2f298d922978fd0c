//! Stable-storage journaling for crash recovery.
//!
//! The paper's selection problem demands **Stability** — a selected
//! processor stays selected (§3) — and crash-recovery with volatile
//! memory violates it by construction: a boot-snapshot reset wipes the
//! `selected` flag along with every phase register. The classical fix is
//! the one real consensus implementations use (and Rabin's
//! choice-coordination assumes): a **stable store** that survives the
//! crash, to which the protocol journals its commit-point writes, and
//! from which recovery replays them.
//!
//! This module models that store deterministically, as a private detail
//! of [`Faulty`](crate::faults::Faulty):
//!
//! * the store keeps one log per processor. After each step, the stepping
//!   processor's tracked registers and `selected` flag are diffed in place
//!   against the last commit; if any changed, the step is a *commit point*
//!   and one entry — the changed registers, the program counter and the
//!   `selected` flag — joins the log;
//! * an entry is durable with the step that produced it. A crash always
//!   comes after that step, so no entry is ever lost, and a reboot
//!   rebuilds the local state by replaying the whole log onto the boot
//!   snapshot.
//!
//! Which registers constitute the commit-point state is protocol
//! knowledge, supplied as a [`JournalSpec`]: the distributed label
//! learner's cross-round state is just `{pec, vec, round}` (everything
//! else is per-round scratch, safely re-derived after a reboot at a round
//! boundary), whereas the lock-protected Algorithm 4 has no idempotent
//! re-entry point between steps and must track every register
//! ([`JournalSpec::all`]).
//!
//! Everything here is plain data — no I/O, no clocks — so a journaled
//! faulted run replays byte-identically.

use crate::{LocalState, RegId, Value};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// A protocol's declaration of its commit-point state: which registers
/// must survive a crash for a reboot to be safe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalSpec {
    /// The tracked registers, sorted (plus, always, `pc` and `selected`);
    /// `None` tracks every register the program sets.
    tracked: Option<Vec<RegId>>,
}

impl JournalSpec {
    /// Tracks the named registers (interning them), plus `pc` and
    /// `selected`, which are always journaled.
    pub fn registers<I, S>(names: I) -> JournalSpec
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut tracked: Vec<RegId> = names
            .into_iter()
            .map(|n| RegId::intern(n.as_ref()))
            .collect();
        tracked.sort_unstable();
        tracked.dedup();
        JournalSpec {
            tracked: Some(tracked),
        }
    }

    /// Tracks every register — full-state journaling, for protocols with
    /// no idempotent re-entry point (Algorithm 4's lock-protected
    /// read-modify-write sections).
    pub fn all() -> JournalSpec {
        JournalSpec { tracked: None }
    }

    /// Tracks no registers — only `pc` and `selected` are journaled, the
    /// minimum that makes a selection decision durable.
    pub fn selected_only() -> JournalSpec {
        JournalSpec {
            tracked: Some(Vec::new()),
        }
    }

    /// The registers of `state` this spec tracks that are set, as
    /// `(register, value)` pairs in [`RegId`] order.
    fn tracked<'a>(
        &'a self,
        state: &'a LocalState,
    ) -> impl Iterator<Item = (RegId, &'a Value)> + Clone + 'a {
        let (named, all) = match &self.tracked {
            Some(regs) => (regs.as_slice(), &[][..]),
            None => (&[][..], state.regs()),
        };
        named
            .iter()
            .filter_map(|&r| state.reg_opt(r).map(|v| (r, v)))
            .chain(all.iter().map(|(r, v)| (*r, v)))
    }
}

/// One committed write set: the tracked state of a processor as of the
/// end of step `step`.
#[derive(Clone, Debug)]
pub(crate) struct JournalEntry {
    /// The step (of the faulted run's clock) whose execution produced
    /// this commit.
    step: u64,
    /// Program counter after the step.
    pc: u32,
    /// `selected` flag after the step.
    selected: bool,
    /// Tracked registers that changed, with their new values, in
    /// [`RegId`] order.
    writes: Vec<(RegId, Value)>,
}

/// A deterministic stable store: one durable log per processor.
#[derive(Clone, Debug)]
pub(crate) struct StableStore {
    spec: JournalSpec,
    log: Vec<Vec<JournalEntry>>,
    /// The tracked registers as of each processor's last commit, sorted
    /// by [`RegId`], for commit detection by diffing.
    shadow: Vec<Vec<(RegId, Value)>>,
    shadow_selected: Vec<bool>,
    /// [`log_digest`] of `log`, computed on the first fingerprint after
    /// a commit and kept until the next one. A traced run asks for a
    /// fingerprint every step but rehashes only after commits; an
    /// untraced run never hashes the log at all.
    digest: OnceLock<u64>,
}

impl StableStore {
    /// A store over `boot` snapshots (one per processor): the shadow
    /// starts at the boot state, so the first commit records only what
    /// changed since boot.
    pub(crate) fn new(spec: JournalSpec, boot: &[LocalState]) -> StableStore {
        let shadow = boot
            .iter()
            .map(|s| spec.tracked(s).map(|(r, v)| (r, v.clone())).collect())
            .collect();
        StableStore {
            spec,
            log: vec![Vec::new(); boot.len()],
            digest: OnceLock::new(),
            shadow,
            shadow_selected: boot.iter().map(|s| s.selected).collect(),
        }
    }

    /// Diffs processor `p`'s state against its last commit; if a tracked
    /// register or the `selected` flag changed, logs a commit entry,
    /// durable with the step. Returns whether a commit was logged.
    ///
    /// A bare `pc` move does not commit: the program counter is recorded
    /// *in* each entry but is not by itself protocol progress. Neither
    /// does unsetting a tracked register; it leaves the shadow at the next
    /// commit.
    pub(crate) fn observe(&mut self, p: usize, state: &LocalState, step: u64) -> bool {
        let shadow = &self.shadow[p];
        let changed = |(r, v): (RegId, &Value)| match shadow.binary_search_by_key(&r, |e| e.0) {
            Ok(i) => shadow[i].1 != *v,
            Err(_) => true,
        };
        let tracked = self.spec.tracked(state);
        if state.selected == self.shadow_selected[p] && !tracked.clone().any(changed) {
            return false;
        }
        let writes = tracked
            .clone()
            .filter(|&e| changed(e))
            .map(|(r, v)| (r, v.clone()))
            .collect();
        self.shadow[p] = tracked.map(|(r, v)| (r, v.clone())).collect();
        self.shadow_selected[p] = state.selected;
        self.log[p].push(JournalEntry {
            step,
            pc: state.pc,
            selected: state.selected,
            writes,
        });
        self.digest = OnceLock::new();
        true
    }

    /// Rebuilds processor `p`'s post-recovery state: the boot snapshot
    /// with every logged entry applied in order. Returns the state and
    /// the number of entries replayed.
    pub(crate) fn replay_onto(&self, p: usize, boot: &LocalState) -> (LocalState, usize) {
        let mut state = boot.clone();
        for entry in &self.log[p] {
            for (r, v) in &entry.writes {
                state.set_reg(*r, v.clone());
            }
            state.pc = entry.pc;
            state.selected = entry.selected;
        }
        (state, self.log[p].len())
    }

    /// A deterministic digest of the whole log, mixed into the
    /// [`Faulty`](crate::faults::Faulty) fingerprint so a replay
    /// diverging on journal state fails the per-step fingerprint check.
    /// Cached between commits.
    pub(crate) fn fingerprint(&self) -> u64 {
        *self.digest.get_or_init(|| log_digest(&self.log))
    }
}

/// Hashes every entry of every log. Registers hash by name, so the
/// digest does not depend on interning order.
fn log_digest(log: &[Vec<JournalEntry>]) -> u64 {
    let mut h = DefaultHasher::new();
    for per_proc in log {
        per_proc.len().hash(&mut h);
        for e in per_proc {
            e.step.hash(&mut h);
            e.pc.hash(&mut h);
            e.selected.hash(&mut h);
            for (r, v) in &e.writes {
                r.name().hash(&mut h);
                v.hash(&mut h);
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn boot_states(n: usize) -> Vec<LocalState> {
        (0..n)
            .map(|i| {
                let mut s = LocalState::new();
                s.set("init", Value::from(i as i64));
                s
            })
            .collect()
    }

    #[test]
    fn observe_commits_only_tracked_changes() {
        let boot = boot_states(2);
        let mut store = StableStore::new(JournalSpec::registers(["x"]), &boot);
        let mut s = boot[0].clone();

        // A bare pc move is not a commit.
        s.pc = 1;
        assert!(!store.observe(0, &s, 0));
        assert_eq!(store.log[0].len(), 0);

        // An untracked register is not a commit either.
        s.set("scratch", Value::from(9));
        assert!(!store.observe(0, &s, 1));

        // A tracked write commits (and records the pc it happened at).
        s.set("x", Value::from(7));
        s.pc = 2;
        assert!(store.observe(0, &s, 2));
        assert_eq!(store.log[0].len(), 1);

        // No change, no commit.
        assert!(!store.observe(0, &s, 3));

        // Selecting commits even with no register change.
        s.selected = true;
        assert!(store.observe(0, &s, 4));
        assert_eq!(store.log[0].len(), 2);
    }

    #[test]
    fn unset_register_leaves_the_shadow_only_at_the_next_commit() {
        let boot = boot_states(1);
        let mut store = StableStore::new(JournalSpec::registers(["x", "y"]), &boot);
        let mut s = boot[0].clone();
        s.set("x", Value::from(1));
        assert!(store.observe(0, &s, 0));

        // Unset, then set back to the journaled value with no commit in
        // between: the shadow still holds x = 1, so neither step commits.
        s.unset("x");
        assert!(!store.observe(0, &s, 1));
        s.set("x", Value::from(1));
        assert!(!store.observe(0, &s, 2));
        assert_eq!(store.log[0].len(), 1);

        // Unset again, and commit a change to y meanwhile: that commit
        // drops x from the shadow, so re-setting x commits and records it.
        s.unset("x");
        s.set("y", Value::from(2));
        assert!(store.observe(0, &s, 3));
        s.set("x", Value::from(1));
        assert!(store.observe(0, &s, 4));
        let x = RegId::intern("x");
        assert_eq!(store.log[0][2].writes, vec![(x, Value::from(1))]);
    }

    #[test]
    fn spec_all_writes_in_reg_id_order_and_replays_them() {
        // Interned in reverse alphabetical order, so RegId order and name
        // order disagree.
        let zeta = RegId::intern("journal_spec_all_zeta");
        let alpha = RegId::intern("journal_spec_all_alpha");
        assert!(zeta < alpha);
        let boot = boot_states(1);
        let mut store = StableStore::new(JournalSpec::all(), &boot);
        let mut s = boot[0].clone();
        s.set_reg(alpha, Value::from(1));
        s.set_reg(zeta, Value::from(2));
        assert!(store.observe(0, &s, 0));
        assert_eq!(
            store.log[0][0].writes,
            vec![(zeta, Value::from(2)), (alpha, Value::from(1))]
        );
        assert_eq!(store.replay_onto(0, &boot[0]), (s, 1));
    }

    #[test]
    fn replay_restores_tracked_state_onto_boot() {
        let boot = boot_states(1);
        let mut store = StableStore::new(JournalSpec::registers(["x", "y"]), &boot);
        let mut s = boot[0].clone();
        s.set("x", Value::from(1));
        s.pc = 3;
        store.observe(0, &s, 0);
        s.set("y", Value::from(2));
        s.set("scratch", Value::from(99));
        s.selected = true;
        s.pc = 5;
        store.observe(0, &s, 1);

        let (recovered, replayed) = store.replay_onto(0, &boot[0]);
        assert_eq!(replayed, 2);
        assert_eq!(recovered.get("x"), Value::from(1));
        assert_eq!(recovered.get("y"), Value::from(2));
        assert_eq!(recovered.pc, 5);
        assert!(recovered.selected);
        // Untracked scratch did not survive; boot registers did.
        assert_eq!(recovered.get("scratch"), Value::Unit);
        assert_eq!(recovered.get("init"), Value::from(0));
    }

    #[test]
    fn spec_all_tracks_every_register() {
        let boot = boot_states(1);
        let mut store = StableStore::new(JournalSpec::all(), &boot);
        let mut s = boot[0].clone();
        s.set("anything", Value::from(4));
        assert!(store.observe(0, &s, 0));
        let (recovered, _) = store.replay_onto(0, &boot[0]);
        assert_eq!(recovered.get("anything"), Value::from(4));
    }

    #[test]
    fn fingerprint_tracks_journal_state() {
        let boot = boot_states(1);
        let mut a = StableStore::new(JournalSpec::registers(["x"]), &boot);
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut s = boot[0].clone();
        s.set("x", Value::from(1));
        a.observe(0, &s, 0);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn cached_fingerprint_matches_a_recompute_after_every_observe() {
        let boot = boot_states(3);
        let mut store = StableStore::new(JournalSpec::registers(["x", "y"]), &boot);
        assert_eq!(store.fingerprint(), log_digest(&store.log));
        let mut states = boot;
        // Commits and non-commits, on several processors, with tuple and
        // set values as the learner journals them.
        let script: [(usize, &str, Value, bool); 8] = [
            (0, "x", Value::from(1), true),
            (1, "scratch", Value::from(5), false),
            (1, "y", Value::tuple([Value::from(1), Value::Unit]), true),
            (0, "x", Value::from(1), false),
            (2, "x", Value::set([Value::from(3), Value::from(2)]), true),
            (1, "y", Value::tuple([Value::from(1), Value::from(2)]), true),
            (2, "scratch", Value::from(0), false),
            (0, "y", Value::from(true), true),
        ];
        let mut seen = vec![store.fingerprint()];
        for (step, (p, reg, v, commits)) in script.into_iter().enumerate() {
            states[p].set(reg, v);
            let before = store.fingerprint();
            assert_eq!(store.observe(p, &states[p], step as u64), commits);
            assert_eq!(store.fingerprint(), log_digest(&store.log), "step {step}");
            if commits {
                assert!(!seen.contains(&store.fingerprint()), "step {step}");
                seen.push(store.fingerprint());
            } else {
                assert_eq!(store.fingerprint(), before, "step {step}");
            }
        }
        // A clone carries the cache with it.
        assert_eq!(store.clone().fingerprint(), log_digest(&store.log));
    }

    #[test]
    fn per_processor_logs_are_independent() {
        let boot = boot_states(3);
        let mut store = StableStore::new(JournalSpec::registers(["x"]), &boot);
        let mut s = boot[1].clone();
        s.set("x", Value::from(1));
        store.observe(1, &s, 0);
        let lens: Vec<usize> = store.log.iter().map(Vec::len).collect();
        assert_eq!(lens, vec![0, 1, 0]);
    }
}
