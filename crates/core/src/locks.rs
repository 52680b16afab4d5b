//! Multi-granularity lock manager (paper §3.1.3).
//!
//! TROPIC's concurrency control is pessimistic and hierarchical. A
//! transaction takes write (`W`) locks on objects its actions modify and
//! read (`R`) locks on objects its queries inspect; intention locks
//! (`IW`/`IR`) on every ancestor summarize descendant locking so conflicts
//! are detected high in the tree. Writes additionally take an `R` lock on
//! the highest ancestor that anchors a constraint, freezing the whole scope
//! the constraint reasons over.
//!
//! Acquisition never blocks: a conflicting transaction is *deferred* back
//! to the front of `todoQ` by the scheduler, so deadlock is impossible.

use std::collections::HashMap;

use tropic_model::Path;

use crate::txn::TxnId;

/// Lock modes, per the paper's footnote 1: IW conflicts with R and W; IR
/// conflicts with W.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum LockMode {
    /// Shared read lock.
    R,
    /// Exclusive write lock.
    W,
    /// Intention to read somewhere below.
    IR,
    /// Intention to write somewhere below.
    IW,
}

impl LockMode {
    /// The standard multi-granularity compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        match (self, other) {
            (IR, IR) | (IR, IW) | (IW, IR) | (IW, IW) | (IR, R) | (R, IR) | (R, R) => true,
            (W, _) | (_, W) | (IW, R) | (R, IW) => false,
        }
    }

    fn bit(self) -> u8 {
        match self {
            LockMode::R => 1,
            LockMode::W => 2,
            LockMode::IR => 4,
            LockMode::IW => 8,
        }
    }

    fn from_bits(bits: u8) -> impl Iterator<Item = LockMode> {
        [LockMode::R, LockMode::W, LockMode::IR, LockMode::IW]
            .into_iter()
            .filter(move |m| bits & m.bit() != 0)
    }
}

/// One lock request: a mode on a path.
pub type LockRequest = (Path, LockMode);

/// Expands a leaf-level request into the full hierarchical request set:
/// the mode itself on `path` plus the matching intention mode on every
/// strict ancestor.
pub fn with_intentions(path: &Path, mode: LockMode) -> Vec<LockRequest> {
    let intention = match mode {
        LockMode::R | LockMode::IR => LockMode::IR,
        LockMode::W | LockMode::IW => LockMode::IW,
    };
    let mut out: Vec<LockRequest> = path
        .ancestors()
        .into_iter()
        .map(|a| (a, intention))
        .collect();
    out.push((path.clone(), mode));
    out
}

/// A conflict discovered during acquisition.
#[derive(Clone, Debug, PartialEq)]
pub struct LockConflict {
    /// The contended path.
    pub path: Path,
    /// The transaction holding the incompatible lock.
    pub holder: TxnId,
    /// The mode that was requested.
    pub requested: LockMode,
}

/// The lock table: per-path, per-transaction mode sets, indexed by
/// transaction so releasing or listing one's locks costs only its own.
#[derive(Debug, Default)]
pub struct LockManager {
    table: HashMap<Path, HashMap<TxnId, u8>>,
    /// The paths each transaction holds a lock on, each once.
    held: HashMap<TxnId, Vec<Path>>,
}

impl LockManager {
    /// Creates an empty lock manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to acquire every request for `txn`, all-or-nothing.
    ///
    /// A transaction never conflicts with itself; re-acquisition and
    /// upgrades are permitted as long as no *other* holder is incompatible.
    /// On conflict nothing is acquired and the first conflict is returned.
    pub fn try_acquire(
        &mut self,
        txn: TxnId,
        requests: &[LockRequest],
    ) -> Result<(), LockConflict> {
        for (path, mode) in requests {
            if let Some(holders) = self.table.get(path) {
                for (&holder, &bits) in holders {
                    if holder == txn {
                        continue;
                    }
                    for held in LockMode::from_bits(bits) {
                        if !mode.compatible(held) {
                            return Err(LockConflict {
                                path: path.clone(),
                                holder,
                                requested: *mode,
                            });
                        }
                    }
                }
            }
        }
        for (path, mode) in requests {
            let bits = (self.table.entry(path.clone()).or_default())
                .entry(txn)
                .or_insert(0);
            if *bits == 0 {
                self.held.entry(txn).or_default().push(path.clone());
            }
            *bits |= mode.bit();
        }
        Ok(())
    }

    /// Releases every lock held by `txn`.
    pub fn release_all(&mut self, txn: TxnId) {
        for path in self.held.remove(&txn).unwrap_or_default() {
            if let Some(holders) = self.table.get_mut(&path) {
                holders.remove(&txn);
                if holders.is_empty() {
                    self.table.remove(&path);
                }
            }
        }
    }

    /// Returns `true` if `txn` holds `mode` on `path`.
    pub fn holds(&self, txn: TxnId, path: &Path, mode: LockMode) -> bool {
        self.table
            .get(path)
            .and_then(|h| h.get(&txn))
            .map(|&bits| bits & mode.bit() != 0)
            .unwrap_or(false)
    }

    /// All locks currently held by `txn`, for recovery re-acquisition.
    pub fn locks_of(&self, txn: TxnId) -> Vec<LockRequest> {
        let mut out = Vec::new();
        for path in self.held.get(&txn).into_iter().flatten() {
            if let Some(&bits) = self.table.get(path).and_then(|h| h.get(&txn)) {
                out.extend(LockMode::from_bits(bits).map(|mode| (path.clone(), mode)));
            }
        }
        out
    }

    /// Returns `true` if no locks are held at all.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        // Compatible pairs.
        for (a, b) in [(IR, IR), (IR, IW), (IW, IW), (IR, R), (R, R)] {
            assert!(a.compatible(b), "{a:?} vs {b:?}");
            assert!(b.compatible(a), "{b:?} vs {a:?}");
        }
        // Conflicting pairs (paper footnote 1: IW conflicts with R/W, IR
        // conflicts with W).
        for (a, b) in [(W, W), (W, R), (W, IR), (W, IW), (IW, R)] {
            assert!(!a.compatible(b), "{a:?} vs {b:?}");
            assert!(!b.compatible(a), "{b:?} vs {a:?}");
        }
    }

    #[test]
    fn with_intentions_expands_ancestors() {
        let reqs = with_intentions(&p("/vmRoot/h1/vm1"), LockMode::W);
        assert_eq!(reqs.len(), 4);
        assert_eq!(reqs[0], (Path::root(), LockMode::IW));
        assert_eq!(reqs[1], (p("/vmRoot"), LockMode::IW));
        assert_eq!(reqs[2], (p("/vmRoot/h1"), LockMode::IW));
        assert_eq!(reqs[3], (p("/vmRoot/h1/vm1"), LockMode::W));
        let reads = with_intentions(&p("/a"), LockMode::R);
        assert_eq!(
            reads,
            vec![(Path::root(), LockMode::IR), (p("/a"), LockMode::R)]
        );
    }

    #[test]
    fn disjoint_writers_coexist() {
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p("/vmRoot/h1/vm1"), LockMode::W))
            .unwrap();
        lm.try_acquire(2, &with_intentions(&p("/vmRoot/h2/vm1"), LockMode::W))
            .unwrap();
        assert!(lm.holds(1, &p("/vmRoot/h1/vm1"), LockMode::W));
        assert!(lm.holds(2, &p("/vmRoot"), LockMode::IW));
    }

    #[test]
    fn same_object_writers_conflict() {
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p("/vmRoot/h1"), LockMode::W))
            .unwrap();
        let err = lm
            .try_acquire(2, &with_intentions(&p("/vmRoot/h1"), LockMode::W))
            .unwrap_err();
        assert_eq!(err.holder, 1);
        assert_eq!(err.path, p("/vmRoot/h1"));
    }

    #[test]
    fn ancestor_read_blocks_descendant_write() {
        // The constraint-lock rule: R on the host makes the whole subtree
        // read-only to other transactions, because a descendant writer needs
        // IW on the host, and IW conflicts with R.
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p("/vmRoot/h1"), LockMode::R))
            .unwrap();
        let err = lm
            .try_acquire(2, &with_intentions(&p("/vmRoot/h1/vm1"), LockMode::W))
            .unwrap_err();
        assert_eq!(err.path, p("/vmRoot/h1"));
        // But another reader of a descendant is fine.
        lm.try_acquire(3, &with_intentions(&p("/vmRoot/h1/vm1"), LockMode::R))
            .unwrap();
    }

    #[test]
    fn writer_blocks_ancestor_read() {
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p("/vmRoot/h1/vm1"), LockMode::W))
            .unwrap();
        // IW on /vmRoot/h1 conflicts with a new R there.
        let err = lm
            .try_acquire(2, &with_intentions(&p("/vmRoot/h1"), LockMode::R))
            .unwrap_err();
        assert_eq!(err.path, p("/vmRoot/h1"));
    }

    #[test]
    fn same_txn_upgrades_freely() {
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p("/a/b"), LockMode::R))
            .unwrap();
        lm.try_acquire(1, &with_intentions(&p("/a/b"), LockMode::W))
            .unwrap();
        // The combined R+IW on /a held by txn 1 does not self-conflict.
        lm.try_acquire(1, &with_intentions(&p("/a"), LockMode::R))
            .unwrap();
        assert!(lm.holds(1, &p("/a/b"), LockMode::R));
        assert!(lm.holds(1, &p("/a/b"), LockMode::W));
    }

    #[test]
    fn all_or_nothing_acquisition() {
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p("/a/b"), LockMode::W))
            .unwrap();
        // Txn 2 requests two paths; the second conflicts, so neither is taken.
        let mut reqs = with_intentions(&p("/a/c"), LockMode::W);
        reqs.extend(with_intentions(&p("/a/b"), LockMode::W));
        assert!(lm.try_acquire(2, &reqs).is_err());
        assert!(!lm.holds(2, &p("/a/c"), LockMode::W));
        // And a third txn can still take /a/c.
        lm.try_acquire(3, &with_intentions(&p("/a/c"), LockMode::W))
            .unwrap();
    }

    #[test]
    fn release_unblocks() {
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p("/a"), LockMode::W))
            .unwrap();
        assert!(lm
            .try_acquire(2, &with_intentions(&p("/a"), LockMode::W))
            .is_err());
        lm.release_all(1);
        assert!(lm.is_empty());
        lm.try_acquire(2, &with_intentions(&p("/a"), LockMode::W))
            .unwrap();
    }

    #[test]
    fn locks_of_reports_held_modes() {
        let mut lm = LockManager::new();
        lm.try_acquire(1, &with_intentions(&p("/a/b"), LockMode::W))
            .unwrap();
        let mut locks = lm.locks_of(1);
        locks.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(locks.len(), 3);
        assert_eq!(locks[2], (p("/a/b"), LockMode::W));
        assert!(lm.locks_of(99).is_empty());
    }

    #[test]
    fn releasing_one_txn_leaves_anothers_locks_and_intentions() {
        // The whole-table answer the per-transaction index must match.
        let scan = |lm: &LockManager, txn: TxnId| {
            let mut out: Vec<LockRequest> = Vec::new();
            for (path, holders) in &lm.table {
                if let Some(&bits) = holders.get(&txn) {
                    out.extend(LockMode::from_bits(bits).map(|m| (path.clone(), m)));
                }
            }
            out.sort_by_key(|(path, mode)| (path.clone(), mode.bit()));
            out
        };
        let sorted = |mut locks: Vec<LockRequest>| {
            locks.sort_by_key(|(path, mode)| (path.clone(), mode.bit()));
            locks
        };
        let mut lm = LockManager::new();
        let mut one = with_intentions(&p("/a/b"), LockMode::W);
        one.extend(with_intentions(&p("/a/c"), LockMode::R));
        lm.try_acquire(1, &one).unwrap();
        lm.try_acquire(1, &with_intentions(&p("/a/b"), LockMode::W))
            .unwrap(); // re-acquired: still one entry per path
        lm.try_acquire(2, &with_intentions(&p("/a/d"), LockMode::W))
            .unwrap();
        lm.try_acquire(2, &with_intentions(&p("/a/c/e"), LockMode::R))
            .unwrap();
        for txn in [1, 2] {
            assert_eq!(sorted(lm.locks_of(txn)), scan(&lm, txn), "txn {txn}");
        }
        assert_eq!(lm.locks_of(1).len(), 6, "IW+IR on / and /a, W and R");
        let two = scan(&lm, 2);

        lm.release_all(1);
        assert!(lm.locks_of(1).is_empty());
        assert!(scan(&lm, 1).is_empty());
        assert_eq!(sorted(lm.locks_of(2)), two);
        assert_eq!(scan(&lm, 2), two);
        assert!(lm.holds(2, &p("/a"), LockMode::IW));
        assert!(lm.holds(2, &p("/a/c"), LockMode::IR));
        assert!(lm.holds(2, &p("/a/d"), LockMode::W));
        assert!(!lm.holds(1, &p("/a/b"), LockMode::W));
        assert!(!lm.table.contains_key(&p("/a/b")), "an emptied path stays");
        lm.try_acquire(3, &with_intentions(&p("/a/b"), LockMode::W))
            .unwrap();
        lm.release_all(2);
        lm.release_all(3);
        assert!(lm.is_empty() && lm.held.is_empty());
    }

    #[test]
    fn readers_share() {
        let mut lm = LockManager::new();
        for txn in 1..=5 {
            lm.try_acquire(txn, &with_intentions(&p("/a"), LockMode::R))
                .unwrap();
        }
        assert!(lm
            .try_acquire(6, &with_intentions(&p("/a"), LockMode::W))
            .is_err());
    }
}
