//! The replicated znode store.
//!
//! Each ensemble replica holds one [`ZnodeStore`] and applies the same
//! totally-ordered sequence of [`Op`]s, so all replicas converge to the same
//! state. Application is deterministic: sequential-node counters live in the
//! parent znode and are part of replicated state.
//!
//! The store holds replicated state and nothing else: it is written to
//! disk whole, as a full snapshot (see [`crate::snapshot`]).

use std::collections::BTreeMap;
use std::io::{self, Write};

use bytes::Bytes;
use tropic_model::Path;

use crate::codec;
use crate::error::{CoordError, CoordResult};

/// Metadata of a znode, in the spirit of ZooKeeper's `Stat`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stat {
    /// Zxid of the transaction that created the node.
    pub czxid: u64,
    /// Zxid of the transaction that last modified the node's data.
    pub mzxid: u64,
    /// Data version, starting at 0 and bumped by each set.
    pub version: u64,
    /// Owning session for ephemeral nodes.
    pub ephemeral_owner: Option<u64>,
    /// Number of direct children.
    pub num_children: usize,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Znode {
    data: Bytes,
    czxid: u64,
    mzxid: u64,
    version: u64,
    ephemeral_owner: Option<u64>,
    /// Monotonic counter for sequential child names.
    cseq: u64,
    children: BTreeMap<String, Znode>,
}

impl Znode {
    fn new(data: Bytes, zxid: u64, ephemeral_owner: Option<u64>) -> Self {
        Znode {
            data,
            czxid: zxid,
            mzxid: zxid,
            version: 0,
            ephemeral_owner,
            cseq: 0,
            children: BTreeMap::new(),
        }
    }

    fn stat(&self) -> Stat {
        Stat {
            czxid: self.czxid,
            mzxid: self.mzxid,
            version: self.version,
            ephemeral_owner: self.ephemeral_owner,
            num_children: self.children.len(),
        }
    }
}

/// A write operation replicated through the broadcast protocol.
#[derive(Clone, Debug)]
pub enum Op {
    /// Create a znode.
    Create {
        /// Target path; for sequential nodes this is the prefix.
        path: Path,
        /// Initial data.
        data: Bytes,
        /// Owning session, making the node ephemeral.
        ephemeral_owner: Option<u64>,
        /// Append a monotonically-increasing zero-padded suffix.
        sequential: bool,
    },
    /// Replace a znode's data.
    SetData {
        /// Target path.
        path: Path,
        /// New data.
        data: Bytes,
        /// Required current version (compare-and-swap) if given.
        expected_version: Option<u64>,
    },
    /// Delete a znode (must be childless).
    Delete {
        /// Target path.
        path: Path,
        /// Required current version if given.
        expected_version: Option<u64>,
    },
    /// Delete all ephemeral znodes owned by an expired session.
    PurgeSession {
        /// The expired session.
        session: u64,
    },
    /// Apply a batch of operations atomically: either every sub-operation
    /// succeeds, or the store is left byte-identical to its pre-batch state.
    /// Replicated as one broadcast unit, so the batch is also atomic with
    /// respect to crashes and follower sync (group commit). Must not nest.
    Multi {
        /// The sub-operations, applied in order.
        ops: Vec<Op>,
    },
}

impl Op {
    /// Short operation name for logging and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Create { .. } => "create",
            Op::SetData { .. } => "set",
            Op::Delete { .. } => "delete",
            Op::PurgeSession { .. } => "purge_session",
            Op::Multi { .. } => "multi",
        }
    }
}

/// Result of applying an [`Op`].
#[derive(Clone, Debug, PartialEq)]
pub enum OpResult {
    /// Node created; carries the final path (with sequence suffix applied).
    Created(Path),
    /// Data set; carries the new version.
    Set(u64),
    /// Node deleted.
    Deleted,
    /// Session purged; carries the paths of deleted ephemerals.
    Purged(Vec<Path>),
    /// Batch applied; carries each sub-operation's result in order.
    Multi(Vec<OpResult>),
}

/// A state change notification produced by applying an op. The service layer
/// matches these against registered watches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreEvent {
    /// A node was created at the path.
    Created(Path),
    /// A node was deleted at the path.
    Deleted(Path),
    /// A node's data changed.
    DataChanged(Path),
    /// The set of children under the path changed.
    ChildrenChanged(Path),
}

/// Inverse of one applied sub-operation, journaled by [`Op::Multi`] so a
/// failing batch can be reverted to a byte-identical pre-batch state.
enum Undo {
    /// Remove the node created at `path`; restore the parent's sequential
    /// counter when the create consumed one.
    Created {
        path: Path,
        prev_parent_cseq: Option<u64>,
    },
    /// Restore a node's previous data, version, and mzxid.
    Set {
        path: Path,
        data: Bytes,
        version: u64,
        mzxid: u64,
    },
    /// Re-insert a deleted node (leaf at deletion time, so no subtree).
    Deleted { path: Path, node: Znode },
    /// Re-insert purged ephemerals. Order is irrelevant: ephemerals are
    /// enforced childless, so no purged node can be another's parent.
    Purged { nodes: Vec<(Path, Znode)> },
}

/// One replica's copy of the znode tree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ZnodeStore {
    root: Znode,
}

impl Default for ZnodeStore {
    fn default() -> Self {
        Self::new()
    }
}

impl ZnodeStore {
    /// Creates an empty store with a root znode.
    pub fn new() -> Self {
        ZnodeStore {
            root: Znode::new(Bytes::new(), 0, None),
        }
    }

    fn get_node(&self, path: &Path) -> Option<&Znode> {
        let mut cur = &self.root;
        for seg in path.segments() {
            cur = cur.children.get(seg)?;
        }
        Some(cur)
    }

    fn get_node_mut(&mut self, path: &Path) -> Option<&mut Znode> {
        let mut cur = &mut self.root;
        for seg in path.segments() {
            cur = cur.children.get_mut(seg)?;
        }
        Some(cur)
    }

    /// Reads a znode's data and stat.
    pub fn get(&self, path: &Path) -> Option<(Bytes, Stat)> {
        self.get_node(path).map(|n| (n.data.clone(), n.stat()))
    }

    /// Returns `true` if a znode exists at `path`.
    pub fn exists(&self, path: &Path) -> bool {
        self.get_node(path).is_some()
    }

    /// Names of direct children in lexicographic order.
    pub fn children(&self, path: &Path) -> CoordResult<Vec<String>> {
        self.get_node(path)
            .map(|n| n.children.keys().cloned().collect())
            .ok_or_else(|| CoordError::NoNode(path.clone()))
    }

    /// Total number of znodes including the root.
    pub fn node_count(&self) -> usize {
        fn count(n: &Znode) -> usize {
            1 + n.children.values().map(count).sum::<usize>()
        }
        count(&self.root)
    }

    /// Every session that owns at least one ephemeral znode, ascending.
    /// Recovery uses this to purge sessions that did not survive a full
    /// restart (their clients are gone, so nothing else would expire them).
    pub fn ephemeral_sessions(&self) -> Vec<u64> {
        let mut out = Vec::new();
        fn rec(node: &Znode, out: &mut Vec<u64>) {
            if let Some(session) = node.ephemeral_owner {
                out.push(session);
            }
            for child in node.children.values() {
                rec(child, out);
            }
        }
        rec(&self.root, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Serializes the full store — data, zxids, versions, ephemeral owners,
    /// and sequential counters — into the snapshot wire format, streaming
    /// node by node into `out`.
    pub(crate) fn encode_into<W: Write>(&self, out: &mut W) -> io::Result<()> {
        encode_znode(&self.root, out)
    }

    /// Inverse of [`ZnodeStore::encode_into`]; `None` on malformed input.
    pub(crate) fn decode_from(cur: &mut codec::Cursor<'_>) -> Option<Self> {
        Some(ZnodeStore {
            root: decode_znode(cur)?,
        })
    }

    /// Paths of all ephemeral znodes owned by `session`.
    fn ephemerals_of(&self, session: u64) -> Vec<Path> {
        let mut out = Vec::new();
        fn rec(path: &Path, node: &Znode, session: u64, out: &mut Vec<Path>) {
            if node.ephemeral_owner == Some(session) {
                out.push(path.clone());
            }
            for (name, child) in &node.children {
                rec(&path.join(name), child, session, out);
            }
        }
        rec(&Path::root(), &self.root, session, &mut out);
        out
    }

    /// Applies a committed op at `zxid`, returning its result and the watch
    /// events it produced. Deterministic across replicas.
    pub fn apply(&mut self, zxid: u64, op: &Op) -> (CoordResult<OpResult>, Vec<StoreEvent>) {
        match op {
            Op::Create {
                path,
                data,
                ephemeral_owner,
                sequential,
            } => self.apply_create(zxid, path, data.clone(), *ephemeral_owner, *sequential),
            Op::SetData {
                path,
                data,
                expected_version,
            } => self.apply_set(zxid, path, data.clone(), *expected_version),
            Op::Delete {
                path,
                expected_version,
            } => self.apply_delete(path, *expected_version),
            Op::PurgeSession { session } => self.apply_purge(*session),
            Op::Multi { ops } => self.apply_multi(zxid, ops),
        }
    }

    /// Applies a batch all-or-nothing: sub-ops are applied in order with an
    /// undo journal; the first failure reverts every earlier sub-op (in
    /// reverse order) and reports [`CoordError::MultiFailed`] with the
    /// failing index. No events are emitted for a failed batch. Nested
    /// batches are rejected before anything is applied.
    fn apply_multi(&mut self, zxid: u64, ops: &[Op]) -> (CoordResult<OpResult>, Vec<StoreEvent>) {
        if let Some(index) = ops.iter().position(|op| matches!(op, Op::Multi { .. })) {
            return (
                Err(CoordError::MultiFailed {
                    index,
                    cause: Box::new(CoordError::NestedMulti),
                }),
                Vec::new(),
            );
        }
        let mut results = Vec::with_capacity(ops.len());
        let mut events = Vec::new();
        let mut undos: Vec<Undo> = Vec::with_capacity(ops.len());
        for (index, op) in ops.iter().enumerate() {
            // Journal the inverse *before* applying: failed sub-ops mutate
            // nothing (checked below via the apply result), so only applied
            // ops need reverting.
            let undo = self.journal_undo(op);
            let (result, evs) = self.apply(zxid, op);
            match result {
                Ok(r) => {
                    undos.push(self.finish_undo(undo, &r));
                    results.push(r);
                    events.extend(evs);
                }
                Err(cause) => {
                    self.revert(undos);
                    return (
                        Err(CoordError::MultiFailed {
                            index,
                            cause: Box::new(cause),
                        }),
                        Vec::new(),
                    );
                }
            }
        }
        (Ok(OpResult::Multi(results)), events)
    }

    /// Captures the pre-apply state a sub-op's inverse needs. The created
    /// path of a sequential create is only known post-apply; see
    /// [`ZnodeStore::finish_undo`].
    fn journal_undo(&self, op: &Op) -> Undo {
        match op {
            Op::Create {
                path, sequential, ..
            } => Undo::Created {
                path: path.clone(), // placeholder; finish_undo fills the final path
                prev_parent_cseq: sequential
                    .then(|| {
                        path.parent()
                            .and_then(|pp| self.get_node(&pp))
                            .map(|n| n.cseq)
                    })
                    .flatten(),
            },
            Op::SetData { path, .. } => match self.get_node(path) {
                Some(n) => Undo::Set {
                    path: path.clone(),
                    data: n.data.clone(),
                    version: n.version,
                    mzxid: n.mzxid,
                },
                // The apply will fail with NoNode; journal a no-op shape.
                None => Undo::Purged { nodes: Vec::new() },
            },
            Op::Delete { path, .. } => match self.get_node(path) {
                Some(n) => Undo::Deleted {
                    path: path.clone(),
                    node: n.clone(),
                },
                None => Undo::Purged { nodes: Vec::new() },
            },
            Op::PurgeSession { session } => Undo::Purged {
                nodes: self
                    .ephemerals_of(*session)
                    .into_iter()
                    .filter_map(|p| self.get_node(&p).cloned().map(|n| (p, n)))
                    .collect(),
            },
            Op::Multi { .. } => unreachable!("nested multi rejected earlier"),
        }
    }

    /// Completes an undo entry with post-apply information (the final path
    /// of a sequential create).
    fn finish_undo(&self, undo: Undo, result: &OpResult) -> Undo {
        match (undo, result) {
            (
                Undo::Created {
                    prev_parent_cseq, ..
                },
                OpResult::Created(final_path),
            ) => Undo::Created {
                path: final_path.clone(),
                prev_parent_cseq,
            },
            (undo, _) => undo,
        }
    }

    /// Reverts journaled sub-ops in reverse order, restoring the pre-batch
    /// state exactly (data, versions, zxids, and sequential counters).
    fn revert(&mut self, undos: Vec<Undo>) {
        for undo in undos.into_iter().rev() {
            match undo {
                Undo::Created {
                    path,
                    prev_parent_cseq,
                } => {
                    let name = path.leaf().expect("created nodes are non-root").to_owned();
                    let parent_path = path.parent().expect("non-root");
                    if let Some(parent) = self.get_node_mut(&parent_path) {
                        parent.children.remove(&name);
                        if let Some(cseq) = prev_parent_cseq {
                            parent.cseq = cseq;
                        }
                    }
                }
                Undo::Set {
                    path,
                    data,
                    version,
                    mzxid,
                } => {
                    if let Some(node) = self.get_node_mut(&path) {
                        node.data = data;
                        node.version = version;
                        node.mzxid = mzxid;
                    }
                }
                Undo::Deleted { path, node } => {
                    self.reinsert(&path, node);
                }
                Undo::Purged { nodes } => {
                    // Childless by the ephemeral invariant, so any
                    // re-insertion order restores the exact tree.
                    for (path, node) in nodes.into_iter().rev() {
                        self.reinsert(&path, node);
                    }
                }
            }
        }
    }

    fn reinsert(&mut self, path: &Path, node: Znode) {
        let name = path.leaf().expect("non-root").to_owned();
        let parent_path = path.parent().expect("non-root");
        if let Some(parent) = self.get_node_mut(&parent_path) {
            parent.children.insert(name, node);
        }
    }

    fn apply_create(
        &mut self,
        zxid: u64,
        path: &Path,
        data: Bytes,
        ephemeral_owner: Option<u64>,
        sequential: bool,
    ) -> (CoordResult<OpResult>, Vec<StoreEvent>) {
        let Some(base_name) = path.leaf().map(str::to_owned) else {
            return (Err(CoordError::NodeExists(path.clone())), Vec::new());
        };
        let parent_path = path.parent().expect("non-root");
        let Some(parent) = self.get_node_mut(&parent_path) else {
            return (Err(CoordError::NoParent(path.clone())), Vec::new());
        };
        if parent.ephemeral_owner.is_some() {
            return (Err(CoordError::EphemeralParent(parent_path)), Vec::new());
        }
        let name = if sequential {
            // Skip over any literal child squatting on the next sequential
            // name, so a collision can never fail (or wedge) the counter.
            // The skip commits with the create and reverts with the batch's
            // undo journal, keeping failed ops side-effect free (required
            // by Multi's atomicity) and replicas deterministic.
            let mut seq = parent.cseq;
            let mut name = format!("{base_name}{seq:010}");
            while parent.children.contains_key(&name) {
                seq += 1;
                name = format!("{base_name}{seq:010}");
            }
            parent.cseq = seq + 1;
            name
        } else {
            if parent.children.contains_key(&base_name) {
                return (
                    Err(CoordError::NodeExists(parent_path.join(&base_name))),
                    Vec::new(),
                );
            }
            base_name
        };
        parent
            .children
            .insert(name.clone(), Znode::new(data, zxid, ephemeral_owner));
        let final_path = parent_path.join(&name);
        let events = vec![
            StoreEvent::Created(final_path.clone()),
            StoreEvent::ChildrenChanged(parent_path),
        ];
        (Ok(OpResult::Created(final_path)), events)
    }

    fn apply_set(
        &mut self,
        zxid: u64,
        path: &Path,
        data: Bytes,
        expected_version: Option<u64>,
    ) -> (CoordResult<OpResult>, Vec<StoreEvent>) {
        let Some(node) = self.get_node_mut(path) else {
            return (Err(CoordError::NoNode(path.clone())), Vec::new());
        };
        if let Some(expected) = expected_version {
            if node.version != expected {
                return (
                    Err(CoordError::BadVersion {
                        path: path.clone(),
                        expected,
                        actual: node.version,
                    }),
                    Vec::new(),
                );
            }
        }
        node.data = data;
        node.version += 1;
        node.mzxid = zxid;
        let v = node.version;
        (
            Ok(OpResult::Set(v)),
            vec![StoreEvent::DataChanged(path.clone())],
        )
    }

    fn apply_delete(
        &mut self,
        path: &Path,
        expected_version: Option<u64>,
    ) -> (CoordResult<OpResult>, Vec<StoreEvent>) {
        let Some(node) = self.get_node(path) else {
            return (Err(CoordError::NoNode(path.clone())), Vec::new());
        };
        if !node.children.is_empty() {
            return (Err(CoordError::NotEmpty(path.clone())), Vec::new());
        }
        if let Some(expected) = expected_version {
            if node.version != expected {
                let actual = node.version;
                return (
                    Err(CoordError::BadVersion {
                        path: path.clone(),
                        expected,
                        actual,
                    }),
                    Vec::new(),
                );
            }
        }
        let name = path.leaf().expect("non-root").to_owned();
        let parent_path = path.parent().expect("non-root");
        let parent = self.get_node_mut(&parent_path).expect("parent exists");
        parent.children.remove(&name);
        let events = vec![
            StoreEvent::Deleted(path.clone()),
            StoreEvent::ChildrenChanged(parent_path),
        ];
        (Ok(OpResult::Deleted), events)
    }

    fn apply_purge(&mut self, session: u64) -> (CoordResult<OpResult>, Vec<StoreEvent>) {
        // Deepest-first so children are removed before parents.
        let mut paths = self.ephemerals_of(session);
        paths.sort_by_key(|p| std::cmp::Reverse(p.depth()));
        let mut events = Vec::new();
        let mut deleted = Vec::new();
        for path in paths {
            let name = path.leaf().expect("ephemerals are non-root").to_owned();
            let parent_path = path.parent().expect("non-root");
            // Ephemeral nodes have no children (enforced at create), so
            // removal cannot orphan anything.
            let removed = self
                .get_node_mut(&parent_path)
                .is_some_and(|parent| parent.children.remove(&name).is_some());
            if removed {
                events.push(StoreEvent::Deleted(path.clone()));
                events.push(StoreEvent::ChildrenChanged(parent_path));
                deleted.push(path);
            }
        }
        (Ok(OpResult::Purged(deleted)), events)
    }
}

fn encode_znode<W: Write>(node: &Znode, out: &mut W) -> io::Result<()> {
    codec::put_bytes(out, &node.data)?;
    codec::put_u64(out, node.czxid)?;
    codec::put_u64(out, node.mzxid)?;
    codec::put_u64(out, node.version)?;
    codec::put_opt_u64(out, node.ephemeral_owner)?;
    codec::put_u64(out, node.cseq)?;
    codec::put_u32(out, node.children.len() as u32)?;
    for (name, child) in &node.children {
        codec::put_str(out, name)?;
        encode_znode(child, out)?;
    }
    Ok(())
}

fn decode_znode(cur: &mut codec::Cursor<'_>) -> Option<Znode> {
    let data = Bytes::copy_from_slice(cur.bytes()?);
    let czxid = cur.u64()?;
    let mzxid = cur.u64()?;
    let version = cur.u64()?;
    let ephemeral_owner = cur.opt_u64()?;
    let cseq = cur.u64()?;
    let count = cur.u32()?;
    // No pre-allocation from the wire-claimed count; the cursor bounds the
    // loop on truncated input anyway.
    let mut children = BTreeMap::new();
    for _ in 0..count {
        let name = cur.str()?.to_owned();
        let child = decode_znode(cur)?;
        children.insert(name, child);
    }
    Some(Znode {
        data,
        czxid,
        mzxid,
        version,
        ephemeral_owner,
        cseq,
        children,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    fn create(store: &mut ZnodeStore, zxid: u64, path: &str) -> CoordResult<OpResult> {
        store
            .apply(
                zxid,
                &Op::Create {
                    path: p(path),
                    data: Bytes::from_static(b"x"),
                    ephemeral_owner: None,
                    sequential: false,
                },
            )
            .0
    }

    #[test]
    fn create_get_delete() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/a").unwrap();
        create(&mut s, 2, "/a/b").unwrap();
        let (data, stat) = s.get(&p("/a/b")).unwrap();
        assert_eq!(&data[..], b"x");
        assert_eq!(stat.version, 0);
        assert_eq!(stat.czxid, 2);
        assert_eq!(s.children(&p("/a")).unwrap(), vec!["b".to_string()]);
        let (res, events) = s.apply(
            3,
            &Op::Delete {
                path: p("/a/b"),
                expected_version: None,
            },
        );
        assert_eq!(res.unwrap(), OpResult::Deleted);
        assert!(events.contains(&StoreEvent::Deleted(p("/a/b"))));
        assert!(!s.exists(&p("/a/b")));
    }

    #[test]
    fn create_requires_parent_and_uniqueness() {
        let mut s = ZnodeStore::new();
        assert!(matches!(
            create(&mut s, 1, "/a/b"),
            Err(CoordError::NoParent(_))
        ));
        create(&mut s, 1, "/a").unwrap();
        assert!(matches!(
            create(&mut s, 2, "/a"),
            Err(CoordError::NodeExists(_))
        ));
    }

    #[test]
    fn sequential_names_monotonic() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/q").unwrap();
        let mk = |s: &mut ZnodeStore, zxid| {
            let (res, _) = s.apply(
                zxid,
                &Op::Create {
                    path: p("/q/item-"),
                    data: Bytes::new(),
                    ephemeral_owner: None,
                    sequential: true,
                },
            );
            match res.unwrap() {
                OpResult::Created(path) => path,
                other => panic!("unexpected {other:?}"),
            }
        };
        let a = mk(&mut s, 2);
        let b = mk(&mut s, 3);
        assert_eq!(a.leaf(), Some("item-0000000000"));
        assert_eq!(b.leaf(), Some("item-0000000001"));
        // Counter survives deletion of earlier items.
        s.apply(
            4,
            &Op::Delete {
                path: a,
                expected_version: None,
            },
        )
        .0
        .unwrap();
        let c = mk(&mut s, 5);
        assert_eq!(c.leaf(), Some("item-0000000002"));
    }

    #[test]
    fn set_data_versions_and_cas() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/a").unwrap();
        let (res, _) = s.apply(
            2,
            &Op::SetData {
                path: p("/a"),
                data: Bytes::from_static(b"y"),
                expected_version: Some(0),
            },
        );
        assert_eq!(res.unwrap(), OpResult::Set(1));
        let (res, _) = s.apply(
            3,
            &Op::SetData {
                path: p("/a"),
                data: Bytes::from_static(b"z"),
                expected_version: Some(0),
            },
        );
        assert!(matches!(res, Err(CoordError::BadVersion { actual: 1, .. })));
        // Unconditional set succeeds.
        let (res, _) = s.apply(
            4,
            &Op::SetData {
                path: p("/a"),
                data: Bytes::from_static(b"w"),
                expected_version: None,
            },
        );
        assert_eq!(res.unwrap(), OpResult::Set(2));
    }

    #[test]
    fn delete_guards() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/a").unwrap();
        create(&mut s, 2, "/a/b").unwrap();
        assert!(matches!(
            s.apply(
                3,
                &Op::Delete {
                    path: p("/a"),
                    expected_version: None
                }
            )
            .0,
            Err(CoordError::NotEmpty(_))
        ));
        assert!(matches!(
            s.apply(
                3,
                &Op::Delete {
                    path: p("/missing"),
                    expected_version: None
                }
            )
            .0,
            Err(CoordError::NoNode(_))
        ));
        assert!(matches!(
            s.apply(
                3,
                &Op::Delete {
                    path: p("/a/b"),
                    expected_version: Some(5)
                }
            )
            .0,
            Err(CoordError::BadVersion { .. })
        ));
    }

    #[test]
    fn ephemerals_purged_on_session_expiry() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/election").unwrap();
        for (zxid, session) in [(2u64, 100u64), (3, 100), (4, 200)] {
            s.apply(
                zxid,
                &Op::Create {
                    path: p("/election/n-"),
                    data: Bytes::new(),
                    ephemeral_owner: Some(session),
                    sequential: true,
                },
            )
            .0
            .unwrap();
        }
        assert_eq!(s.ephemerals_of(100).len(), 2);
        let (res, events) = s.apply(5, &Op::PurgeSession { session: 100 });
        match res.unwrap() {
            OpResult::Purged(paths) => assert_eq!(paths.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, StoreEvent::Deleted(_)))
                .count(),
            2
        );
        assert_eq!(s.ephemerals_of(100).len(), 0);
        assert_eq!(s.ephemerals_of(200).len(), 1);
        assert_eq!(s.children(&p("/election")).unwrap().len(), 1);
    }

    #[test]
    fn ephemeral_cannot_have_children() {
        let mut s = ZnodeStore::new();
        s.apply(
            1,
            &Op::Create {
                path: p("/eph"),
                data: Bytes::new(),
                ephemeral_owner: Some(9),
                sequential: false,
            },
        )
        .0
        .unwrap();
        assert!(matches!(
            create(&mut s, 2, "/eph/child"),
            Err(CoordError::EphemeralParent(_))
        ));
    }

    #[test]
    fn node_count() {
        let mut s = ZnodeStore::new();
        assert_eq!(s.node_count(), 1);
        create(&mut s, 1, "/a").unwrap();
        create(&mut s, 2, "/a/b").unwrap();
        assert_eq!(s.node_count(), 3);
    }

    fn create_op(path: &str, sequential: bool) -> Op {
        Op::Create {
            path: p(path),
            data: Bytes::from_static(b"m"),
            ephemeral_owner: None,
            sequential,
        }
    }

    #[test]
    fn multi_applies_all_and_concatenates_events() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/q").unwrap();
        let (res, events) = s.apply(
            2,
            &Op::Multi {
                ops: vec![
                    create_op("/a", false),
                    create_op("/q/item-", true),
                    Op::SetData {
                        path: p("/a"),
                        data: Bytes::from_static(b"v"),
                        expected_version: Some(0),
                    },
                ],
            },
        );
        let results = match res.unwrap() {
            OpResult::Multi(r) => r,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(results.len(), 3);
        assert_eq!(results[0], OpResult::Created(p("/a")));
        assert_eq!(results[1], OpResult::Created(p("/q/item-0000000000")));
        assert_eq!(results[2], OpResult::Set(1));
        assert!(events.contains(&StoreEvent::Created(p("/a"))));
        assert!(events.contains(&StoreEvent::DataChanged(p("/a"))));
        // Sub-ops share the batch's zxid.
        assert_eq!(s.get(&p("/a")).unwrap().1.czxid, 2);
        assert_eq!(s.get(&p("/a")).unwrap().1.mzxid, 2);
    }

    #[test]
    fn multi_partial_failure_restores_store_byte_identical() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/q").unwrap();
        create(&mut s, 2, "/victim").unwrap();
        s.apply(
            3,
            &Op::Create {
                path: p("/q/item-"),
                data: Bytes::new(),
                ephemeral_owner: None,
                sequential: true,
            },
        )
        .0
        .unwrap();
        let before = s.clone();
        // Creates, a set, a delete, and a sequential create all succeed,
        // then the last op fails on a version check.
        let (res, events) = s.apply(
            4,
            &Op::Multi {
                ops: vec![
                    create_op("/a", false),
                    create_op("/q/item-", true),
                    Op::SetData {
                        path: p("/victim"),
                        data: Bytes::from_static(b"changed"),
                        expected_version: None,
                    },
                    Op::Delete {
                        path: p("/q/item-0000000000"),
                        expected_version: None,
                    },
                    Op::SetData {
                        path: p("/a"),
                        data: Bytes::from_static(b"v"),
                        expected_version: Some(99),
                    },
                ],
            },
        );
        match res {
            Err(CoordError::MultiFailed { index: 4, cause }) => {
                assert!(matches!(*cause, CoordError::BadVersion { .. }));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(events.is_empty(), "failed batch must emit no events");
        assert_eq!(s, before, "store must be byte-identical after revert");
        assert_eq!(format!("{s:?}"), format!("{before:?}"));
        // The reverted sequential counter hands out the same name again.
        let (res, _) = s.apply(5, &create_op("/q/item-", true));
        assert_eq!(res.unwrap(), OpResult::Created(p("/q/item-0000000001")));
    }

    #[test]
    fn multi_first_op_failure_applies_nothing() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/exists").unwrap();
        let before = s.clone();
        let (res, _) = s.apply(
            2,
            &Op::Multi {
                ops: vec![create_op("/exists", false), create_op("/never", false)],
            },
        );
        match res {
            Err(CoordError::MultiFailed { index: 0, cause }) => {
                assert!(matches!(*cause, CoordError::NodeExists(_)));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s, before);
        assert!(!s.exists(&p("/never")));
    }

    #[test]
    fn multi_rejects_nesting() {
        let mut s = ZnodeStore::new();
        let before = s.clone();
        let (res, _) = s.apply(
            1,
            &Op::Multi {
                ops: vec![create_op("/a", false), Op::Multi { ops: Vec::new() }],
            },
        );
        match res {
            Err(CoordError::MultiFailed { index: 1, cause }) => {
                assert!(matches!(*cause, CoordError::NestedMulti));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(s, before, "nesting is rejected before any op applies");
    }

    #[test]
    fn multi_purge_reverted_exactly() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/eph-parent").unwrap();
        for zxid in 2..4u64 {
            s.apply(
                zxid,
                &Op::Create {
                    path: p("/eph-parent/n-"),
                    data: Bytes::from_static(b"e"),
                    ephemeral_owner: Some(7),
                    sequential: true,
                },
            )
            .0
            .unwrap();
        }
        let before = s.clone();
        let (res, _) = s.apply(
            5,
            &Op::Multi {
                ops: vec![
                    Op::PurgeSession { session: 7 },
                    Op::Delete {
                        path: p("/missing"),
                        expected_version: None,
                    },
                ],
            },
        );
        assert!(matches!(res, Err(CoordError::MultiFailed { index: 1, .. })));
        assert_eq!(s, before);
        assert_eq!(s.ephemerals_of(7).len(), 2);
    }

    #[test]
    fn empty_multi_is_a_successful_noop() {
        let mut s = ZnodeStore::new();
        let before = s.clone();
        let (res, events) = s.apply(1, &Op::Multi { ops: Vec::new() });
        assert_eq!(res.unwrap(), OpResult::Multi(Vec::new()));
        assert!(events.is_empty());
        assert_eq!(s, before);
    }

    #[test]
    fn sequential_create_skips_literal_collisions() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/q").unwrap();
        // A literal child squats on the counter's next name; sequential
        // creates skip past it instead of failing (a permanent NodeExists
        // here would wedge every queue built on sequential nodes).
        create(&mut s, 2, "/q/item-0000000000").unwrap();
        let (res, _) = s.apply(3, &create_op("/q/item-", true));
        assert_eq!(res.unwrap(), OpResult::Created(p("/q/item-0000000001")));
        let (res, _) = s.apply(4, &create_op("/q/item-", true));
        assert_eq!(res.unwrap(), OpResult::Created(p("/q/item-0000000002")));
    }

    #[test]
    fn reverted_sequential_skip_is_restored_exactly() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/q").unwrap();
        create(&mut s, 2, "/q/item-0000000000").unwrap();
        let before = s.clone();
        // The batch's sequential create skips to suffix 1, then the batch
        // fails; the revert must restore the pre-skip counter.
        let (res, _) = s.apply(
            3,
            &Op::Multi {
                ops: vec![
                    create_op("/q/item-", true),
                    Op::Delete {
                        path: p("/missing"),
                        expected_version: None,
                    },
                ],
            },
        );
        assert!(matches!(res, Err(CoordError::MultiFailed { index: 1, .. })));
        assert_eq!(s, before);
        let (res, _) = s.apply(4, &create_op("/q/item-", true));
        assert_eq!(res.unwrap(), OpResult::Created(p("/q/item-0000000001")));
    }

    #[test]
    fn binary_snapshot_roundtrip_preserves_everything() {
        let mut s = ZnodeStore::new();
        create(&mut s, 1, "/q").unwrap();
        s.apply(2, &create_op("/q/item-", true)).0.unwrap();
        s.apply(
            3,
            &Op::Create {
                path: p("/eph"),
                data: Bytes::from_static(b"e"),
                ephemeral_owner: Some(77),
                sequential: false,
            },
        )
        .0
        .unwrap();
        s.apply(
            4,
            &Op::SetData {
                path: p("/q"),
                data: Bytes::from_static(b"v"),
                expected_version: None,
            },
        )
        .0
        .unwrap();
        let mut buf = Vec::new();
        s.encode_into(&mut buf).unwrap();
        let mut cur = codec::Cursor::new(&buf);
        let back = ZnodeStore::decode_from(&mut cur).expect("decodes");
        assert!(cur.is_done());
        assert_eq!(back, s, "versions, zxids, owners, and cseq all survive");
        assert_eq!(format!("{back:?}"), format!("{s:?}"));
        // The decoded store's sequential counter continues where it left off.
        let mut back = back;
        let (res, _) = back.apply(5, &create_op("/q/item-", true));
        assert_eq!(res.unwrap(), OpResult::Created(p("/q/item-0000000001")));
    }

    #[test]
    fn ephemeral_sessions_enumerated() {
        let mut s = ZnodeStore::new();
        assert!(s.ephemeral_sessions().is_empty());
        create(&mut s, 1, "/base").unwrap();
        for (zxid, session) in [(2u64, 9u64), (3, 4), (4, 9)] {
            s.apply(
                zxid,
                &Op::Create {
                    path: p("/base/e-"),
                    data: Bytes::new(),
                    ephemeral_owner: Some(session),
                    sequential: true,
                },
            )
            .0
            .unwrap();
        }
        assert_eq!(s.ephemeral_sessions(), vec![4, 9]);
    }
}
