//! The logical data model tree: path-addressed operations, diffing, and
//! snapshots.
//!
//! The controller keeps one [`Tree`] as the logical layer (paper §2.2); each
//! worker-side device exports its state as a subtree of the same shape so the
//! two layers can be compared during reconciliation (paper §4).

use serde::{Deserialize, Serialize};

use crate::error::{ModelError, ModelResult};
use crate::node::Node;
use crate::path::Path;
use crate::value::Value;

/// A hierarchical data model instance.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tree {
    root: Node,
}

/// One difference between two trees, produced by [`Tree::diff`].
///
/// Diffs drive the `repair` reconciliation mechanism: each entry is matched
/// against repair rules that emit corrective physical actions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum DiffEntry {
    /// A node present in `other` but absent in `self`.
    NodeAdded {
        /// Path of the node.
        path: Path,
        /// Entity type of the added node.
        entity: String,
    },
    /// A node present in `self` but absent in `other`.
    NodeRemoved {
        /// Path of the node.
        path: Path,
        /// Entity type of the removed node.
        entity: String,
    },
    /// A node present in both trees but with different entity types.
    EntityChanged {
        /// Path of the node.
        path: Path,
        /// Entity type in `self`.
        left: String,
        /// Entity type in `other`.
        right: String,
    },
    /// An attribute differing between the two trees.
    AttrChanged {
        /// Path of the node holding the attribute.
        path: Path,
        /// Attribute name.
        attr: String,
        /// Value in `self` (`None` = absent).
        left: Option<Value>,
        /// Value in `other` (`None` = absent).
        right: Option<Value>,
    },
}

impl DiffEntry {
    /// The path this difference applies to.
    pub fn path(&self) -> &Path {
        match self {
            DiffEntry::NodeAdded { path, .. }
            | DiffEntry::NodeRemoved { path, .. }
            | DiffEntry::EntityChanged { path, .. }
            | DiffEntry::AttrChanged { path, .. } => path,
        }
    }
}

impl Default for Tree {
    fn default() -> Self {
        Tree::new()
    }
}

impl Tree {
    /// Creates an empty tree whose root is an entity of type `"root"`.
    pub fn new() -> Self {
        Tree {
            root: Node::new("root"),
        }
    }

    /// A tree holding only `node` at `mount` (nothing, for `None`), under
    /// placeholder `frame` ancestors so the slot exists. A diff scoped to
    /// `mount` never compares the placeholders, so one subtree can be
    /// diffed — a device's reported state, a repair's desired state —
    /// without a whole tree around it.
    pub fn mounted(mount: &Path, node: Option<Node>) -> Tree {
        let mut tree = Tree::new();
        for slot in mount.ancestors_and_self() {
            // The root already exists; inserting it fails harmlessly.
            let _ = tree.insert(&slot, Node::new("frame"));
        }
        let _ = match node {
            Some(node) => tree.replace(mount, node),
            None => tree.remove(mount),
        };
        tree
    }

    /// Immutable access to the root node.
    pub fn root(&self) -> &Node {
        &self.root
    }

    /// Looks up the node at `path`.
    pub fn get(&self, path: &Path) -> Option<&Node> {
        let mut cur = &self.root;
        for seg in path.segments() {
            cur = cur.child(seg)?;
        }
        Some(cur)
    }

    /// Looks up the node at `path` mutably.
    pub fn get_mut(&mut self, path: &Path) -> Option<&mut Node> {
        let mut cur = &mut self.root;
        for seg in path.segments() {
            cur = cur.child_mut(seg)?;
        }
        Some(cur)
    }

    /// Returns `true` if a node exists at `path`.
    pub fn exists(&self, path: &Path) -> bool {
        self.get(path).is_some()
    }

    /// Looks up a node, returning a [`ModelError::NoSuchPath`] when absent.
    pub fn require(&self, path: &Path) -> ModelResult<&Node> {
        self.get(path)
            .ok_or_else(|| ModelError::NoSuchPath(path.clone()))
    }

    /// Looks up a node mutably, returning an error when absent.
    pub fn require_mut(&mut self, path: &Path) -> ModelResult<&mut Node> {
        if self.get(path).is_none() {
            return Err(ModelError::NoSuchPath(path.clone()));
        }
        Ok(self.get_mut(path).expect("checked above"))
    }

    /// Inserts `node` at `path`. The parent must exist and the slot must be
    /// free; inserting at the root is rejected.
    pub fn insert(&mut self, path: &Path, node: Node) -> ModelResult<()> {
        let name = path.leaf().ok_or(ModelError::RootImmutable)?.to_owned();
        let parent_path = path.parent().expect("non-root path has a parent");
        let parent = self
            .get_mut(&parent_path)
            .ok_or(ModelError::ParentMissing(path.clone()))?;
        if parent.has_child(&name) {
            return Err(ModelError::DuplicateNode(path.clone()));
        }
        parent.insert_child(name, node);
        Ok(())
    }

    /// Removes and returns the node at `path`. Removing the root is rejected.
    pub fn remove(&mut self, path: &Path) -> ModelResult<Node> {
        let name = path.leaf().ok_or(ModelError::RootImmutable)?.to_owned();
        let parent_path = path.parent().expect("non-root path has a parent");
        let parent = self
            .get_mut(&parent_path)
            .ok_or_else(|| ModelError::NoSuchPath(path.clone()))?;
        parent
            .remove_child(&name)
            .ok_or_else(|| ModelError::NoSuchPath(path.clone()))
    }

    /// Replaces the subtree at `path` with `node`, returning the old subtree.
    /// Replacing the root is allowed and swaps the whole tree; this is how
    /// `reload` installs freshly-retrieved device state.
    pub fn replace(&mut self, path: &Path, node: Node) -> ModelResult<Node> {
        if path.is_root() {
            return Ok(std::mem::replace(&mut self.root, node));
        }
        let target = self
            .get_mut(path)
            .ok_or_else(|| ModelError::NoSuchPath(path.clone()))?;
        Ok(std::mem::replace(target, node))
    }

    /// Reads an attribute at a path.
    pub fn attr(&self, path: &Path, key: &str) -> Option<&Value> {
        self.get(path).and_then(|n| n.attr(key))
    }

    /// Reads a required integer attribute.
    pub fn attr_int(&self, path: &Path, key: &str) -> ModelResult<i64> {
        self.require(path)?
            .attr_int(key)
            .ok_or_else(|| ModelError::AttrType {
                path: path.clone(),
                attr: key.to_owned(),
                expected: "int",
            })
    }

    /// Reads a required string attribute.
    pub fn attr_str(&self, path: &Path, key: &str) -> ModelResult<String> {
        self.require(path)?
            .attr_str(key)
            .map(str::to_owned)
            .ok_or_else(|| ModelError::AttrType {
                path: path.clone(),
                attr: key.to_owned(),
                expected: "str",
            })
    }

    /// Sets an attribute at `path`, returning the previous value.
    pub fn set_attr(
        &mut self,
        path: &Path,
        key: impl Into<String>,
        value: impl Into<Value>,
    ) -> ModelResult<Option<Value>> {
        Ok(self.require_mut(path)?.set_attr(key, value))
    }

    /// Removes an attribute at `path`, returning the previous value.
    pub fn remove_attr(&mut self, path: &Path, key: &str) -> ModelResult<Option<Value>> {
        Ok(self.require_mut(path)?.remove_attr(key))
    }

    /// Total node count of the tree.
    pub fn node_count(&self) -> usize {
        self.root.subtree_size()
    }

    /// Approximate memory footprint in bytes (§6.1 experiment).
    pub fn approx_size(&self) -> usize {
        self.root.approx_size()
    }

    /// Depth-first, pre-order traversal of `(path, node)` pairs.
    pub fn walk(&self) -> Vec<(Path, &Node)> {
        let mut out = Vec::new();
        Self::walk_rec(Path::root(), &self.root, &mut out);
        out
    }

    fn walk_rec<'a>(path: Path, node: &'a Node, out: &mut Vec<(Path, &'a Node)>) {
        out.push((path.clone(), node));
        for (name, child) in node.children() {
            Self::walk_rec(path.join(name), child, out);
        }
    }

    /// Paths of all nodes whose entity type is `entity`.
    pub fn find_entity(&self, entity: &str) -> Vec<Path> {
        self.walk()
            .into_iter()
            .filter(|(_, n)| n.entity() == entity)
            .map(|(p, _)| p)
            .collect()
    }

    /// Marks (or clears) the inconsistency flag on a node (paper §4). The
    /// flag denies transactions on the node and its whole subtree — see
    /// [`Tree::is_inconsistent`].
    pub fn mark_inconsistent(&mut self, path: &Path, flag: bool) -> ModelResult<()> {
        self.require_mut(path)?.set_inconsistent(flag);
        Ok(())
    }

    /// Returns `true` if the node at `path` or any ancestor is marked
    /// inconsistent. Missing paths are treated as consistent.
    pub fn is_inconsistent(&self, path: &Path) -> bool {
        let mut cur = &self.root;
        if cur.is_inconsistent() {
            return true;
        }
        for seg in path.segments() {
            match cur.child(seg) {
                Some(child) => {
                    cur = child;
                    if cur.is_inconsistent() {
                        return true;
                    }
                }
                None => return false,
            }
        }
        false
    }

    /// Serializes the tree to a JSON snapshot.
    pub fn to_snapshot(&self) -> ModelResult<String> {
        // analyze:allow(json-edge): tree snapshots are text that log arguments carry
        serde_json::to_string(&self.root).map_err(|e| ModelError::Serde(e.to_string()))
    }

    /// Restores a tree from a snapshot produced by [`Tree::to_snapshot`].
    pub fn from_snapshot(snapshot: &str) -> ModelResult<Tree> {
        // analyze:allow(json-edge): tree snapshots are text that log arguments carry
        let root = serde_json::from_str::<Node>(snapshot);
        let root = root.map_err(|e| ModelError::Serde(e.to_string()))?;
        Ok(Tree { root })
    }

    /// Structural diff between `self` (e.g. the physical layer) and `other`
    /// (e.g. the logical layer), scoped to the subtree at `scope`.
    ///
    /// Reported relative to `self`: `NodeAdded` means the node exists only in
    /// `other`, `NodeRemoved` only in `self`.
    pub fn diff(&self, other: &Tree, scope: &Path) -> Vec<DiffEntry> {
        let mut out = Vec::new();
        match (self.get(scope), other.get(scope)) {
            (Some(a), Some(b)) => Self::diff_rec(scope.clone(), a, b, &mut out),
            (Some(a), None) => out.push(DiffEntry::NodeRemoved {
                path: scope.clone(),
                entity: a.entity().to_owned(),
            }),
            (None, Some(b)) => out.push(DiffEntry::NodeAdded {
                path: scope.clone(),
                entity: b.entity().to_owned(),
            }),
            (None, None) => {}
        }
        out
    }

    fn diff_rec(path: Path, left: &Node, right: &Node, out: &mut Vec<DiffEntry>) {
        if left.entity() != right.entity() {
            out.push(DiffEntry::EntityChanged {
                path: path.clone(),
                left: left.entity().to_owned(),
                right: right.entity().to_owned(),
            });
            // Entity mismatch makes attribute comparison meaningless; the
            // node pair is still descended so child drift is reported.
        }
        for (key, lv) in left.attrs() {
            match right.attr(key) {
                Some(rv) if rv == lv => {}
                rv => out.push(DiffEntry::AttrChanged {
                    path: path.clone(),
                    attr: key.to_owned(),
                    left: Some(lv.clone()),
                    right: rv.cloned(),
                }),
            }
        }
        for (key, rv) in right.attrs() {
            if left.attr(key).is_none() {
                out.push(DiffEntry::AttrChanged {
                    path: path.clone(),
                    attr: key.to_owned(),
                    left: None,
                    right: Some(rv.clone()),
                });
            }
        }
        for (name, lchild) in left.children() {
            match right.child(name) {
                Some(rchild) => Self::diff_rec(path.join(name), lchild, rchild, out),
                None => out.push(DiffEntry::NodeRemoved {
                    path: path.join(name),
                    entity: lchild.entity().to_owned(),
                }),
            }
        }
        for (name, rchild) in right.children() {
            if left.child(name).is_none() {
                out.push(DiffEntry::NodeAdded {
                    path: path.join(name),
                    entity: rchild.entity().to_owned(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tree {
        let mut t = Tree::new();
        t.insert(&Path::parse("/vmRoot").unwrap(), Node::new("vmRoot"))
            .unwrap();
        t.insert(
            &Path::parse("/vmRoot/host1").unwrap(),
            Node::new("vmHost").with_attr("memCapacity", 32768i64),
        )
        .unwrap();
        t.insert(
            &Path::parse("/vmRoot/host1/vm1").unwrap(),
            Node::new("vm")
                .with_attr("state", "running")
                .with_attr("mem", 2048i64),
        )
        .unwrap();
        t
    }

    #[test]
    fn insert_get_remove() {
        let mut t = sample();
        let p = Path::parse("/vmRoot/host1/vm1").unwrap();
        assert!(t.exists(&p));
        assert_eq!(t.get(&p).unwrap().attr_str("state"), Some("running"));
        let removed = t.remove(&p).unwrap();
        assert_eq!(removed.attr_int("mem"), Some(2048));
        assert!(!t.exists(&p));
        assert!(matches!(t.remove(&p), Err(ModelError::NoSuchPath(_))));
    }

    #[test]
    fn insert_requires_parent() {
        let mut t = Tree::new();
        let deep = Path::parse("/a/b").unwrap();
        assert!(matches!(
            t.insert(&deep, Node::new("x")),
            Err(ModelError::ParentMissing(_))
        ));
    }

    #[test]
    fn insert_rejects_duplicate_and_root() {
        let mut t = sample();
        assert!(matches!(
            t.insert(&Path::parse("/vmRoot").unwrap(), Node::new("vmRoot")),
            Err(ModelError::DuplicateNode(_))
        ));
        assert!(matches!(
            t.insert(&Path::root(), Node::new("root")),
            Err(ModelError::RootImmutable)
        ));
    }

    #[test]
    fn attr_ops() {
        let mut t = sample();
        let p = Path::parse("/vmRoot/host1/vm1").unwrap();
        assert_eq!(t.attr_int(&p, "mem").unwrap(), 2048);
        assert_eq!(t.attr_str(&p, "state").unwrap(), "running");
        assert!(t.attr_int(&p, "state").is_err());
        assert!(t.attr_int(&p, "absent").is_err());
        let old = t.set_attr(&p, "state", "stopped").unwrap();
        assert_eq!(old, Some(Value::Str("running".into())));
        assert_eq!(t.attr_str(&p, "state").unwrap(), "stopped");
        assert_eq!(t.remove_attr(&p, "mem").unwrap(), Some(Value::Int(2048)));
    }

    #[test]
    fn walk_and_find() {
        let t = sample();
        let walked = t.walk();
        assert_eq!(walked.len(), 4);
        assert_eq!(walked[0].0, Path::root());
        let vms = t.find_entity("vm");
        assert_eq!(vms, vec![Path::parse("/vmRoot/host1/vm1").unwrap()]);
        assert_eq!(t.node_count(), 4);
    }

    #[test]
    fn replace_subtree_and_root() {
        let mut t = sample();
        let p = Path::parse("/vmRoot/host1").unwrap();
        let old = t.replace(&p, Node::new("vmHost")).unwrap();
        assert_eq!(old.child_count(), 1);
        assert_eq!(t.get(&p).unwrap().child_count(), 0);
        let old_root = t.replace(&Path::root(), Node::new("root")).unwrap();
        assert!(old_root.has_child("vmRoot"));
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn inconsistency_propagates_to_descendants() {
        let mut t = sample();
        let host = Path::parse("/vmRoot/host1").unwrap();
        let vm = Path::parse("/vmRoot/host1/vm1").unwrap();
        assert!(!t.is_inconsistent(&vm));
        t.mark_inconsistent(&host, true).unwrap();
        assert!(t.is_inconsistent(&host));
        assert!(t.is_inconsistent(&vm));
        assert!(!t.is_inconsistent(&Path::parse("/vmRoot").unwrap()));
        t.mark_inconsistent(&host, false).unwrap();
        assert!(!t.is_inconsistent(&vm));
    }

    #[test]
    fn snapshot_roundtrip() {
        let t = sample();
        let snap = t.to_snapshot().unwrap();
        let back = Tree::from_snapshot(&snap).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn diff_identical_is_empty() {
        let t = sample();
        assert!(t.diff(&t.clone(), &Path::root()).is_empty());
    }

    #[test]
    fn diff_detects_attr_change() {
        let a = sample();
        let mut b = sample();
        let vm = Path::parse("/vmRoot/host1/vm1").unwrap();
        b.set_attr(&vm, "state", "stopped").unwrap();
        let d = a.diff(&b, &Path::root());
        assert_eq!(d.len(), 1);
        match &d[0] {
            DiffEntry::AttrChanged {
                path,
                attr,
                left,
                right,
            } => {
                assert_eq!(path, &vm);
                assert_eq!(attr, "state");
                assert_eq!(left.as_ref().unwrap().as_str(), Some("running"));
                assert_eq!(right.as_ref().unwrap().as_str(), Some("stopped"));
            }
            other => panic!("unexpected diff entry {other:?}"),
        }
    }

    #[test]
    fn diff_detects_added_and_removed_nodes() {
        let a = sample();
        let mut b = sample();
        let vm2 = Path::parse("/vmRoot/host1/vm2").unwrap();
        b.insert(&vm2, Node::new("vm")).unwrap();
        b.remove(&Path::parse("/vmRoot/host1/vm1").unwrap())
            .unwrap();
        let d = a.diff(&b, &Path::root());
        assert_eq!(d.len(), 2);
        assert!(d
            .iter()
            .any(|e| matches!(e, DiffEntry::NodeAdded { path, .. } if path == &vm2)));
        assert!(d.iter().any(
            |e| matches!(e, DiffEntry::NodeRemoved { path, .. } if path.leaf() == Some("vm1"))
        ));
    }

    #[test]
    fn mounted_tree_diffs_one_subtree() {
        let full = sample();
        let host = Path::parse("/vmRoot/host1").unwrap();
        let alone = Tree::mounted(&host, full.get(&host).cloned());
        assert!(full.diff(&alone, &host).is_empty());
        assert_eq!(
            alone
                .get(&Path::parse("/vmRoot").unwrap())
                .unwrap()
                .entity(),
            "frame"
        );
        // Nothing mounted: the whole subtree is missing.
        let empty = Tree::mounted(&host, None);
        assert_eq!(full.diff(&empty, &host).len(), 1);
        // The root mounts by replacement.
        let root = Tree::mounted(&Path::root(), Some(full.root().clone()));
        assert!(full.diff(&root, &Path::root()).is_empty());
    }

    #[test]
    fn diff_scoped() {
        let a = sample();
        let mut b = sample();
        b.set_attr(&Path::parse("/vmRoot/host1").unwrap(), "x", 1i64)
            .unwrap();
        // Outside the scope nothing is reported.
        let storage_scope = Path::parse("/storageRoot").unwrap();
        assert!(a.diff(&b, &storage_scope).is_empty());
        let host_scope = Path::parse("/vmRoot/host1").unwrap();
        assert_eq!(a.diff(&b, &host_scope).len(), 1);
    }

    #[test]
    fn diff_detects_entity_change() {
        let a = sample();
        let mut b = sample();
        let host = Path::parse("/vmRoot/host1").unwrap();
        let mut replacement = Node::new("storageHost").with_attr("memCapacity", 32768i64);
        replacement.insert_child(
            "vm1",
            Node::new("vm")
                .with_attr("state", "running")
                .with_attr("mem", 2048i64),
        );
        b.replace(&host, replacement).unwrap();
        let d = a.diff(&b, &Path::root());
        assert_eq!(d.len(), 1);
        assert!(matches!(&d[0], DiffEntry::EntityChanged { .. }));
    }

    #[test]
    fn approx_size_positive_and_monotone() {
        let small = Tree::new().approx_size();
        let big = sample().approx_size();
        assert!(big > small);
    }
}
