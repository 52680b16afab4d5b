//! Tree nodes: objects representing instances of entities (paper §2.2).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::value::Value;

/// A node in the hierarchical data model.
///
/// Each node is an object representing an instance of an entity type (e.g. a
/// `vmHost` or a `vm`). Nodes carry named attributes and named children.
/// The `inconsistent` flag implements the paper's volatility marking (§4):
/// once a node is marked, it and its descendants reject new transactions
/// until reconciliation clears the flag.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Entity type name, e.g. `"vmHost"`. Constraints and schemas attach to
    /// entity types rather than to individual nodes.
    entity: String,
    /// Attribute map.
    attrs: BTreeMap<String, Value>,
    /// Children keyed by name (the name is the child's path segment).
    children: BTreeMap<String, Node>,
    /// Cross-layer inconsistency marker (paper §4).
    #[serde(default)]
    inconsistent: bool,
}

impl Node {
    /// Creates a node of the given entity type with no attributes.
    pub fn new(entity: impl Into<String>) -> Self {
        Node {
            entity: entity.into(),
            attrs: BTreeMap::new(),
            children: BTreeMap::new(),
            inconsistent: false,
        }
    }

    /// Builder-style attribute insertion for topology construction.
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.attrs.insert(key.into(), value.into());
        self
    }

    /// The entity type name of this node.
    pub fn entity(&self) -> &str {
        &self.entity
    }

    /// Reads an attribute.
    pub fn attr(&self, key: &str) -> Option<&Value> {
        self.attrs.get(key)
    }

    /// Reads an integer attribute, if present and of the right type.
    pub fn attr_int(&self, key: &str) -> Option<i64> {
        self.attr(key).and_then(Value::as_int)
    }

    /// Reads a string attribute, if present and of the right type.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(Value::as_str)
    }

    /// Reads a boolean attribute, if present and of the right type.
    pub fn attr_bool(&self, key: &str) -> Option<bool> {
        self.attr(key).and_then(Value::as_bool)
    }

    /// Sets an attribute, returning the previous value if any.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<Value>) -> Option<Value> {
        self.attrs.insert(key.into(), value.into())
    }

    /// Removes an attribute, returning its previous value if any.
    pub fn remove_attr(&mut self, key: &str) -> Option<Value> {
        self.attrs.remove(key)
    }

    /// Iterates over all attributes in key order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of attributes.
    pub fn attr_count(&self) -> usize {
        self.attrs.len()
    }

    /// Looks up a direct child by name.
    pub fn child(&self, name: &str) -> Option<&Node> {
        self.children.get(name)
    }

    /// Looks up a direct child mutably.
    pub fn child_mut(&mut self, name: &str) -> Option<&mut Node> {
        self.children.get_mut(name)
    }

    /// Inserts or replaces a child, returning the previous child if any.
    pub fn insert_child(&mut self, name: impl Into<String>, node: Node) -> Option<Node> {
        self.children.insert(name.into(), node)
    }

    /// Removes a child, returning it if it existed.
    pub fn remove_child(&mut self, name: &str) -> Option<Node> {
        self.children.remove(name)
    }

    /// Returns `true` if a direct child with this name exists.
    pub fn has_child(&self, name: &str) -> bool {
        self.children.contains_key(name)
    }

    /// Iterates over direct children in name order.
    pub fn children(&self) -> impl Iterator<Item = (&str, &Node)> {
        self.children.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of direct children.
    pub fn child_count(&self) -> usize {
        self.children.len()
    }

    /// Total number of nodes in this subtree, including `self`.
    pub fn subtree_size(&self) -> usize {
        1 + self
            .children
            .values()
            .map(Node::subtree_size)
            .sum::<usize>()
    }

    /// Whether this node is marked cross-layer inconsistent (paper §4).
    pub fn is_inconsistent(&self) -> bool {
        self.inconsistent
    }

    /// Sets or clears the inconsistency marker on this node only.
    pub fn set_inconsistent(&mut self, flag: bool) {
        self.inconsistent = flag;
    }

    /// Approximate in-memory footprint of the subtree in bytes (§6.1
    /// memory-footprint experiment).
    pub fn approx_size(&self) -> usize {
        let own = 64
            + self.entity.len()
            + self
                .attrs
                .iter()
                .map(|(k, v)| 24 + k.len() + v.approx_size())
                .sum::<usize>();
        own + self
            .children
            .iter()
            .map(|(k, v)| 24 + k.len() + v.approx_size())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attrs_basic() {
        let mut n = Node::new("vm")
            .with_attr("mem", 2048i64)
            .with_attr("state", "stopped");
        assert_eq!(n.entity(), "vm");
        assert_eq!(n.attr_int("mem"), Some(2048));
        assert_eq!(n.attr_str("state"), Some("stopped"));
        assert_eq!(n.attr_int("state"), None);
        assert_eq!(n.set_attr("mem", 4096i64), Some(Value::Int(2048)));
        assert_eq!(n.remove_attr("mem"), Some(Value::Int(4096)));
        assert_eq!(n.attr("mem"), None);
        assert_eq!(n.attr_count(), 1);
    }

    #[test]
    fn children_basic() {
        let mut host = Node::new("vmHost");
        assert!(host.insert_child("vm1", Node::new("vm")).is_none());
        assert!(host.has_child("vm1"));
        assert_eq!(host.child("vm1").unwrap().entity(), "vm");
        assert_eq!(host.child_count(), 1);
        host.child_mut("vm1").unwrap().set_attr("state", "running");
        assert_eq!(
            host.child("vm1").unwrap().attr_str("state"),
            Some("running")
        );
        let removed = host.remove_child("vm1").unwrap();
        assert_eq!(removed.attr_str("state"), Some("running"));
        assert_eq!(host.child_count(), 0);
    }

    #[test]
    fn subtree_size_counts_all() {
        let mut root = Node::new("root");
        let mut host = Node::new("vmHost");
        host.insert_child("vm1", Node::new("vm"));
        host.insert_child("vm2", Node::new("vm"));
        root.insert_child("h", host);
        assert_eq!(root.subtree_size(), 4);
    }

    #[test]
    fn inconsistency_flag() {
        let mut n = Node::new("vm");
        assert!(!n.is_inconsistent());
        n.set_inconsistent(true);
        assert!(n.is_inconsistent());
    }

    #[test]
    fn serde_roundtrip() {
        let mut n = Node::new("vmHost").with_attr("memCapacity", 32768i64);
        n.insert_child("vm1", Node::new("vm").with_attr("state", "running"));
        let s = serde_json::to_string(&n).unwrap();
        let back: Node = serde_json::from_str(&s).unwrap();
        assert_eq!(n, back);
    }

    #[test]
    fn children_sorted_by_name() {
        let mut n = Node::new("root");
        n.insert_child("b", Node::new("x"));
        n.insert_child("a", Node::new("x"));
        let names: Vec<&str> = n.children().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
