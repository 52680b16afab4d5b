//! Simulated network between ensemble replicas.
//!
//! The broadcast protocol sends its propose/ack/commit traffic through a
//! [`SimNet`], which can partition the replica set into isolated groups.
//! This is how the test suite exercises quorum loss and leader changes
//! without real sockets.

use std::collections::HashSet;

use parking_lot::Mutex;

/// Identifier of a replica endpoint on the simulated network.
pub type NodeId = usize;

/// A partitionable message fabric.
#[derive(Default)]
pub struct SimNet {
    /// Disjoint groups of mutually-reachable nodes. Empty = fully connected.
    partitions: Mutex<Vec<HashSet<NodeId>>>,
}

impl SimNet {
    /// Creates a fully-connected network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Splits the network into isolated groups. Nodes absent from every
    /// group can reach nobody.
    pub fn partition(&self, groups: Vec<Vec<NodeId>>) {
        *self.partitions.lock() = groups
            .into_iter()
            .map(|g| g.into_iter().collect())
            .collect();
    }

    /// Removes all partitions.
    pub fn heal(&self) {
        self.partitions.lock().clear();
    }

    /// Whether a message from `from` reaches `to`: both sit in one group,
    /// or the network is not partitioned. Self-delivery always succeeds.
    pub fn deliver(&self, from: NodeId, to: NodeId) -> bool {
        let partitions = self.partitions.lock();
        from == to
            || partitions.is_empty()
            || partitions
                .iter()
                .any(|g| g.contains(&from) && g.contains(&to))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fully_connected_by_default() {
        let net = SimNet::new();
        assert!(net.deliver(0, 1));
        assert!(net.deliver(2, 0));
    }

    #[test]
    fn partition_blocks_cross_group() {
        let net = SimNet::new();
        net.partition(vec![vec![0, 1], vec![2]]);
        assert!(net.deliver(0, 1));
        assert!(!net.deliver(0, 2));
        assert!(!net.deliver(2, 1));
        // Node 3 is in no group: unreachable.
        assert!(!net.deliver(0, 3));
        net.heal();
        assert!(net.deliver(0, 2));
    }

    #[test]
    fn self_delivery_survives_partition() {
        let net = SimNet::new();
        net.partition(vec![vec![0], vec![1]]);
        assert!(net.deliver(1, 1));
    }
}
