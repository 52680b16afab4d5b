//! Quorum-based leader election recipe (paper §2.3).
//!
//! Each candidate creates an ephemeral-sequential znode under an election
//! base path; the candidate owning the lowest sequence number is the leader.
//! When a leader's session expires, its znode vanishes and the next
//! candidate observes leadership. This is the standard ZooKeeper recipe the
//! paper's controllers use to pick the single active controller.

use bytes::Bytes;
use tropic_model::Path;

use crate::error::CoordResult;
use crate::service::{CoordClient, CreateMode, WatchKind};

/// A participant in a leader election.
pub struct LeaderElection<'a> {
    client: &'a CoordClient,
    base: Path,
    my_node: Path,
}

impl<'a> LeaderElection<'a> {
    /// Joins the election at `base` as a candidate named `name` (stored as
    /// the znode payload for diagnostics).
    pub fn join(client: &'a CoordClient, base: Path, name: &str) -> CoordResult<Self> {
        client.create_all(&base)?;
        let my_node = client.create(
            &base.join("n-"),
            Bytes::from(name.to_owned()),
            CreateMode::EphemeralSequential,
        )?;
        Ok(LeaderElection {
            client,
            base,
            my_node,
        })
    }

    /// This candidate's election znode.
    pub fn my_node(&self) -> &Path {
        &self.my_node
    }

    /// Returns `true` if this candidate currently owns the lowest sequence
    /// number (i.e. is the leader).
    pub fn is_leader(&self) -> CoordResult<bool> {
        let children = self.client.get_children(&self.base)?;
        let me = self.my_node.leaf().expect("election node has a name");
        Ok(children.iter().min().map(String::as_str) == Some(me))
    }

    /// Blocks until this candidate becomes leader (`true`), or until the
    /// service clock reaches `deadline_ms` or `stop()` holds once a stopper
    /// notified the session (`false`).
    ///
    /// Rather than herd on the whole children list, each candidate watches
    /// its immediate predecessor znode, per the standard recipe.
    pub fn wait_leadership(
        &self,
        deadline_ms: Option<u64>,
        stop: impl Fn() -> bool,
    ) -> CoordResult<bool> {
        let probe = || Ok(self.is_leader()?.then_some(()));
        let led =
            (self.client).wait_watched(deadline_ms, stop, || self.watch_predecessor(), probe)?;
        Ok(led.is_some())
    }

    /// Arms a watch on this candidate's predecessor, if it has one. A
    /// predecessor that vanishes before its watch is armed would never
    /// fire it, so the watch moves down the list until it sits on a live
    /// node.
    fn watch_predecessor(&self) -> CoordResult<()> {
        let me = self.my_node.leaf().expect("named node");
        loop {
            let mut children = self.client.get_children(&self.base)?;
            children.sort();
            let Some(pred) = children.iter().take_while(|c| c.as_str() < me).last() else {
                return Ok(());
            };
            let pred_path = self.base.join(pred);
            self.client.watch(&pred_path, WatchKind::Node)?;
            if self.client.exists(&pred_path)? {
                return Ok(());
            }
        }
    }

    /// Leaves the election by deleting this candidate's znode.
    pub fn resign(self) -> CoordResult<()> {
        self.client.delete(&self.my_node, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{CoordConfig, CoordService};
    use std::sync::Arc;
    use std::time::Duration;

    fn p(s: &str) -> Path {
        Path::parse(s).unwrap()
    }

    #[test]
    fn first_joiner_leads() {
        let svc = CoordService::start(CoordConfig::default());
        let c1 = svc.connect("a");
        let c2 = svc.connect("b");
        let e1 = LeaderElection::join(&c1, p("/election"), "a").unwrap();
        let e2 = LeaderElection::join(&c2, p("/election"), "b").unwrap();
        assert!(e1.is_leader().unwrap());
        assert!(!e2.is_leader().unwrap());
        // Both candidates see the first joiner's node at the head, and it
        // carries that candidate's name.
        for c in [&c1, &c2] {
            let head = c.get_children(&p("/election")).unwrap().into_iter().min();
            assert_eq!(head.as_deref(), e1.my_node().leaf());
            let (name, _) = c.get_data(e1.my_node()).unwrap().unwrap();
            assert_eq!(&name[..], b"a");
        }
    }

    #[test]
    fn resignation_promotes_successor() {
        let svc = CoordService::start(CoordConfig::default());
        let c1 = svc.connect("a");
        let c2 = svc.connect("b");
        let e1 = LeaderElection::join(&c1, p("/election"), "a").unwrap();
        let e2 = LeaderElection::join(&c2, p("/election"), "b").unwrap();
        e1.resign().unwrap();
        assert!(e2.is_leader().unwrap());
    }

    #[test]
    fn session_expiry_promotes_successor() {
        let svc = CoordService::start(CoordConfig::default());
        let c1 = svc.connect("a");
        let c2 = svc.connect("b");
        let _e1 = LeaderElection::join(&c1, p("/election"), "a").unwrap();
        let e2 = LeaderElection::join(&c2, p("/election"), "b").unwrap();
        assert!(!e2.is_leader().unwrap());
        svc.expire_session(c1.session_id());
        assert!(e2.is_leader().unwrap());
    }

    #[test]
    fn wait_leadership_unblocks_on_predecessor_death() {
        let svc = Arc::new(CoordService::start(CoordConfig::default()));
        let c1 = svc.connect("a");
        let _e1 = LeaderElection::join(&c1, p("/election"), "a").unwrap();
        let svc2 = Arc::clone(&svc);
        let waiter = std::thread::spawn(move || {
            let c2 = svc2.connect("b");
            let e2 = LeaderElection::join(&c2, p("/election"), "b").unwrap();
            e2.wait_leadership(Some(c2.now_ms() + 5_000), || false)
                .unwrap()
        });
        std::thread::sleep(Duration::from_millis(100));
        svc.expire_session(c1.session_id());
        assert!(waiter.join().unwrap(), "successor should gain leadership");
    }

    #[test]
    fn wait_leadership_times_out_behind_live_leader() {
        let svc = CoordService::start(CoordConfig::default());
        let c1 = svc.connect("a");
        let c2 = svc.connect("b");
        let _e1 = LeaderElection::join(&c1, p("/election"), "a").unwrap();
        let e2 = LeaderElection::join(&c2, p("/election"), "b").unwrap();
        let deadline = c2.now_ms() + 150;
        assert!(!e2.wait_leadership(Some(deadline), || false).unwrap());
    }

    #[test]
    fn three_candidates_promote_in_order() {
        let svc = CoordService::start(CoordConfig::default());
        let clients: Vec<_> = (0..3).map(|i| svc.connect(&format!("c{i}"))).collect();
        let elections: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(i, c)| LeaderElection::join(c, p("/election"), &format!("c{i}")).unwrap())
            .collect();
        assert!(elections[0].is_leader().unwrap());
        svc.expire_session(clients[0].session_id());
        assert!(elections[1].is_leader().unwrap());
        assert!(!elections[2].is_leader().unwrap());
        svc.expire_session(clients[1].session_id());
        assert!(elections[2].is_leader().unwrap());
    }
}
