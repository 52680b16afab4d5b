//! Per-action latency models for simulated devices.
//!
//! Physical orchestration actions are slow — cloning a VM image takes orders
//! of magnitude longer than flipping a VLAN. The latency model lets the
//! examples and benches reproduce that asymmetry (and lets unit tests turn
//! it off entirely).

use std::collections::BTreeMap;
use std::time::Duration;

/// Maps action names to simulated execution times.
#[derive(Clone, Debug, Default)]
pub struct LatencyModel {
    default: Duration,
    per_action: BTreeMap<String, Duration>,
}

impl LatencyModel {
    /// A model in which every action completes instantly.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A model with a uniform per-action latency.
    pub fn uniform(d: Duration) -> Self {
        LatencyModel {
            default: d,
            per_action: BTreeMap::new(),
        }
    }

    /// Overrides the latency of one action.
    pub fn with_action(mut self, action: &str, d: Duration) -> Self {
        self.per_action.insert(action.to_owned(), d);
        self
    }

    /// A rough model of the TCloud testbed: image operations dominate, VM
    /// lifecycle operations are quick, scaled down ~100× from realistic
    /// values so examples finish promptly.
    pub fn tcloud_scaled() -> Self {
        LatencyModel::uniform(Duration::from_millis(1))
            .with_action("cloneImage", Duration::from_millis(40))
            .with_action("exportImage", Duration::from_millis(5))
            .with_action("importImage", Duration::from_millis(5))
            .with_action("createVM", Duration::from_millis(10))
            .with_action("startVM", Duration::from_millis(20))
            .with_action("stopVM", Duration::from_millis(10))
    }

    /// The simulated duration of `action`.
    pub fn delay_for(&self, action: &str) -> Duration {
        self.per_action.get(action).copied().unwrap_or(self.default)
    }

    /// Sleeps for the action's simulated duration (no-op at zero).
    pub fn apply(&self, action: &str) {
        let d = self.delay_for(action);
        if !d.is_zero() {
            // analyze:allow(sleep-site): modeled device time, moves to the clock with item 9
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_model_is_instant() {
        let m = LatencyModel::zero();
        assert_eq!(m.delay_for("anything"), Duration::ZERO);
    }

    #[test]
    fn per_action_overrides_default() {
        let m = LatencyModel::uniform(Duration::from_millis(2))
            .with_action("cloneImage", Duration::from_millis(50));
        assert_eq!(m.delay_for("cloneImage"), Duration::from_millis(50));
        assert_eq!(m.delay_for("startVM"), Duration::from_millis(2));
    }

    #[test]
    fn tcloud_model_ranks_clone_slowest() {
        let m = LatencyModel::tcloud_scaled();
        assert!(m.delay_for("cloneImage") > m.delay_for("startVM"));
        assert!(m.delay_for("startVM") > m.delay_for("exportImage"));
    }

    #[test]
    fn apply_sleeps() {
        let m = LatencyModel::uniform(Duration::from_millis(10));
        let start = std::time::Instant::now();
        m.apply("x");
        assert!(start.elapsed() >= Duration::from_millis(9));
    }
}
