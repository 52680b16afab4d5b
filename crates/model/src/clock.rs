//! Time abstraction shared by the coordination service, the platform, and
//! the experiment harnesses.
//!
//! The paper's wall-clock quantities (1-hour traces, 10-second heartbeat
//! intervals) are impractical in a test suite, so every time-dependent
//! component reads time through a [`Clock`]. Experiments run on the
//! [`RealClock`] with scaled-down intervals; unit tests drive a
//! [`ManualClock`] deterministically.
//!
//! Every wait in the product is one [`Clock::wait`] on a [`Wake`]: it ends
//! when the wake is notified (a watch fired, a session ended, a stop was
//! raised) or when the clock reaches a deadline. Nothing polls, so an idle
//! component does nothing, and a [`ManualClock`] steps every wait.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// A wake-up source: a generation counter that [`Wake::notify`] bumps. A
/// waiter reads [`Wake::seen`] *before* it checks whatever it waits for,
/// then passes that generation to [`Clock::wait`], so a notification that
/// lands between the check and the wait is never lost.
#[derive(Debug, Default)]
pub struct Wake {
    generation: Mutex<u64>,
    cond: Condvar,
}

impl Wake {
    /// The current generation.
    pub fn seen(&self) -> u64 {
        *self.generation.lock()
    }

    /// Wakes every waiter on this wake.
    pub fn notify(&self) {
        *self.generation.lock() += 1;
        self.cond.notify_all();
    }

    /// Wakes the waiters without a new generation, so each re-reads the
    /// clock (a [`ManualClock`] moved).
    fn poke(&self) {
        let _generation = self.generation.lock();
        self.cond.notify_all();
    }

    /// Blocks until notified past `seen` (`true`) or until `left` reports
    /// no time left (`false`); while `left` is `None`, only a notification
    /// or a poke ends a block.
    fn block(&self, seen: u64, left: impl Fn() -> Option<Duration>) -> bool {
        let mut generation = self.generation.lock();
        while *generation == seen {
            match left() {
                None => self.cond.wait(&mut generation),
                Some(left) if left.is_zero() => return false,
                Some(left) => _ = self.cond.wait_for(&mut generation, left),
            }
        }
        true
    }
}

/// A monotonic clock measured in milliseconds since an arbitrary epoch.
pub trait Clock: Send + Sync {
    /// Milliseconds since the clock's epoch.
    fn now_ms(&self) -> u64;

    /// Blocks until `wake` moves past generation `seen` (returns `true`) or
    /// this clock reaches `deadline_ms` (returns `false`). With no
    /// deadline, only a notification ends the wait.
    fn wait(&self, wake: &Arc<Wake>, seen: u64, deadline_ms: Option<u64>) -> bool;

    /// Blocks the calling thread for `d` of this clock's time.
    fn sleep(&self, d: Duration) {
        let deadline = self.now_ms().saturating_add(d.as_millis() as u64);
        self.wait(&Arc::default(), 0, Some(deadline));
    }
}

/// A [`Clock`] backed by [`Instant`].
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
}

impl RealClock {
    /// Creates a real clock whose epoch is now.
    pub fn new() -> Self {
        RealClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn wait(&self, wake: &Arc<Wake>, seen: u64, deadline_ms: Option<u64>) -> bool {
        let deadline = deadline_ms.map(Duration::from_millis);
        wake.block(seen, || {
            deadline.map(|d| d.saturating_sub(self.epoch.elapsed()))
        })
    }

    /// Sub-millisecond exact, unlike a deadline on [`Clock::now_ms`]: the
    /// modeled write latency is often a fraction of a millisecond.
    fn sleep(&self, d: Duration) {
        std::thread::sleep(d);
    }
}

/// A manually-advanced clock for deterministic tests.
///
/// A [`Clock::wait`] with a deadline blocks until another thread advances
/// the clock past it (or notifies the wake), so multi-threaded components
/// can be driven step by step.
pub struct ManualClock {
    now_ms: AtomicU64,
    /// The wakes of the waits in progress, poked on every advance.
    waiters: Mutex<Vec<Arc<Wake>>>,
}

impl ManualClock {
    /// Creates a manual clock at time zero.
    pub fn new() -> Arc<Self> {
        Arc::new(ManualClock {
            now_ms: AtomicU64::new(0),
            waiters: Mutex::new(Vec::new()),
        })
    }

    /// Advances the clock by `ms` milliseconds, waking waiters whose
    /// deadlines have passed.
    pub fn advance(&self, ms: u64) {
        self.now_ms.fetch_add(ms, Ordering::SeqCst);
        self.waiters.lock().iter().for_each(|w| w.poke());
    }

    /// Sets the clock to an absolute time, which must not move backwards.
    pub fn set(&self, ms: u64) {
        let prev = self.now_ms.swap(ms, Ordering::SeqCst);
        debug_assert!(ms >= prev, "manual clock moved backwards");
        self.waiters.lock().iter().for_each(|w| w.poke());
    }
}

impl Clock for ManualClock {
    fn now_ms(&self) -> u64 {
        self.now_ms.load(Ordering::SeqCst)
    }

    fn wait(&self, wake: &Arc<Wake>, seen: u64, deadline_ms: Option<u64>) -> bool {
        // Registered before the clock is read: an advance either comes
        // after the read below, and pokes this wake, or before it, and the
        // read sees it.
        self.waiters.lock().push(Arc::clone(wake));
        let due = || deadline_ms.filter(|&d| self.now_ms() >= d);
        let woke = wake.block(seen, || due().map(|_| Duration::ZERO));
        let mut waiters = self.waiters.lock();
        if let Some(i) = waiters.iter().position(|w| Arc::ptr_eq(w, wake)) {
            waiters.swap_remove(i);
        }
        woke
    }
}

/// A shareable clock handle.
pub type SharedClock = Arc<dyn Clock>;

/// Convenience constructor for a shared [`RealClock`].
pub fn real_clock() -> SharedClock {
    Arc::new(RealClock::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn real_clock_advances() {
        let c = RealClock::new();
        let a = c.now_ms();
        c.sleep(Duration::from_millis(5));
        assert!(c.now_ms() >= a);
    }

    #[test]
    fn manual_clock_advance_and_set() {
        let c = ManualClock::new();
        assert_eq!(c.now_ms(), 0);
        c.advance(100);
        assert_eq!(c.now_ms(), 100);
        c.set(250);
        assert_eq!(c.now_ms(), 250);
    }

    #[test]
    fn manual_clock_wakes_sleeper() {
        let c = ManualClock::new();
        let c2 = Arc::clone(&c);
        let handle = thread::spawn(move || {
            c2.sleep(Duration::from_millis(500));
            c2.now_ms()
        });
        // Give the sleeper a moment to block, then advance past its deadline.
        thread::sleep(Duration::from_millis(20));
        c.advance(600);
        let woke_at = handle.join().unwrap();
        assert!(woke_at >= 500);
    }

    #[test]
    fn manual_clock_zero_sleep_returns() {
        let c = ManualClock::new();
        c.sleep(Duration::from_millis(0));
    }

    #[test]
    fn a_wait_ends_on_a_notify_or_at_its_deadline() {
        for clock in [real_clock(), ManualClock::new() as SharedClock] {
            let wake = Arc::new(Wake::default());
            let seen = wake.seen();
            wake.notify();
            assert!(clock.wait(&wake, seen, None), "a notify before the wait");
            let now = clock.now_ms();
            assert!(
                !clock.wait(&wake, wake.seen(), Some(now)),
                "a past deadline"
            );
        }
        let real = RealClock::new();
        let wake = Arc::new(Wake::default());
        assert!(!real.wait(&wake, wake.seen(), Some(real.now_ms() + 20)));
        assert!(real.now_ms() >= 20);
    }
}
