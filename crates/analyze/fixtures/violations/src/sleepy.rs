//! Seeded sleep-site violation: a retry loop that bare-sleeps, so a stop
//! waits out the pause and a manual clock cannot step it. The allowed
//! site and the test-only site do not count.

pub fn retry(mut attempt: impl FnMut() -> bool) {
    while !attempt() {
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
}

pub fn modeled_device() {
    // analyze:allow(sleep-site): modeled device time
    std::thread::sleep(std::time::Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    #[test]
    fn pause() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
