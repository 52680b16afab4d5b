//! Sleep sites that are all accounted for: one inline allow, one in test
//! code.

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
