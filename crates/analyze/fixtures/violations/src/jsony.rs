//! Seeded json-edge violation: a store payload written as JSON beside its
//! binary layout. The allowed site and the test-only site do not count.

pub fn persist(paths: &[String]) -> Vec<u8> {
    serde_json::to_vec(paths).unwrap_or_default()
}

pub fn log_argument(paths: &[String]) -> String {
    // analyze:allow(json-edge): a log argument's text, not a store payload
    serde_json::to_string(paths).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip() {
        let _ = serde_json::to_vec(&[1]);
    }
}
