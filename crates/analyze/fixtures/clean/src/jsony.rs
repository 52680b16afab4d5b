//! JSON sites that are all accounted for: one inline allow, one in test
//! code.

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
