//! Wire/WAL schema fingerprinting against a committed
//! `WIRE_SCHEMAS.lock`.
//!
//! A registry names the types and constants that define the repo's
//! three serialized formats. For each, the analyzer extracts a
//! normalized fingerprint — field/variant lines with their serde
//! attributes, or a constant's value — and compares it to the lock
//! file. Any mismatch fails the check; the diagnostic says whether the
//! change is a *legal* evolution (record it with `--bless`) or an
//! illegal one (bump the format version or add `#[serde(default)]`).
//!
//! Families and their evolution policies:
//! - `wire` (JSON envelopes): additive changes are legal when every
//!   added field carries `#[serde(default)]` (new enum variants are
//!   additive too); anything else requires a `WIRE_VERSION` bump.
//! - `wal` (binary log records): any drift requires a `FORMAT_VERSION`
//!   bump — there is no additive escape hatch for a positional codec.
//! - `snapshot` (snapshot/delta headers): the magic constants *are*
//!   the version, so a change is self-anchoring but must still be
//!   blessed so the lock-file diff is visible in review.

use std::collections::BTreeMap;

use crate::lexer::{Lexed, TokKind};
use crate::report::{check, Finding};
use crate::scope::matching_brace;

/// Which serialized format an entry belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Versioned JSON envelope types (anchor: `WIRE_VERSION`).
    Wire,
    /// Binary WAL record codec (anchor: `FORMAT_VERSION`).
    Wal,
    /// Snapshot/delta file headers (self-anchored magic constants).
    Snapshot,
}

impl Family {
    fn as_str(self) -> &'static str {
        match self {
            Family::Wire => "wire",
            Family::Wal => "wal",
            Family::Snapshot => "snapshot",
        }
    }
}

/// What kind of registry entry this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// A struct or enum whose fields/variants are fingerprinted.
    Type,
    /// A constant whose value is fingerprinted.
    Const,
    /// The family's version constant; its value gates evolutions.
    Anchor,
}

impl EntryKind {
    fn as_str(self) -> &'static str {
        match self {
            EntryKind::Type => "type",
            EntryKind::Const => "const",
            EntryKind::Anchor => "anchor",
        }
    }
}

/// One registered schema element.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Format family.
    pub family: Family,
    /// Repo-relative file (forward slashes).
    pub file: String,
    /// Entry kind.
    pub kind: EntryKind,
    /// Type or constant name.
    pub name: String,
}

impl Entry {
    fn key(&self) -> String {
        format!(
            "{} {} {}::{}",
            self.kind.as_str(),
            self.family.as_str(),
            self.file,
            self.name
        )
    }
}

/// The set of registered schema elements.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// All entries, in registration order.
    pub entries: Vec<Entry>,
}

fn e(family: Family, file: &str, kind: EntryKind, name: &str) -> Entry {
    Entry {
        family,
        file: file.to_string(),
        kind,
        name: name.to_string(),
    }
}

impl Registry {
    /// The repo's registry: every type and constant that participates
    /// in a serialized format.
    pub fn repo() -> Registry {
        use EntryKind::{Anchor, Const, Type};
        use Family::{Snapshot, Wal, Wire};
        let msg = "crates/core/src/msg.rs";
        let rpc = "crates/core/src/rpc.rs";
        let api = "crates/core/src/api.rs";
        let txn = "crates/core/src/txn.rs";
        let twin = "crates/core/src/twin.rs";
        let physical = "crates/core/src/physical.rs";
        let report = "crates/devices/src/report.rs";
        let codec = "crates/coord/src/codec.rs";
        let store = "crates/coord/src/store.rs";
        let snap = "crates/coord/src/snapshot.rs";
        let mut entries = vec![e(Wire, msg, Anchor, "WIRE_VERSION")];
        for name in [
            "Envelope",
            "InputMsg",
            "PhyTask",
            "AdminResult",
            "WireError",
        ] {
            entries.push(e(Wire, msg, Type, name));
        }
        for name in ["RpcRequest", "RpcResponse"] {
            entries.push(e(Wire, rpc, Type, name));
        }
        for name in ["TxnRequest", "ApiError"] {
            entries.push(e(Wire, api, Type, name));
        }
        for name in ["LogRecord", "TxnRecord"] {
            entries.push(e(Wire, txn, Type, name));
        }
        // Worker results travel inside `InputMsg::Result`; an operator
        // episode is stored durably in its record's labels.
        entries.push(e(Wire, physical, Type, "PhysicalOutcome"));
        for name in ["TwinEvent", "RepairEpisode"] {
            entries.push(e(Wire, twin, Type, name));
        }
        entries.push(e(Wire, report, Type, "StateReport"));
        entries.push(e(Wal, codec, Anchor, "FORMAT_VERSION"));
        entries.push(e(Wal, store, Type, "Op"));
        for name in [
            "TAG_CREATE",
            "TAG_SET",
            "TAG_DELETE",
            "TAG_PURGE",
            "TAG_MULTI",
        ] {
            entries.push(e(Wal, codec, Const, name));
        }
        for name in ["MAGIC", "DELTA_MAGIC", "TAG_PUT", "TAG_TOMBSTONE"] {
            entries.push(e(Snapshot, snap, Const, name));
        }
        Registry { entries }
    }

    /// The fixture registry used by `--self-test` and the integration
    /// tests; mirrors the repo registry's shape over the fixture tree.
    pub fn fixtures() -> Registry {
        use EntryKind::{Anchor, Type};
        use Family::Wire;
        let wire = "src/wire.rs";
        Registry {
            entries: vec![
                e(Wire, wire, Anchor, "WIRE_VERSION"),
                e(Wire, wire, Type, "Envelope"),
                e(Wire, wire, Type, "InputMsg"),
            ],
        }
    }
}

/// The extracted fingerprint of one entry: a header key plus detail
/// lines (field/variant lines for types, a single value line for
/// consts and anchors).
pub type Fingerprints = BTreeMap<String, Vec<String>>;

fn render_toks(lexed: &Lexed, from: usize, to: usize) -> String {
    lexed.toks[from..to]
        .iter()
        .map(|t| t.text.as_str())
        .collect::<Vec<_>>()
        .join(" ")
}

/// Collects serde attributes *before* token index `i`, scanning back
/// over `#[…]` groups and doc attributes. Returns rendered serde attr
/// bodies in source order.
fn serde_attrs_before(lexed: &Lexed, mut i: usize) -> Vec<String> {
    let toks = &lexed.toks;
    let mut attrs = Vec::new();
    loop {
        // Expect … `]` scanning backwards for the matching `[` with `#`.
        if i == 0 || !toks[i - 1].is_punct("]") {
            break;
        }
        let close = i - 1;
        let mut depth = 0usize;
        let mut open = None;
        let mut k = close;
        loop {
            if toks[k].is_punct("]") {
                depth += 1;
            } else if toks[k].is_punct("[") {
                depth -= 1;
                if depth == 0 {
                    open = Some(k);
                    break;
                }
            }
            if k == 0 {
                break;
            }
            k -= 1;
        }
        let Some(open) = open else { break };
        if open == 0 || !toks[open - 1].is_punct("#") {
            break;
        }
        if toks[open + 1].is_ident("serde") {
            attrs.push(render_toks(lexed, open + 1, close));
        }
        i = open - 1;
    }
    attrs.reverse();
    attrs
}

/// Extracts the fingerprint lines for a struct/enum named `name`.
fn extract_type(lexed: &Lexed, name: &str) -> Option<Vec<String>> {
    let toks = &lexed.toks;
    let mut at = None;
    for i in 0..toks.len().saturating_sub(1) {
        if (toks[i].is_ident("struct") || toks[i].is_ident("enum")) && toks[i + 1].is_ident(name) {
            at = Some(i);
            break;
        }
    }
    let i = at?;
    let is_enum = toks[i].is_ident("enum");
    let mut lines = Vec::new();
    for a in serde_attrs_before(lexed, i) {
        lines.push(format!("attr {a}"));
    }
    // Find the body `{`, a tuple `(`, or a unit `;`.
    let mut j = i + 2;
    while j < toks.len() {
        if toks[j].is_punct("{") {
            break;
        }
        if toks[j].is_punct("(") {
            // Tuple struct: fingerprint the whole payload.
            let mut depth = 0usize;
            let start = j;
            while j < toks.len() {
                if toks[j].is_punct("(") {
                    depth += 1;
                } else if toks[j].is_punct(")") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            lines.push(format!("tuple {}", render_toks(lexed, start, j + 1)));
            return Some(lines);
        }
        if toks[j].is_punct(";") {
            lines.push("unit".to_string());
            return Some(lines);
        }
        j += 1;
    }
    if j >= toks.len() {
        return None;
    }
    let body_end = matching_brace(toks, j);
    let mut k = j + 1;
    while k < body_end {
        // Attributes on the field/variant.
        let mut serde_attrs = Vec::new();
        while k < body_end && toks[k].is_punct("#") {
            let mut depth = 0usize;
            let open = k + 1;
            let mut close = open;
            while close < body_end {
                if toks[close].is_punct("[") {
                    depth += 1;
                } else if toks[close].is_punct("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                close += 1;
            }
            if toks[open + 1].is_ident("serde") {
                serde_attrs.push(render_toks(lexed, open + 1, close));
            }
            k = close + 1;
        }
        // Visibility.
        while k < body_end
            && (toks[k].is_ident("pub") || toks[k].is_punct("(") || toks[k].is_ident("crate"))
        {
            if toks[k].is_punct("(") {
                // pub(crate) group
                while k < body_end && !toks[k].is_punct(")") {
                    k += 1;
                }
            }
            k += 1;
        }
        if k >= body_end {
            break;
        }
        if toks[k].kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let item_name = toks[k].text.clone();
        k += 1;
        if is_enum {
            // Optional payload: ( … ), { … } or = expr.
            let mut payload = String::new();
            if k < body_end && toks[k].is_punct("(") {
                let start = k;
                let mut depth = 0usize;
                while k < body_end {
                    if toks[k].is_punct("(") {
                        depth += 1;
                    } else if toks[k].is_punct(")") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    k += 1;
                }
                payload = render_toks(lexed, start, (k + 1).min(body_end));
                k += 1;
            } else if k < body_end && toks[k].is_punct("{") {
                let end = matching_brace(toks, k);
                payload = render_toks(lexed, k, (end + 1).min(body_end + 1));
                k = end + 1;
            } else if k < body_end && toks[k].is_punct("=") {
                let start = k;
                while k < body_end && !toks[k].is_punct(",") {
                    k += 1;
                }
                payload = render_toks(lexed, start, k);
            }
            let serde = if serde_attrs.is_empty() {
                String::new()
            } else {
                format!(" [{}]", serde_attrs.join("; "))
            };
            if payload.is_empty() {
                lines.push(format!("variant {item_name}{serde}"));
            } else {
                lines.push(format!("variant {item_name} {payload}{serde}"));
            }
            // Skip to the `,` separating variants.
            while k < body_end && !toks[k].is_punct(",") {
                k += 1;
            }
            k += 1;
        } else {
            // Struct field: `name : type` up to a top-level `,`.
            if k >= body_end || !toks[k].is_punct(":") {
                continue;
            }
            k += 1;
            let start = k;
            let mut angle = 0i32;
            let mut group = 0i32;
            while k < body_end {
                let t = &toks[k];
                if t.is_punct("<") {
                    angle += 1;
                } else if t.is_punct(">") {
                    angle -= 1;
                } else if t.is_punct("(") || t.is_punct("[") {
                    group += 1;
                } else if t.is_punct(")") || t.is_punct("]") {
                    group -= 1;
                } else if t.is_punct(",") && angle <= 0 && group <= 0 {
                    break;
                }
                k += 1;
            }
            let ty = render_toks(lexed, start, k);
            let serde = if serde_attrs.is_empty() {
                String::new()
            } else {
                format!(" [{}]", serde_attrs.join("; "))
            };
            lines.push(format!("field {item_name} : {ty}{serde}"));
            k += 1;
        }
    }
    Some(lines)
}

/// Extracts a constant's value tokens: `const NAME : T = <value> ;`.
fn extract_const(lexed: &Lexed, name: &str) -> Option<Vec<String>> {
    let toks = &lexed.toks;
    for i in 0..toks.len().saturating_sub(2) {
        if !(toks[i].is_ident("const") && toks[i + 1].is_ident(name)) {
            continue;
        }
        let mut j = i + 2;
        while j < toks.len() && !toks[j].is_punct("=") {
            j += 1;
        }
        let start = j + 1;
        let mut k = start;
        while k < toks.len() && !toks[k].is_punct(";") {
            k += 1;
        }
        return Some(vec![format!("= {}", render_toks(lexed, start, k))]);
    }
    None
}

/// Extracts the fingerprints of all registry entries from the lexed
/// sources (`files` maps repo-relative path to its lexed tokens).
/// Missing entries produce a finding.
pub fn extract(
    registry: &Registry,
    files: &BTreeMap<String, Lexed>,
    findings: &mut Vec<Finding>,
) -> Fingerprints {
    let mut out = Fingerprints::new();
    for entry in &registry.entries {
        let Some(lexed) = files.get(&entry.file) else {
            findings.push(Finding {
                file: entry.file.clone(),
                line: 0,
                check: check::SCHEMA,
                message: format!("registered schema file not found (wanted {})", entry.key()),
            });
            continue;
        };
        let lines = match entry.kind {
            EntryKind::Type => extract_type(lexed, &entry.name),
            EntryKind::Const | EntryKind::Anchor => extract_const(lexed, &entry.name),
        };
        match lines {
            Some(lines) => {
                out.insert(entry.key(), lines);
            }
            None => findings.push(Finding {
                file: entry.file.clone(),
                line: 0,
                check: check::SCHEMA,
                message: format!("registered schema element `{}` not found", entry.key()),
            }),
        }
    }
    out
}

/// Serializes fingerprints into the lock-file text.
pub fn render_lock(fp: &Fingerprints) -> String {
    let mut out = String::from(
        "# WIRE_SCHEMAS.lock — generated by `tropic-analyze --bless`; do not edit by hand.\n\
         # Each entry fingerprints a serialized type or constant; see docs/STATIC_ANALYSIS.md.\n",
    );
    for (key, lines) in fp {
        out.push_str(key);
        out.push('\n');
        for l in lines {
            out.push_str("  ");
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

/// Parses the lock-file text back into fingerprints.
pub fn parse_lock(text: &str) -> Fingerprints {
    let mut out = Fingerprints::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if let Some(detail) = line.strip_prefix("  ") {
            if let Some(lines) = current.as_ref().and_then(|key| out.get_mut(key)) {
                lines.push(detail.to_string());
            }
            continue;
        }
        out.insert(line.to_string(), Vec::new());
        current = Some(line.to_string());
    }
    out
}

fn anchor_key_of(fp: &Fingerprints, family: &str) -> Option<String> {
    fp.keys()
        .find(|k| k.starts_with(&format!("anchor {family} ")))
        .cloned()
}

fn anchor_bumped(current: &Fingerprints, locked: &Fingerprints, family: &str) -> bool {
    let Some(key) = anchor_key_of(current, family) else {
        return false;
    };
    match (current.get(&key), locked.get(&key)) {
        (Some(now), Some(then)) => now != then,
        (Some(_), None) => true,
        _ => false,
    }
}

/// True when `now` is an additive evolution of `then`: every old line
/// survives verbatim (in order), and every inserted line is either a
/// `field … [serde ( default )…]` or a new `variant`.
fn is_additive(then: &[String], now: &[String]) -> bool {
    let mut ti = 0usize;
    for line in now {
        if ti < then.len() && *line == then[ti] {
            ti += 1;
            continue;
        }
        let added_ok =
            (line.starts_with("field ") && line.contains("serde ( default") && line.contains('['))
                || line.starts_with("variant ");
        if !added_ok {
            return false;
        }
    }
    ti == then.len()
}

/// Compares current fingerprints to the lock file, appending findings.
/// `lock_text` is `None` when the lock file does not exist yet.
pub fn compare(current: &Fingerprints, lock_text: Option<&str>, findings: &mut Vec<Finding>) {
    let Some(lock_text) = lock_text else {
        findings.push(Finding {
            file: "WIRE_SCHEMAS.lock".to_string(),
            line: 0,
            check: check::SCHEMA,
            message: "lock file missing; run `tropic-analyze --bless` to create it".to_string(),
        });
        return;
    };
    let locked = parse_lock(lock_text);

    for (key, now) in current {
        let family = key.split(' ').nth(1).unwrap_or("");
        let file = key
            .split(' ')
            .nth(2)
            .and_then(|p| p.split("::").next())
            .unwrap_or("WIRE_SCHEMAS.lock")
            .to_string();
        match locked.get(key) {
            None => findings.push(Finding {
                file,
                line: 0,
                check: check::SCHEMA,
                message: format!(
                    "`{key}` is not in WIRE_SCHEMAS.lock; run `tropic-analyze --bless`"
                ),
            }),
            Some(then) if then == now => {}
            Some(then) => {
                let bumped = anchor_bumped(current, &locked, family);
                let legal = match family {
                    "wire" => bumped || is_additive(then, now),
                    "wal" => bumped,
                    // Snapshot magic constants are self-anchoring.
                    "snapshot" => true,
                    _ => false,
                };
                let msg = if key.starts_with("anchor ") {
                    format!(
                        "`{key}` changed from `{}` to `{}`; run `tropic-analyze --bless` to record the new format version",
                        then.join(" "),
                        now.join(" ")
                    )
                } else if legal {
                    format!(
                        "`{key}` drifted from WIRE_SCHEMAS.lock (legal evolution); run `tropic-analyze --bless` to record it"
                    )
                } else if family == "wire" {
                    format!(
                        "`{key}` drifted without a WIRE_VERSION bump; add #[serde(default)] to new fields or bump WIRE_VERSION, then run `tropic-analyze --bless`"
                    )
                } else {
                    format!(
                        "`{key}` drifted without a FORMAT_VERSION bump; bump the codec version, then run `tropic-analyze --bless`"
                    )
                };
                findings.push(Finding {
                    file,
                    line: 0,
                    check: check::SCHEMA,
                    message: msg,
                });
            }
        }
    }
    for key in locked.keys() {
        if !current.contains_key(key) {
            findings.push(Finding {
                file: "WIRE_SCHEMAS.lock".to_string(),
                line: 0,
                check: check::SCHEMA,
                message: format!(
                    "stale lock entry `{key}` (no longer registered/extracted); run `tropic-analyze --bless`"
                ),
            });
        }
    }
}

/// Verifies that every drift is a legal evolution; returns the list of
/// illegal drifts (empty means `--bless` may proceed).
pub fn illegal_drifts(current: &Fingerprints, lock_text: Option<&str>) -> Vec<String> {
    let Some(lock_text) = lock_text else {
        return Vec::new(); // first bless: everything is legal
    };
    let locked = parse_lock(lock_text);
    let mut illegal = Vec::new();
    for (key, now) in current {
        let family = key.split(' ').nth(1).unwrap_or("");
        if let Some(then) = locked.get(key) {
            if then == now {
                continue;
            }
            let bumped = anchor_bumped(current, &locked, family);
            let legal = key.starts_with("anchor ")
                || match family {
                    "wire" => bumped || is_additive(then, now),
                    "wal" => bumped,
                    "snapshot" => true,
                    _ => false,
                };
            if !legal {
                illegal.push(key.clone());
            }
        }
    }
    illegal
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn fp_of(src: &str, file: &str, reg: &Registry) -> (Fingerprints, Vec<Finding>) {
        let mut files = BTreeMap::new();
        files.insert(file.to_string(), lex(src));
        let mut findings = Vec::new();
        let fp = extract(reg, &files, &mut findings);
        (fp, findings)
    }

    fn wire_reg() -> Registry {
        Registry {
            entries: vec![
                e(Family::Wire, "m.rs", EntryKind::Anchor, "WIRE_VERSION"),
                e(Family::Wire, "m.rs", EntryKind::Type, "Envelope"),
            ],
        }
    }

    const BASE: &str = "pub const WIRE_VERSION: u32 = 1;\n\
        pub struct Envelope { pub v: u32, pub msg: InputMsg }";

    #[test]
    fn roundtrip_lock_format() {
        let (fp, f) = fp_of(BASE, "m.rs", &wire_reg());
        assert!(f.is_empty());
        let text = render_lock(&fp);
        assert_eq!(parse_lock(&text), fp);
    }

    #[test]
    fn unchanged_tree_is_clean() {
        let (fp, _) = fp_of(BASE, "m.rs", &wire_reg());
        let lock = render_lock(&fp);
        let mut f = Vec::new();
        compare(&fp, Some(&lock), &mut f);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn field_change_without_bump_is_illegal() {
        let (old, _) = fp_of(BASE, "m.rs", &wire_reg());
        let lock = render_lock(&old);
        let changed = BASE.replace("pub v: u32", "pub v: u64");
        let (now, _) = fp_of(&changed, "m.rs", &wire_reg());
        let mut f = Vec::new();
        compare(&now, Some(&lock), &mut f);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("without a WIRE_VERSION bump"));
        assert!(!illegal_drifts(&now, Some(&lock)).is_empty());
    }

    #[test]
    fn added_defaulted_field_is_legal_but_needs_bless() {
        let (old, _) = fp_of(BASE, "m.rs", &wire_reg());
        let lock = render_lock(&old);
        let changed = BASE.replace(
            "pub msg: InputMsg }",
            "pub msg: InputMsg, #[serde(default)] pub trace: Option<u64> }",
        );
        let (now, _) = fp_of(&changed, "m.rs", &wire_reg());
        let mut f = Vec::new();
        compare(&now, Some(&lock), &mut f);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("legal evolution"), "{}", f[0].message);
        assert!(illegal_drifts(&now, Some(&lock)).is_empty());
    }

    #[test]
    fn bumped_anchor_makes_field_change_legal() {
        let (old, _) = fp_of(BASE, "m.rs", &wire_reg());
        let lock = render_lock(&old);
        let changed = BASE
            .replace("pub v: u32", "pub v: u64")
            .replace("WIRE_VERSION: u32 = 1", "WIRE_VERSION: u32 = 2");
        let (now, _) = fp_of(&changed, "m.rs", &wire_reg());
        assert!(illegal_drifts(&now, Some(&lock)).is_empty());
        let mut f = Vec::new();
        compare(&now, Some(&lock), &mut f);
        // Still findings (lock must be re-blessed), but marked legal.
        assert!(f.iter().all(|x| x.message.contains("bless")));
    }

    #[test]
    fn enum_variants_fingerprint() {
        let reg = Registry {
            entries: vec![e(Family::Wal, "w.rs", EntryKind::Type, "Op")],
        };
        let (fp, f) = fp_of(
            "pub enum Op { Create { path: Path, data: Bytes }, Delete(Path), Noop }",
            "w.rs",
            &reg,
        );
        assert!(f.is_empty());
        let lines = fp.values().next().expect("one entry");
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("variant Create {"));
        assert!(lines[1].starts_with("variant Delete ("));
        assert_eq!(lines[2], "variant Noop");
    }

    #[test]
    fn missing_type_reported() {
        let reg = Registry {
            entries: vec![e(Family::Wire, "m.rs", EntryKind::Type, "Ghost")],
        };
        let (_, f) = fp_of("pub struct Real;", "m.rs", &reg);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("not found"));
    }

    #[test]
    fn missing_lock_file_reported() {
        let (fp, _) = fp_of(BASE, "m.rs", &wire_reg());
        let mut f = Vec::new();
        compare(&fp, None, &mut f);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("lock file missing"));
    }
}
