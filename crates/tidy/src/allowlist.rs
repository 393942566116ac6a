//! Per-file rule allowlist, read from `crates/tidy/allowlist.toml`.
//!
//! Hand-rolled minimal TOML subset — sections naming a rule, followed by
//! `"workspace/relative/path.rs" = "justification"` entries:
//!
//! ```toml
//! [no-unwrap]
//! "crates/baselines/src/pka.rs" = "best is Some: the candidate-k loop runs at least once"
//! ```
//!
//! The justification string is mandatory: an allowlist entry without a
//! reason is itself reported as a violation by the loader.

use std::collections::HashMap;

/// Parsed allowlist: rule name → (path → justification).
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    entries: HashMap<String, HashMap<String, String>>,
}

impl Allowlist {
    /// Parse the allowlist format. Returns `Err` with a line-numbered
    /// message on malformed input (unknown shapes, missing justification).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries: HashMap<String, HashMap<String, String>> = HashMap::new();
        let mut section: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let lineno = idx + 1;
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                section = Some(name.trim().to_string());
                entries.entry(name.trim().to_string()).or_default();
                continue;
            }
            let Some(rule) = &section else {
                return Err(format!(
                    "allowlist line {lineno}: entry before any [rule] section"
                ));
            };
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "allowlist line {lineno}: expected `\"path\" = \"reason\"`"
                ));
            };
            let path = unquote(key.trim())
                .ok_or_else(|| format!("allowlist line {lineno}: path must be quoted"))?;
            let reason = unquote(value.trim())
                .ok_or_else(|| format!("allowlist line {lineno}: reason must be quoted"))?;
            if reason.trim().is_empty() {
                return Err(format!(
                    "allowlist line {lineno}: empty justification for {path}"
                ));
            }
            entries
                .entry(rule.clone())
                .or_default()
                .insert(path.to_string(), reason.to_string());
        }
        Ok(Self { entries })
    }

    /// Is `path` (workspace-relative, `/`-separated) excused from `rule`?
    pub fn allows(&self, rule: &str, path: &str) -> bool {
        self.entries.get(rule).is_some_and(|m| m.contains_key(path))
    }

    /// All (rule, path, reason) entries, for reporting and for checking
    /// that the allowlist doesn't carry stale paths.
    pub fn entries(&self) -> impl Iterator<Item = (&str, &str, &str)> {
        self.entries.iter().flat_map(|(rule, files)| {
            files
                .iter()
                .map(move |(path, reason)| (rule.as_str(), path.as_str(), reason.as_str()))
        })
    }
}

fn unquote(s: &str) -> Option<&str> {
    s.strip_prefix('"')?.strip_suffix('"')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_and_entries() {
        let a = Allowlist::parse(
            "# comment\n[no-unwrap]\n\"crates/x/src/a.rs\" = \"reason one\"\n\n[no-float-eq]\n\"src/lib.rs\" = \"sentinel\"\n",
        )
        .expect("parses");
        assert!(a.allows("no-unwrap", "crates/x/src/a.rs"));
        assert!(a.allows("no-float-eq", "src/lib.rs"));
        assert!(!a.allows("no-unwrap", "src/lib.rs"));
        assert_eq!(a.entries().count(), 2);
    }

    #[test]
    fn rejects_missing_reason() {
        assert!(Allowlist::parse("[no-unwrap]\n\"a.rs\" = \"\"\n").is_err());
        assert!(Allowlist::parse("\"a.rs\" = \"orphan\"\n").is_err());
        assert!(Allowlist::parse("[r]\na.rs = \"unquoted\"\n").is_err());
    }
}
