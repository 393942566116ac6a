//! Library source for the `unused-pub` golden: each public function's
//! name says where its only mention is.

/// Called only from its own unit test: reported.
pub fn only_tested() -> u8 {
    1
}

/// Called from an integration test: silent.
pub fn from_integration_test() -> u8 {
    2
}

/// Called from a binary: silent.
pub fn from_bin() -> u8 {
    3
}

/// Called from the outside-in benchmark: silent.
pub fn from_perfbench() -> u8 {
    4
}

/// Named only in a comment and a string literal: reported.
pub fn only_in_prose() -> u8 {
    5
}

/// Called by other library code: silent.
pub fn from_library() -> u8 {
    6
}

/// Imported by a `use` item but never called: reported.
pub fn only_imported() -> u8 {
    7
}

/// Not `pub`: never reported.
pub(crate) fn crate_private() -> u8 {
    8
}

fn caller() -> u8 {
    // only_in_prose() is not a call.
    let _ = "only_in_prose";
    from_library()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t() {
        assert_eq!(only_tested(), 1);
    }
}
