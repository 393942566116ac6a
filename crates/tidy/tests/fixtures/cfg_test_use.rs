// Fixture: `#[cfg(test)]` on a body-less item covers that item only, so
// the `unwrap` in the library fn after it must be flagged.
#[cfg(test)]
use super::*;

pub fn f(x: Option<u8>) -> u8 {
    x.unwrap()
}
