// Fixture: memo-purity — `#[cfg(not(test))]` guards live code, so the
// clock read in `leaf` is reachable from the memo insert path.
pub fn warm(c: &Cache) -> f64 {
    c.get_or_insert(1, || leaf())
}

#[cfg(not(test))]
fn leaf() -> f64 {
    std::time::Instant::now().elapsed().as_secs_f64()
}
