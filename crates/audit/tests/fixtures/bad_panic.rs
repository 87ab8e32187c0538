// Fixture: an unwrap on a library request path.
// Expected: exactly one panic-reach finding.

fn must(v: Option<u32>) -> u32 {
    v.unwrap()
}
