// Fixture: an unsafe block with no SAFETY justification anywhere near it.
// Expected: exactly one safety-comment finding.

fn write_through(p: *mut u8) {
    unsafe {
        *p = 1;
    }
}
