// Fixture: a `*_unchecked` call with neither a debug_assert! contract in
// the enclosing function nor an adjacent SAFETY note.  The definition line
// itself must NOT be flagged — the contract belongs at the call site.
// Expected: exactly one unchecked-contract finding (at the call).

fn load_unchecked(buf: &[u8], i: usize) -> u8 {
    buf[i]
}

fn head(buf: &[u8]) -> u8 {
    load_unchecked(buf, 0)
}
