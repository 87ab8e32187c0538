// Fixture: a decoder that casts a freshly read header field straight to
// usize instead of going through the checked helpers.
// Expected: exactly one unchecked-header-cast finding.

fn decode_header(stream: &[u8]) -> usize {
    let mut w = [0u8; 8];
    w.copy_from_slice(&stream[..8]);
    u64::from_le_bytes(w) as usize
}
