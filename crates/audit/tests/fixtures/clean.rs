// Fixture: one satisfied or out-of-scope instance of everything the rules
// look for.  Expected: zero findings under any scoped path.

fn read_first(buf: &[u8]) -> u8 {
    debug_assert!(!buf.is_empty(), "caller guarantees a nonempty buffer");
    // SAFETY: the debug_assert above states the caller contract; in release
    // the same invariant is upheld by every call site.
    unsafe { *buf.as_ptr().add(0) }
}

fn first_unchecked(buf: &[u8]) -> u8 {
    buf[0]
}

fn head(buf: &[u8]) -> u8 {
    debug_assert!(!buf.is_empty());
    first_unchecked(buf)
}

fn parse_count(stream: &[u8]) -> Option<usize> {
    // The cast is fine here: no raw header read feeds it in-statement.
    let small: u8 = *stream.first()?;
    Some(small as usize)
}

fn describe() -> String {
    // Keywords inside strings and comments must not trip any rule:
    // unsafe { panic!() } thread::spawn(|| {}) x.unwrap()
    String::from("unsafe panic! unwrap() expect( thread::spawn")
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap_and_spawn() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
        std::thread::spawn(|| {}).join().expect("joined");
    }
}
