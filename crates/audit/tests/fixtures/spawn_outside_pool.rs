// Fixture: a raw thread spawn outside tensor/src/pool.rs.
// Expected: exactly one thread-discipline finding.

fn start() -> std::thread::JoinHandle<()> {
    std::thread::spawn(|| {})
}
