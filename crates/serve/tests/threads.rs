//! Thread accounting: a server costs one dedicated thread per worker and
//! gives them all back at shutdown.  The pool's dedicated-thread count is
//! process-wide, so this test has a binary (and so a process) to itself.

use errflow_nn::{Activation, Mlp};
use errflow_serve::{Request, ServeConfig, Server};

#[test]
fn a_server_holds_exactly_one_dedicated_thread_per_worker() {
    let pool = errflow_tensor::pool::global();
    let baseline = pool.dedicated_threads();
    for workers in [1usize, 3] {
        let mut server = Server::new(
            Mlp::new(&[4, 8, 2], Activation::Tanh, Activation::Identity, 3, None),
            vec![vec![0.25; 4]; 4],
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        );
        assert_eq!(pool.dedicated_threads(), baseline + workers);
        // Still so once a worker has served: none spawns a helper thread.
        server
            .process(Request::new(vec![vec![0.5; 4]], 1e-2))
            .unwrap();
        assert_eq!(pool.dedicated_threads(), baseline + workers);
        server.shutdown();
        assert_eq!(pool.dedicated_threads(), baseline);
    }
}
