//! End-to-end socket-path tests: a live [`NetServer`] over loopback,
//! driven through [`NetClient`] / raw frames.
//!
//! The backpressure regression here is the load-bearing one: admission
//! rejection (`QueueFull`) must surface as a *retryable* typed error
//! frame on a connection that stays open — never a dropped connection.

use errflow_net::proto::{self, ErrorCode, FrameType, RequestFrame, HEADER_LEN};
use errflow_net::{load_client, settle_egress, NetConfig, NetServer};
use errflow_nn::{Activation, Mlp};
use errflow_pipeline::planner::PayloadLayout;
use errflow_serve::{report_json, run_loadgen, LoadgenConfig, ServeConfig, Server};
use errflow_tensor::norms::Norm;
use errflow_tensor::rng::StdRng;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn test_server(workers: usize, queue_capacity: usize) -> Arc<Server<Mlp>> {
    let model = Mlp::new(&[5, 16, 3], Activation::Tanh, Activation::Identity, 2, None);
    let mut rng = StdRng::seed_from_u64(3);
    let calibration: Vec<Vec<f32>> = (0..24)
        .map(|_| (0..5).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    Arc::new(Server::new(
        model,
        calibration,
        ServeConfig {
            workers,
            queue_capacity,
            ..ServeConfig::default()
        },
    ))
}

fn request_frame(samples: usize) -> RequestFrame {
    RequestFrame {
        model_id: 0,
        rel_tolerance: 1e-2,
        norm: Norm::L2,
        layout: PayloadLayout::FeatureMajor,
        samples: vec![vec![0.25f32; 5]; samples],
    }
}

/// Reads exactly one frame (header + body) off a blocking stream.
fn read_frame(stream: &mut TcpStream) -> (FrameType, Vec<u8>) {
    let mut head = [0u8; HEADER_LEN];
    stream.read_exact(&mut head).expect("read frame header");
    let header = proto::parse_header(&head).expect("parse frame header");
    let mut body = vec![0u8; header.body_len];
    stream.read_exact(&mut body).expect("read frame body");
    (header.frame_type, body)
}

#[test]
fn loadgen_over_loopback_certifies_every_bound() {
    let server = test_server(2, 32);
    let net = NetServer::start(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetConfig {
            io_threads: 2,
            ..NetConfig::default()
        },
    )
    .expect("start net server");

    let cfg = LoadgenConfig {
        clients: 3,
        requests_per_client: 20,
        samples_per_request: 8,
        tolerances: vec![1e-2],
        seed: 11,
        ..LoadgenConfig::default()
    };
    let addr = net.local_addr();
    let load = run_loadgen(server.input_dim(), &cfg, || load_client(addr));
    settle_egress(&server, load.requests);
    let snap = server.stats();

    assert_eq!(load.requests, 60);
    assert_eq!(load.failed, 0, "{:?}", load.first_failure);
    assert!(load.max_rel_bound <= 1e-2);
    // The wire path stamped frontend stages on every request.
    assert!(snap.stages.ingress.count >= 60, "{:?}", snap.stages.ingress);
    assert!(snap.stages.egress.count >= 60, "{:?}", snap.stages.egress);
    // RTT was measured per request and must dominate server latency.
    assert_eq!(load.rtt.count, 60);
    assert!(load.rtt.p50_us >= snap.latency.p50_us);
    assert!(load.overhead_p50_us.is_finite());
    // The JSON line carries the client view and both frontend stages.
    let j = report_json(&load, &snap);
    assert!(j.contains("\"failed\":0,"), "{j}");
    assert!(
        j.contains("\"rtt\":{") && j.contains("\"overhead_p50_us\":"),
        "{j}"
    );
    assert!(
        j.contains("\"ingress\":{") && j.contains("\"egress\":{"),
        "{j}"
    );
    assert_eq!(j.matches('{').count(), j.matches('}').count());

    // A client that cannot connect fails its share; nothing panics.
    drop(net);
    let down = run_loadgen(server.input_dim(), &cfg, || load_client(addr));
    assert_eq!((down.failed, down.rtt.count), (60, 0), "{down:?}");
    assert!(down
        .first_failure
        .is_some_and(|m| m.starts_with("connect: ")));
}

#[test]
fn queue_full_is_a_retryable_frame_and_the_connection_survives() {
    // Admission-only server: zero workers, capacity one.  The first
    // request parks in the queue forever; every later one deterministically
    // hits QueueFull.
    let server = test_server(0, 1);
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
        .expect("start net server");

    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let frame = proto::encode_request(&request_frame(2)).expect("encode");

    // First request occupies the queue; no reply will ever come for it.
    stream.write_all(&frame).expect("write first");
    // The next requests must each come back as a typed, retryable
    // backpressure frame on the SAME connection.
    for attempt in 0..3 {
        stream.write_all(&frame).expect("write overflow request");
        let (ftype, body) = read_frame(&mut stream);
        assert_eq!(ftype, FrameType::Error, "attempt {attempt}");
        let err = proto::decode_error(&body).expect("decode error frame");
        assert_eq!(err.code, ErrorCode::QueueFull, "attempt {attempt}");
        assert!(err.retryable, "backpressure must be retryable");
    }
    // The connection is still alive and well-framed after three rejections
    // — backpressure never cost us the socket.
}

#[test]
fn malformed_frame_gets_typed_error_then_close() {
    let server = test_server(1, 8);
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
        .expect("start net server");

    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&[0xFFu8; 32]).expect("write garbage");

    let (ftype, body) = read_frame(&mut stream);
    assert_eq!(ftype, FrameType::Error);
    let err = proto::decode_error(&body).expect("decode error frame");
    assert_eq!(err.code, ErrorCode::Malformed);
    assert!(!err.retryable);
    // After the error frame the server closes: next read hits EOF.
    let mut probe = [0u8; 1];
    let n = stream.read(&mut probe).expect("read after error frame");
    assert_eq!(n, 0, "connection must close after a malformed frame");
}

#[test]
fn wrong_model_id_is_invalid_but_connection_stays_open() {
    let server = test_server(1, 8);
    let served = server.model_id();
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
        .expect("start net server");

    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");

    let mut wrong = request_frame(2);
    wrong.model_id = served.wrapping_add(1);
    stream
        .write_all(&proto::encode_request(&wrong).expect("encode"))
        .expect("write");
    let (ftype, body) = read_frame(&mut stream);
    assert_eq!(ftype, FrameType::Error);
    let err = proto::decode_error(&body).expect("decode error frame");
    assert_eq!(err.code, ErrorCode::Invalid);

    // Same connection, correct id (and the 0 wildcard) both still served.
    for id in [served, 0] {
        let mut ok = request_frame(2);
        ok.model_id = id;
        stream
            .write_all(&proto::encode_request(&ok).expect("encode"))
            .expect("write");
        let (ftype, body) = read_frame(&mut stream);
        assert_eq!(ftype, FrameType::Response);
        let resp = proto::decode_response(&body).expect("decode response");
        assert!(resp.rel_bound <= 1e-2);
        assert_eq!(resp.outputs.len(), 2);
    }
}

#[test]
fn disconnect_with_inflight_request_frees_the_connection_slot() {
    // Regression: a client vanishing with a request still in flight used
    // to leak its connection slot forever (the dead conn left the poll
    // set before its completion drained), so `max_connections` such
    // disconnects bricked the server for all future clients.
    let server = test_server(1, 8);
    let net = NetServer::start(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetConfig {
            max_connections: 2,
            ..NetConfig::default()
        },
    )
    .expect("start net server");

    let frame = proto::encode_request(&request_frame(2)).expect("encode");
    // Churn well past the connection limit, always disconnecting before
    // the response comes back.
    for _ in 0..6 {
        let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
        stream.write_all(&frame).expect("write request");
        drop(stream); // gone before the completion delivers
        std::thread::sleep(Duration::from_millis(50));
    }
    // A few poll ticks for the last completions to drain and reap.
    std::thread::sleep(Duration::from_millis(400));

    // Every slot must be free again: a fresh connection is admitted and
    // served end to end.
    let mut stream = TcpStream::connect(net.local_addr()).expect("connect after churn");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream.write_all(&frame).expect("write request");
    let (ftype, body) = read_frame(&mut stream);
    assert_eq!(
        ftype,
        FrameType::Response,
        "leaked slots rejected a fresh connection"
    );
    let resp = proto::decode_response(&body).expect("decode response");
    assert_eq!(resp.outputs.len(), 2);
}

#[test]
fn no_trailing_frames_after_malformed_error() {
    // A request and garbage in the same burst: the request goes in flight,
    // then the malformed bytes trigger the error frame.  The completion of
    // that earlier request must NOT be sent behind the error frame — the
    // protocol says the connection closes after it.
    let server = test_server(1, 8);
    let net = NetServer::start(Arc::clone(&server), "127.0.0.1:0", NetConfig::default())
        .expect("start net server");

    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut bytes = proto::encode_request(&request_frame(2)).expect("encode");
    bytes.extend_from_slice(&[0xFFu8; 32]);
    stream.write_all(&bytes).expect("write request + garbage");

    let (ftype, body) = read_frame(&mut stream);
    assert_eq!(
        ftype,
        FrameType::Error,
        "first frame back must be the error"
    );
    let err = proto::decode_error(&body).expect("decode error frame");
    assert_eq!(err.code, ErrorCode::Malformed);
    // Then EOF — no response frame trails the error.
    let mut probe = [0u8; 1];
    let n = stream.read(&mut probe).expect("read after error frame");
    assert_eq!(n, 0, "got trailing bytes after the malformed error frame");
}

#[test]
fn idle_connections_are_reaped() {
    let server = test_server(1, 8);
    let net = NetServer::start(
        Arc::clone(&server),
        "127.0.0.1:0",
        NetConfig {
            idle_timeout: Duration::from_millis(150),
            ..NetConfig::default()
        },
    )
    .expect("start net server");

    let mut stream = TcpStream::connect(net.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Never send anything: within a generous window the sweep must close
    // us (poll tick 100ms + timeout 150ms << 10s).
    let mut probe = [0u8; 1];
    let n = stream.read(&mut probe).expect("read on idle connection");
    assert_eq!(n, 0, "idle connection must be closed by the sweep");
}
