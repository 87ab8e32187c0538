//! Loopback end-to-end tests for the telemetry frames: live scrapes of a
//! serving process, and the structural guarantee that a scrape is
//! answered on the io thread — never queued behind the request path.

use errflow_net::proto::{self, FrameType, MetricsFormat, HEADER_LEN, TIER_ALL};
use errflow_net::{MetricsResponseFrame, NetClient, NetConfig, NetServer};
use errflow_nn::{Activation, Mlp};
use errflow_serve::{LoadgenConfig, ServeConfig, Server, TelemetryConfig};
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

fn start_net(server: &Arc<Server<Mlp>>) -> NetServer {
    NetServer::start(
        Arc::clone(server),
        "127.0.0.1:0",
        NetConfig {
            io_threads: 1,
            ..NetConfig::default()
        },
    )
    .expect("start net server")
}

/// Serve real load with the telemetry pump running, then scrape over the
/// wire: the tiered dump must carry live series, the Prometheus text must
/// carry serve metrics, and health must report the default objectives.
#[test]
fn scrape_while_serving_returns_live_telemetry() {
    let server = test_server(2, 32);
    let net = start_net(&server);
    // Fast pump so the test needs milliseconds of wall clock, not seconds.
    let _telemetry = errflow_serve::start_telemetry(
        server.stats_source(),
        TelemetryConfig {
            interval: Duration::from_millis(20),
            ..TelemetryConfig::default()
        },
    );

    let cfg = LoadgenConfig {
        clients: 2,
        requests_per_client: 15,
        samples_per_request: 8,
        tolerances: vec![1e-2],
        seed: 11,
        ..LoadgenConfig::default()
    };
    let addr = net.local_addr();
    let load =
        errflow_serve::run_loadgen(server.input_dim(), &cfg, || errflow_net::load_client(addr));
    assert_eq!((load.requests, load.failed), (30, 0), "{load:?}");
    // Let the pump observe the completed load (needs ≥ 2 ticks: baseline
    // then delta).
    std::thread::sleep(Duration::from_millis(120));

    let mut client = NetClient::connect(net.local_addr()).expect("connect");
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();

    // Binary scrape: non-empty tiered series incl. the completed-rate
    // series, plus live histogram dumps.
    match client.scrape(MetricsFormat::Binary, TIER_ALL, 256).unwrap() {
        MetricsResponseFrame::Binary(p) => {
            assert!(!p.dump.tiers.is_empty());
            let tier0 = &p.dump.tiers[0];
            assert!(!tier0.series.is_empty(), "no live series retained");
            let completed = tier0
                .series
                .iter()
                .find(|s| s.name == "serve.completed")
                .expect("completed-rate series missing");
            assert!(!completed.points.is_empty());
            assert!(
                p.hists
                    .iter()
                    .any(|h| h.name == "serve.latency_ns" && h.count > 0),
                "latency histogram missing from scrape"
            );
            assert!(
                p.hists
                    .iter()
                    .any(|h| h.name == "serve.stage.forward_ns" && h.count > 0),
                "forward-stage histogram missing from scrape"
            );
        }
        other => panic!("expected binary payload, got {other:?}"),
    }

    // Single-tier selector trims the dump.
    match client.scrape(MetricsFormat::Binary, 0, 256).unwrap() {
        MetricsResponseFrame::Binary(p) => {
            assert_eq!(p.dump.tiers.len(), 1);
            assert_eq!(p.dump.tiers[0].tier, 0);
        }
        other => panic!("expected binary payload, got {other:?}"),
    }

    // Prometheus scrape: exposition text with serve metrics, and it
    // passes the conformance checker.
    match client
        .scrape(MetricsFormat::Prometheus, TIER_ALL, 0)
        .unwrap()
    {
        MetricsResponseFrame::Text { body, .. } => {
            assert!(body.contains("errflow_serve_completed"), "{body}");
            let violations = errflow_obs::promcheck::validate(&body);
            assert!(violations.is_empty(), "{violations:?}");
        }
        other => panic!("expected text payload, got {other:?}"),
    }

    // JSON scrape: well-formed shell with series and slo blocks.
    match client.scrape(MetricsFormat::Json, TIER_ALL, 64).unwrap() {
        MetricsResponseFrame::Text { body, .. } => {
            assert!(body.starts_with("{\"series\":"), "{body}");
            assert!(body.contains("\"slo\":"), "{body}");
            assert_eq!(body.matches('{').count(), body.matches('}').count());
        }
        other => panic!("expected text payload, got {other:?}"),
    }

    // Health: the default objective set, every state decodable.
    let statuses = client.health().unwrap();
    assert_eq!(statuses.len(), 4, "{statuses:?}");
    assert!(
        statuses.iter().any(|s| s.name == "rejection_budget"),
        "{statuses:?}"
    );
}

/// The structural guarantee: metrics/health frames are answered on the io
/// thread, so a server whose serve queue is jammed (zero workers, jobs
/// parked forever) still answers scrapes immediately.
#[test]
fn scrape_never_blocks_behind_the_request_path() {
    let server = test_server(0, 4);
    let net = start_net(&server);

    // Jam the serve queue: admit requests that no worker will ever drain.
    // Raw stream, fire-and-forget — the (never-coming) responses are
    // never read.
    let mut jammer = TcpStream::connect(net.local_addr()).expect("connect jammer");
    let req = errflow_net::RequestFrame {
        model_id: 0,
        rel_tolerance: 1e-2,
        norm: errflow_tensor::norms::Norm::L2,
        layout: errflow_pipeline::planner::PayloadLayout::FeatureMajor,
        samples: vec![vec![0.25f32; 5]; 4],
    };
    let bytes = proto::encode_request(&req).unwrap();
    for _ in 0..4 {
        jammer.write_all(&bytes).unwrap();
    }
    // Give the io thread a moment to admit the jobs into the full queue.
    std::thread::sleep(Duration::from_millis(100));

    // A scrape on a second connection must be answered within the read
    // timeout even though every queued request is stuck forever.
    let mut observer = NetClient::connect(net.local_addr()).expect("connect observer");
    observer
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let t0 = std::time::Instant::now();
    match observer.scrape(MetricsFormat::Binary, TIER_ALL, 64) {
        Ok(MetricsResponseFrame::Binary(_)) => {}
        other => panic!("scrape on jammed server failed: {other:?}"),
    }
    let statuses = observer.health();
    assert!(statuses.is_ok(), "{statuses:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(4),
        "scrape waited on the request path: {:?}",
        t0.elapsed()
    );
}

/// Forged headers and truncated bodies on telemetry frames surface as
/// typed error frames (then the connection closes) — never hangs or
/// panics.
#[test]
fn forged_and_truncated_telemetry_frames_get_typed_errors() {
    let server = test_server(1, 8);
    let net = start_net(&server);

    // Oversized tier selector inside a valid header.
    let mut s = TcpStream::connect(net.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut frame = proto::encode_metrics_request(&proto::MetricsRequestFrame {
        format: MetricsFormat::Prometheus,
        tier: 0,
        window: 16,
    })
    .unwrap();
    frame[HEADER_LEN + 1] = 42; // tier byte → out of range
    s.write_all(&frame).unwrap();
    let (ftype, body) = read_frame(&mut s);
    assert_eq!(ftype, FrameType::Error);
    let err = proto::decode_error(&body).unwrap();
    assert!(!err.retryable);
    assert!(err.message.contains("tier"), "{err:?}");

    // Truncated body: header promises more bytes than ever arrive, then
    // the stream closes — the server must simply drop the connection.
    let mut s = TcpStream::connect(net.local_addr()).unwrap();
    let full = proto::encode_metrics_request(&proto::MetricsRequestFrame {
        format: MetricsFormat::Json,
        tier: TIER_ALL,
        window: 16,
    })
    .unwrap();
    s.write_all(&full[..HEADER_LEN + 2]).unwrap();
    drop(s);

    // A health frame with trailing garbage in the body is malformed.
    let mut s = TcpStream::connect(net.local_addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut req = proto::encode_health_request();
    // Forge a nonzero body length with junk payload.
    req[8] = 3;
    req.extend_from_slice(&[1, 2, 3]);
    s.write_all(&req).unwrap();
    let (ftype, body) = read_frame(&mut s);
    assert_eq!(ftype, FrameType::Error);
    assert!(proto::decode_error(&body).is_ok());

    // The server is still healthy after all of that.
    let mut client = NetClient::connect(net.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    assert!(client.health().is_ok());
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
