//! `errflow-cli top`: a live ANSI terminal dashboard over the telemetry
//! plane of a running errflow server.
//!
//! Each frame issues one binary metrics scrape plus one health request
//! over EFNP ([`crate::net::proto`]) and renders throughput, per-stage
//! latency sparklines, cache/scratch hit rates and SLO badges.  It shows
//! no bound-margin row: the served bound is the plan tolerance to within
//! an ulp on every request (see `errflow_serve::stats`), so the row
//! returns when the server records a realized-error series, which can
//! exceed 1.  Everything below the connection loop is
//! a pure `&data -> String` render function, unit-tested without a
//! server or a terminal; `std` only, like the rest of the workspace.
//!
//! The dashboard is read-only by construction: metrics frames are
//! answered on the server's io threads, so watching a loaded server from
//! `top` never competes with its request path.

use crate::net::proto::{HistogramDump, ScrapePayload, TIER_ALL};
use crate::net::{MetricsFormat, NetClient};
use crate::obs::slo::{SloState, SloStatus};
use crate::obs::timeseries::Point;
use std::time::Duration;

/// Unicode lower-block ramp used for sparklines (1/8 → 8/8).
const RAMP: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Stages shown in the per-stage panel, in pipeline order.  A stage whose
/// histogram recorded nothing (e.g. ingress/egress before any wire
/// traffic) is omitted from the frame entirely.
const STAGES: [(&str, &str); 7] = [
    ("ingress", "serve.stage.ingress_ns"),
    ("batch_wait", "serve.stage.batch_wait_ns"),
    ("plan", "serve.stage.plan_ns"),
    ("decompress", "serve.stage.decompress_ns"),
    ("forward", "serve.stage.forward_ns"),
    ("respond", "serve.stage.respond_ns"),
    ("egress", "serve.stage.egress_ns"),
];

/// How `top` runs: refresh interval and an optional frame budget
/// (`--frames N` renders N frames then exits — CI and tests use this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Milliseconds between frames.
    pub interval_ms: u64,
    /// Render this many frames then exit; `None` runs until the
    /// connection drops or the process is interrupted.
    pub frames: Option<u64>,
}

/// Renders a sparkline of the last `width` points, scaled to the window's
/// own min..max.  Empty input renders as empty.
pub fn sparkline(points: &[Point], width: usize) -> String {
    if points.is_empty() || width == 0 {
        return String::new();
    }
    let tail = &points[points.len().saturating_sub(width)..];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in tail {
        lo = lo.min(p.v);
        hi = hi.max(p.v);
    }
    let span = (hi - lo).max(f64::MIN_POSITIVE);
    tail.iter()
        .map(|p| {
            let level = (((p.v - lo) / span) * 7.0).round().clamp(0.0, 7.0) as usize;
            RAMP[level]
        })
        .collect()
}

/// Formats a quantity with an SI suffix (`1.23k`, `4.5M`), keeping small
/// values plain.
pub fn fmt_si(v: f64) -> String {
    let a = v.abs();
    if !v.is_finite() {
        "-".to_string()
    } else if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else if a >= 10.0 || a == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats nanoseconds human-readably (`850ns`, `3.2µs`, `1.4ms`, `2.1s`).
pub fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "-".to_string()
    } else if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// The `[ OK ]` / `[WARN]` / `[BRCH]` badge for an SLO state, with ANSI
/// color when `color` is set.
pub fn badge(state: SloState, color: bool) -> String {
    let (txt, code) = match state {
        SloState::Ok => ("[ OK ]", "32"),
        SloState::Warn => ("[WARN]", "33"),
        SloState::Breach => ("[BRCH]", "31"),
    };
    if color {
        format!("\x1b[{code}m{txt}\x1b[0m")
    } else {
        txt.to_string()
    }
}

/// Tier-0 points of `name` in the scrape, oldest first.
fn series<'a>(payload: &'a ScrapePayload, name: &str) -> &'a [Point] {
    payload
        .dump
        .tiers
        .first()
        .and_then(|t| t.series.iter().find(|s| s.name == name))
        .map(|s| s.points.as_slice())
        .unwrap_or(&[])
}

fn last_v(points: &[Point]) -> Option<f64> {
    points.last().map(|p| p.v)
}

fn hist<'a>(payload: &'a ScrapePayload, name: &str) -> Option<&'a HistogramDump> {
    payload.hists.iter().find(|h| h.name == name)
}

/// Latest-point hit rate of two counter-rate series, or the cumulative
/// ratio of two histogram-free counters when rates are idle.
fn rate_ratio(payload: &ScrapePayload, hits: &str, misses: &str) -> Option<f64> {
    let h = last_v(series(payload, hits))?;
    let m = last_v(series(payload, misses)).unwrap_or(0.0);
    if h + m <= 0.0 {
        None
    } else {
        Some(h / (h + m))
    }
}

/// Renders one full dashboard frame from a binary scrape and the SLO
/// statuses.  Pure; `color` toggles ANSI escapes in the badges.
pub fn render_frame(
    payload: &ScrapePayload,
    statuses: &[SloStatus],
    addr: &str,
    color: bool,
) -> String {
    const SPARK_W: usize = 40;
    let mut out = String::with_capacity(2048);
    out.push_str(&format!("errflow top — {addr}\n"));

    // Throughput: completed-requests rate (tier 0, 1/s points).
    let rps = series(payload, "serve.completed");
    out.push_str(&format!(
        "  throughput  {:>8} req/s  {}\n",
        fmt_si(last_v(rps).unwrap_or(0.0)),
        sparkline(rps, SPARK_W)
    ));
    let q = series(payload, "serve.queue_depth");
    if let Some(depth) = last_v(q) {
        out.push_str(&format!(
            "  queue depth {:>8}        {}\n",
            fmt_si(depth),
            sparkline(q, SPARK_W)
        ));
    }
    if let Some(mbps) = last_v(series(payload, "serve.decomp_mbps")) {
        out.push_str(&format!("  decode      {:>8} MB/s\n", fmt_si(mbps)));
    }

    // Hit rates (rate-based; falls back to silence when idle).
    let mut rates = Vec::new();
    if let Some(r) = rate_ratio(payload, "serve.plan_cache.hits", "serve.plan_cache.misses") {
        rates.push(format!("plan-cache {:.1}%", r * 100.0));
    }
    if let Some(r) = rate_ratio(payload, "compress.scratch.hits", "compress.scratch.misses") {
        rates.push(format!("scratch {:.1}%", r * 100.0));
    }
    if !rates.is_empty() {
        out.push_str(&format!("  hit rates   {}\n", rates.join("   ")));
    }

    // Per-stage latencies: p50/p99 of the last interval, p99 sparkline.
    out.push_str("  stages              p50        p99\n");
    for (label, base) in STAGES {
        // Omit stages that never recorded (count == 0 in the live dump).
        if hist(payload, base).map_or(true, |h| h.count == 0) {
            continue;
        }
        let p50 = last_v(series(payload, &format!("{base}.p50")));
        let p99s = series(payload, &format!("{base}.p99"));
        out.push_str(&format!(
            "    {label:<11} {:>9}  {:>9}  {}\n",
            p50.map(fmt_ns).unwrap_or_else(|| "-".into()),
            last_v(p99s).map(fmt_ns).unwrap_or_else(|| "-".into()),
            sparkline(p99s, SPARK_W)
        ));
    }

    // SLO badges.
    if !statuses.is_empty() {
        out.push_str("  slo\n");
        for s in statuses {
            out.push_str(&format!(
                "    {} {:<20} value {:.4}  threshold {:.4}\n",
                badge(s.state, color),
                s.name,
                s.value,
                s.threshold
            ));
        }
    }
    out
}

/// Runs the live dashboard: connect, then scrape + render once per
/// interval.  Returns an error string on connection failure (after the
/// first frame, a dropped connection ends the loop cleanly).
pub fn run_top(cfg: &TopConfig) -> Result<(), String> {
    let mut client =
        NetClient::connect(&cfg.addr).map_err(|e| format!("connect {}: {e}", cfg.addr))?;
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("set timeout: {e}"))?;
    let mut rendered = 0u64;
    loop {
        let payload = match client.scrape(MetricsFormat::Binary, TIER_ALL, 512) {
            Ok(crate::net::MetricsResponseFrame::Binary(p)) => p,
            Ok(_) => return Err("server sent a text response to a binary scrape".into()),
            Err(e) => {
                if rendered > 0 {
                    eprintln!("connection lost: {e}");
                    return Ok(());
                }
                return Err(format!("scrape: {e}"));
            }
        };
        let statuses = client.health().map_err(|e| format!("health: {e}"))?;
        // Clear + home, then the frame; plain prints keep this testable.
        print!(
            "\x1b[2J\x1b[H{}",
            render_frame(&payload, &statuses, &cfg.addr, true)
        );
        use std::io::Write;
        let _ = std::io::stdout().flush();
        rendered += 1;
        if let Some(n) = cfg.frames {
            if rendered >= n {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_millis(cfg.interval_ms.max(16)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::proto::{HistogramDump, ScrapePayload};
    use crate::obs::timeseries::{Point, SeriesDump, TierDump, TieredDump};

    fn pts(vals: &[f64]) -> Vec<Point> {
        vals.iter()
            .enumerate()
            .map(|(i, &v)| Point {
                t_ms: 1000 * (i as u64 + 1),
                v,
            })
            .collect()
    }

    fn payload() -> ScrapePayload {
        ScrapePayload {
            dump: TieredDump {
                now_ms: 60_000,
                tiers: vec![TierDump {
                    tier: 0,
                    step_ms: 1000,
                    series: vec![
                        SeriesDump {
                            name: "serve.completed".into(),
                            points: pts(&[100.0, 150.0, 120.0, 180.0]),
                        },
                        SeriesDump {
                            name: "serve.queue_depth".into(),
                            points: pts(&[2.0, 5.0, 3.0]),
                        },
                        SeriesDump {
                            name: "serve.stage.forward_ns.p50".into(),
                            points: pts(&[400_000.0, 420_000.0]),
                        },
                        SeriesDump {
                            name: "serve.stage.forward_ns.p99".into(),
                            points: pts(&[900_000.0, 1_200_000.0]),
                        },
                        SeriesDump {
                            name: "serve.plan_cache.hits".into(),
                            points: pts(&[99.0]),
                        },
                        SeriesDump {
                            name: "serve.plan_cache.misses".into(),
                            points: pts(&[1.0]),
                        },
                    ],
                }],
            },
            hists: vec![
                HistogramDump {
                    name: "serve.stage.forward_ns".into(),
                    count: 500,
                    sum: 1,
                    buckets: vec![(19, 500)],
                },
                HistogramDump {
                    name: "serve.stage.ingress_ns".into(),
                    count: 0,
                    sum: 0,
                    buckets: vec![],
                },
            ],
        }
    }

    #[test]
    fn sparkline_scales_to_window() {
        let s = sparkline(&pts(&[0.0, 0.5, 1.0]), 10);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'), "{s}");
        assert_eq!(sparkline(&[], 10), "");
        // Constant series renders at the floor, not NaN.
        let flat = sparkline(&pts(&[5.0, 5.0]), 10);
        assert_eq!(flat, "▁▁");
        // Width truncates to the most recent points.
        let w2 = sparkline(&pts(&[0.0, 1.0, 2.0, 3.0]), 2);
        assert_eq!(w2.chars().count(), 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_si(0.0), "0");
        assert_eq!(fmt_si(1234.0), "1.23k");
        assert_eq!(fmt_si(2_500_000.0), "2.50M");
        assert_eq!(fmt_ns(850.0), "850ns");
        assert_eq!(fmt_ns(3_200.0), "3.2µs");
        assert_eq!(fmt_ns(1_400_000.0), "1.4ms");
        assert_eq!(fmt_ns(f64::NAN), "-");
    }

    #[test]
    fn badges_reflect_state() {
        assert_eq!(badge(SloState::Ok, false), "[ OK ]");
        assert_eq!(badge(SloState::Warn, false), "[WARN]");
        assert_eq!(badge(SloState::Breach, false), "[BRCH]");
        assert!(badge(SloState::Breach, true).contains("\x1b[31m"));
    }

    #[test]
    fn frame_renders_live_series_and_omits_empty_stages() {
        let statuses = vec![
            SloStatus {
                name: "forward_p99".into(),
                state: SloState::Ok,
                value: 1.2e6,
                threshold: 5e7,
            },
            SloStatus {
                name: "rejection_budget".into(),
                state: SloState::Breach,
                value: 0.2,
                threshold: 0.05,
            },
        ];
        let f = render_frame(&payload(), &statuses, "127.0.0.1:9000", false);
        assert!(f.contains("throughput"), "{f}");
        assert!(f.contains("180"), "latest rps point: {f}");
        assert!(f.contains("queue depth"), "{f}");
        assert!(f.contains("forward"), "{f}");
        // ingress has count == 0 → omitted from the stage panel.
        assert!(!f.contains("ingress"), "{f}");
        assert!(f.contains("plan-cache 99.0%"), "{f}");
        assert!(f.contains("[ OK ] forward_p99"), "{f}");
        assert!(f.contains("[BRCH] rejection_budget"), "{f}");
        // Pure render: no ANSI clear codes inside the frame body.
        assert!(!f.contains("\x1b[2J"), "{f}");
    }

    #[test]
    fn empty_payload_renders_without_panicking() {
        let f = render_frame(&ScrapePayload::default(), &[], "x", false);
        assert!(f.contains("throughput"), "{f}");
    }
}
