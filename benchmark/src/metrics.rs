//! Every metric the benchmark reports, by name, with its unit.  These
//! tables and `BENCHMARK.json` say the same thing; a test keeps them equal.

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a scientist's analysis job sees: it submits a payload with a QoI
/// tolerance and waits for the certified prediction.  The second field is
/// the share of the parent's median a change may worsen the metric by.
/// `failed_share` is normally 0, so it travels as the result line's
/// `failed` / `attempted`, not as a bounded ratio; `latency_p99_ms` is
/// reported with the per-layer metrics.
pub const END_TO_END: &[(Def, f64)] = &[
    (def("throughput_rps", "1/s", "higher"), 0.20),
    (def("latency_p50_ms", "ms", "lower"), 0.20),
    (def("compression_ratio", "x", "higher"), 0.02),
    (def("setup_s", "s", "lower"), 0.25),
];

/// Layers are the crates, measured from outside.  The first two are not a
/// layer's: tail latency is reported here, without a bound, because on this
/// host it measures the host (ten runs' p99 spread by 20–30 % whatever the
/// estimator, against 4–13 % for throughput and p50).
pub const PER_LAYER: &[Def] = &[
    def("latency_p99_ms", "ms", "lower"),
    def("latency_p99_samples", "count", "higher"),
    def("serve.batch_wait_us", "us", "lower"),
    def("serve.plan_us", "us", "lower"),
    def("serve.decompress_us", "us", "lower"),
    def("serve.forward_us", "us", "lower"),
    def("serve.respond_us", "us", "lower"),
    def("serve.unattributed_us", "us", "lower"),
    def("serve.latency_us", "us", "lower"),
    def("serve.mean_batch_size", "count", "higher"),
    def("serve.cache_hit_rate", "fraction", "higher"),
    def("serve.rejected_share", "fraction", "lower"),
    def("serve.decode_gbps", "GB/s", "higher"),
    def("serve.scratch_hit_rate", "fraction", "higher"),
    def("net.ingress_us", "us", "lower"),
    def("net.egress_us", "us", "lower"),
    def("net.wire_overhead_us", "us", "lower"),
    def("net.encode_request_us", "us", "lower"),
    def("net.decode_request_us", "us", "lower"),
    def("net.encode_response_us", "us", "lower"),
    def("net.decode_response_us", "us", "lower"),
    def("net.request_bytes", "bytes", "lower"),
    def("net.response_bytes", "bytes", "lower"),
    def("compress.compress_us", "us", "lower"),
    def("compress.compress_gbps", "GB/s", "higher"),
    def("compress.decode_us", "us", "lower"),
    def("compress.decode_gbps", "GB/s", "higher"),
    def("compress.ratio", "x", "higher"),
    def("compress.decode_units", "count", "higher"),
    def("pipeline.flatten_us", "us", "lower"),
    def("pipeline.plan_us", "us", "lower"),
    def("core.analysis_ms", "ms", "lower"),
    def("core.quantize_model_us", "us", "lower"),
    def("core.bound_margin_p50", "fraction", "higher"),
    def("core.realized_margin_max", "fraction", "lower"),
    def("nn.pack_weights_us", "us", "lower"),
    def("nn.forward_batch_us", "us", "lower"),
    def("nn.forward_gflops", "GFLOP/s", "higher"),
    def("tensor.gemm_prepacked_gflops", "GFLOP/s", "higher"),
    def("tensor.gemm_flops_per_request", "flop", "lower"),
    def("obs.span_ns", "ns", "lower"),
    def("obs.counter_inc_ns", "ns", "lower"),
    def("obs.hist_record_ns", "ns", "lower"),
    def("obs.export_prometheus_us", "us", "lower"),
    def("bench.trace_overhead_share", "fraction", "lower"),
    def("bench.client_check_us", "us", "lower"),
];

/// A measured value under one of the names above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, value: f64) -> Metric {
    Metric { name, value }
}

fn def_of(name: &str) -> Option<&'static Def> {
    END_TO_END
        .iter()
        .map(|(d, _)| d)
        .chain(PER_LAYER)
        .find(|d| d.name == name)
}

pub fn unit_of(name: &str) -> &'static str {
    def_of(name).map_or("", |d| d.unit)
}

pub fn better_of(name: &str) -> &'static str {
    def_of(name).map_or("", |d| d.better)
}

pub fn value_of(metrics: &[Metric], name: &str) -> Option<f64> {
    metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

/// Why `metrics` is not a complete, finite report of `defs`, if it is not.
pub fn missing<'a>(defs: impl IntoIterator<Item = &'a Def>, metrics: &[Metric]) -> Vec<String> {
    defs.into_iter()
        .filter_map(|d| match value_of(metrics, d.name) {
            None => Some(format!("{} is missing", d.name)),
            Some(v) if !v.is_finite() => Some(format!("{} is {v}", d.name)),
            Some(_) if d.unit.is_empty() => Some(format!("{} has no unit", d.name)),
            Some(_) => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::specs;
    use std::fmt::Write;

    #[test]
    fn missing_names_absent_and_non_finite_values() {
        let defs = [
            def("a", "us", "lower"),
            def("b", "us", "lower"),
            def("c", "", "lower"),
        ];
        let got = [metric("a", 1.0), metric("b", f64::NAN), metric("c", 2.0)];
        assert_eq!(
            missing(&defs, &got),
            vec!["b is NaN".to_string(), "c has no unit".to_string()]
        );
        assert_eq!(missing(&defs, &got[..1]).len(), 2);
    }

    /// `BENCHMARK.json` is written by hand; this is what it must say.
    fn benchmark_json() -> String {
        let mut s = String::from("{\n");
        s.push_str(
            "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
        );
        s.push_str("  \"paths\": [\"benchmark\"],\n  \"run_seconds\": 15,\n  \"workloads\": [\n");
        let specs = specs();
        for (i, w) in specs.iter().enumerate() {
            let sep = if i + 1 < specs.len() { "," } else { "" };
            writeln!(
                s,
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
                w.name, w.why
            )
            .unwrap();
        }
        s.push_str("  ],\n  \"end_to_end\": [\n");
        for (i, (d, bound)) in END_TO_END.iter().enumerate() {
            let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
            writeln!(
                s,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{sep}",
                d.name, d.unit, d.better
            )
            .unwrap();
        }
        s.push_str("  ],\n  \"per_layer\": [\n");
        for (i, d) in PER_LAYER.iter().enumerate() {
            let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
            writeln!(
                s,
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
                d.name, d.unit, d.better
            )
            .unwrap();
        }
        s.push_str("  ]\n}\n");
        s
    }

    #[test]
    fn benchmark_json_says_what_the_tables_say() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "edit BENCHMARK.json to match");
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = Vec::new();
        for d in END_TO_END.iter().map(|(d, _)| d).chain(PER_LAYER) {
            assert!(name_ok(d.name), "{}", d.name);
            assert!(unit_ok(d.unit), "{} unit {}", d.name, d.unit);
            assert!(d.better == "lower" || d.better == "higher");
            names.push(d.name);
        }
        assert!(END_TO_END.iter().all(|(_, b)| (0.0..=0.25).contains(b)));
        assert!(PER_LAYER.len() <= 128);
        for w in specs() {
            assert!(name_ok(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            names.push(w.name);
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used once");
    }
}
