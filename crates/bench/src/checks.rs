//! The paper's headline claims as predicates over the experiments' rows.
//!
//! Each [`Check`] names the experiments it reads; its predicate walks one
//! table, recording a comparison per row (or per series) into an
//! [`Outcome`].  `repro` evaluates every check that applies to what it ran.
//! Checks over deterministic columns — errors, bounds, ratios, formats,
//! modelled throughput — gate its exit code; the three that read wall-clock
//! decode speed do not.  EXPERIMENTS.md's headline table has each claim in
//! the paper's words beside the name of its check.

use crate::experiments::{Experiment, FIG10_SHARE, STORE_GBPS};
use crate::report::{Cell, Table};
use std::collections::BTreeMap;

type Predicate = fn(&Table, &mut Outcome);

/// One predicate and the experiments whose tables it reads.
pub struct Check {
    /// The key in `EXPERIMENTS.json` and in EXPERIMENTS.md's headline table.
    pub name: &'static str,
    /// Whether a failure sets `repro`'s exit code.
    pub gating: bool,
    /// Registry ids whose tables the predicate is evaluated on.
    pub applies_to: &'static [&'static str],
    /// Records its comparisons over one table.
    pub eval: Predicate,
}

const fn gate(name: &'static str, applies_to: &'static [&'static str], eval: Predicate) -> Check {
    Check {
        name,
        gating: true,
        applies_to,
        eval,
    }
}

/// A check over wall-clock columns: printed and recorded, never the exit code.
const fn report(name: &'static str, applies_to: &'static [&'static str], eval: Predicate) -> Check {
    Check {
        gating: false,
        ..gate(name, applies_to, eval)
    }
}

/// What a check saw: how many comparisons, which failed, and the one
/// closest to (or furthest past) failing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The experiment being evaluated; prefixes every cited row.
    pub experiment: &'static str,
    /// Comparisons made.
    pub compared: usize,
    /// The rows of the comparisons that failed.
    pub failed: Vec<String>,
    /// The largest stress seen and its row.
    pub worst: Option<(f64, String)>,
}

impl Outcome {
    /// Records one comparison: whether it holds, how close it is to failing
    /// (`stress`, larger is worse, comparable within one check) and the row
    /// it was made on.
    pub fn record(&mut self, ok: bool, stress: f64, row: String) {
        let row = format!("{}: {row}", self.experiment);
        self.compared += 1;
        if !ok {
            self.failed.push(row.clone());
        }
        if self.worst.as_ref().is_none_or(|(s, _)| stress > *s) {
            self.worst = Some((stress, row));
        }
    }

    /// A check passes when it compared something and nothing failed: a
    /// renamed column must not turn a claim vacuously true.
    pub fn passed(&self) -> bool {
        self.compared > 0 && self.failed.is_empty()
    }
}

/// Evaluates every check on those of its experiments that are in `ran`
/// (with their tables); a check none of whose experiments ran is left out.
pub fn evaluate(ran: &[(&'static Experiment, Vec<Table>)]) -> Vec<(&'static Check, Outcome)> {
    let mut verdicts = Vec::new();
    for check in &CHECKS {
        let mut outcome = Outcome::default();
        for (e, tables) in ran.iter().filter(|(e, _)| check.applies_to.contains(&e.id)) {
            outcome.experiment = e.id;
            for t in tables {
                (check.eval)(t, &mut outcome);
            }
        }
        if !outcome.experiment.is_empty() {
            verdicts.push((check, outcome));
        }
    }
    verdicts
}

const ERROR_FIGS: [&str; 4] = ["fig03", "fig04", "fig05", "fig06"];
const L2_FIGS: [&str; 4] = ["fig04", "fig08", "fig12", "fig14"];
const PIPELINE_FIGS: [&str; 6] = ["fig10", "fig11", "fig12", "fig13", "fig14", "fig15"];

/// Every predicate `repro` evaluates.
pub static CHECKS: [Check; 12] = [
    gate("bound_dominates", &ERROR_FIGS, bound_dominates),
    gate("pipeline_bound_dominates", &PIPELINE_FIGS, bound_dominates),
    gate("psn_tightest", &["fig03", "fig04"], psn_tightest),
    gate("format_ordering", &["fig05", "fig06"], format_ordering),
    gate("step_sizes", &["table1"], step_sizes),
    gate("zfp_has_no_l2", &L2_FIGS, zfp_has_no_l2),
    gate("fp16_speedup", &["fig09"], fp16_speedup),
    gate("coordination", &["fig10"], coordination),
    gate("mlp_looseness", &ERROR_FIGS, mlp_looseness),
    report("io_shape", &["fig07"], io_shape),
    report("turning_point", &PIPELINE_FIGS, turning_point),
    report(
        "optimizer_matches_best",
        &["ablation_allocation"],
        optimizer_matches_best,
    ),
];

/// The numbers under `cols` in every row of `t`; nothing when `t` lacks one
/// of the columns (the check then reads the tables that have them).
fn numeric_rows<'t, const N: usize>(t: &'t Table, cols: [&str; N]) -> Vec<(&'t [Cell], [f64; N])> {
    let Some(idx) = cols.iter().map(|c| t.col(c)).collect::<Option<Vec<_>>>() else {
        return Vec::new();
    };
    let num = |row: &[Cell], k: usize| row[idx[k]].num().expect("numeric column");
    t.rows()
        .iter()
        .map(|row| (row.as_slice(), std::array::from_fn(|k| num(row, k))))
        .collect()
}

/// The printed cell under `col`; empty when the table has no such column.
fn label(t: &Table, row: &[Cell], col: &str) -> String {
    t.col(col).map(|c| row[c].to_string()).unwrap_or_default()
}

/// `lo ≤ v ≤ hi`, with a stress that passes 1 at either edge.
fn in_band(o: &mut Outcome, v: f64, (lo, hi): (f64, f64), row: String) {
    o.record((lo..=hi).contains(&v), (lo / v).max(v / hi), row);
}

/// Column pairs (bound, achieved) of the tables of Figs. 3–6 and 10–15.
const BOUND_PAIRS: [(&str, &str); 6] = [
    ("psn_bound", "psn_achieved"),
    ("baseline_bound", "baseline_achieved"),
    ("weight_decay_bound", "weight_decay_achieved"),
    ("bound", "achieved_max"),
    ("bound_rel", "achieved_max"),
    ("pred_bound", "achieved_max"),
];

/// "Our estimated error consistently bounds the actual error" (§IV-B):
/// bound ≥ achieved in every row, per-feature panels included.
fn bound_dominates(t: &Table, o: &mut Outcome) {
    for (bound, achieved) in BOUND_PAIRS {
        for (row, [b, a]) in numeric_rows(t, [bound, achieved]) {
            o.record(
                a <= b,
                a / b,
                format!("{} ({achieved} vs {bound})", t.describe(row)),
            );
        }
    }
}

/// The PSN model's bound is tighter than the baseline's and the
/// weight-decay model's in every row (Figs. 3–4).
fn psn_tightest(t: &Table, o: &mut Outcome) {
    let cols = ["psn_bound", "baseline_bound", "weight_decay_bound"];
    for (row, [psn, plain, wd]) in numeric_rows(t, cols) {
        o.record(psn < plain.min(wd), psn / plain.min(wd), t.describe(row));
    }
}

/// `a` and `b` agree to three significant digits.
fn same_to_three_digits(a: f64, b: f64) -> bool {
    (a - b).abs() <= 5e-3 * a.abs().max(b.abs())
}

/// Per task TF32 = FP16 to three digits < BF16 < INT8, in bound and in
/// achieved error (Figs. 5–6).
fn format_ordering(t: &Table, o: &mut Outcome) {
    if t.col("format").is_none() {
        return;
    }
    for col in ["bound_rel", "achieved_geo"] {
        // Four rows per task, in `QuantFormat::REDUCED` order.
        for task in numeric_rows(t, [col]).chunks(4) {
            let formats: Vec<String> = task.iter().map(|(r, _)| label(t, r, "format")).collect();
            let v: Vec<f64> = task.iter().map(|(_, [v])| *v).collect();
            let ok = formats == ["tf32", "fp16", "bf16", "int8"]
                && same_to_three_digits(v[0], v[1])
                && v[1] < v[2]
                && v[2] < v[3];
            let stress = v.windows(2).skip(1).map(|w| w[0] / w[1]);
            let row = format!("{} ({col}, its task's 4 formats)", t.describe(task[0].0));
            o.record(ok, stress.fold(0.0, f64::max), row);
        }
    }
}

/// TF32 ≡ FP16 and BF16 = 8 × FP16 per layer (Table I).
fn step_sizes(t: &Table, o: &mut Outcome) {
    for (row, [tf32, fp16, bf16]) in numeric_rows(t, ["tf32", "fp16", "bf16"]) {
        let ok = same_to_three_digits(tf32, fp16) && same_to_three_digits(bf16, 8.0 * fp16);
        o.record(ok, (bf16 / (8.0 * fp16) - 1.0).abs(), t.describe(row));
    }
}

/// ZFP has no L2 mode: no ZFP row or table under L2 (Figs. 4/8/12/14).
fn zfp_has_no_l2(t: &Table, o: &mut Outcome) {
    o.record(!t.title().contains("=zfp"), 0.0, t.title().to_string());
    for row in t.rows() {
        let zfp = row.iter().any(|c| c.to_string() == "zfp");
        o.record(!zfp, 0.0, t.describe(row));
    }
}

/// FP16 execution speed-up "up to 4.5×" (Fig. 9): the model gives 4–5.5× on
/// `mlp_l` and 1–1.3× on the overhead-bound `mlp_s`.
fn fp16_speedup(t: &Table, o: &mut Outcome) {
    for (row, [speedup]) in numeric_rows(t, ["speedup_vs_fp32"]) {
        if label(t, row, "format") != "fp16" {
            continue;
        }
        match label(t, row, "model").as_str() {
            "mlp_l" => in_band(o, speedup, (4.0, 5.5), t.describe(row)),
            "mlp_s" => in_band(o, speedup, (1.0, 1.3), t.describe(row)),
            _ => {}
        }
    }
}

/// Fig. 10 left: with quantization prioritised the allocator holds FP32
/// until a reduced format's bound fits its share, and quant_bound_rel +
/// compression_budget_rel + unused_rel = tolerance on every row.
fn coordination(t: &Table, o: &mut Outcome) {
    let cols = [
        "qoi_tolerance",
        "quant_bound_rel",
        "compression_budget_rel",
        "unused_rel",
    ];
    // The largest tolerance so far at which the planner stayed in FP32.
    let mut fp32_up_to = 0.0f64;
    let mut left_fp32 = false;
    for (row, [tol, quant, compression, unused]) in numeric_rows(t, cols) {
        let sums = ((quant + compression + unused) / tol - 1.0).abs();
        let fits = if label(t, row, "format") == "fp32" {
            fp32_up_to = tol;
            quant == 0.0 && !left_fp32
        } else {
            left_fp32 = true;
            FIG10_SHARE * fp32_up_to < quant && quant <= FIG10_SHARE * tol
        };
        o.record(sums <= 1e-9 && fits, sums, t.describe(row));
    }
}

/// The paper's "around one order of magnitude", as bands around what the
/// two MLP tasks measure (EXPERIMENTS.md): 6–29× against compression error,
/// which is the claim; 29–190× against quantization error, where the
/// worst-case layer magnitudes compound with depth (`ablation_calibration`).
/// The ConvNet is looser still by construction and is not held to either.
const MLP_LOOSENESS: [(&str, &str, (f64, f64)); 2] = [
    ("psn_bound", "psn_achieved", (3.0, 40.0)),
    ("bound_rel", "achieved_geo", (10.0, 250.0)),
];

fn mlp_looseness(t: &Table, o: &mut Outcome) {
    for (bound, achieved, band) in MLP_LOOSENESS {
        for (row, [b, a]) in numeric_rows(t, [bound, achieved]) {
            if label(t, row, "task") != "eurosat" {
                in_band(o, b / a, band, t.describe(row));
            }
        }
    }
}

/// Fig. 7's shape: ZFP stays flat near the uncompressed baseline (0.7–2×
/// the store) while SZ and MGARD dip under it at a tight tolerance and clear
/// twice it at a loose one.
fn io_shape(t: &Table, o: &mut Outcome) {
    let (mut lowest, mut highest) = (f64::INFINITY, 0.0f64);
    for (row, [gbps]) in numeric_rows(t, ["effective_gbps"]) {
        if label(t, row, "backend") == "zfp" {
            in_band(o, gbps / STORE_GBPS, (0.7, 2.0), t.describe(row));
        } else {
            (lowest, highest) = (lowest.min(gbps), highest.max(gbps));
        }
    }
    let row = format!(
        "[{}] SZ/MGARD span {lowest:.3}–{highest:.3} GB/s",
        t.title()
    );
    o.record(lowest < STORE_GBPS, lowest / STORE_GBPS, row.clone());
    o.record(highest > 2.0 * STORE_GBPS, 2.0 * STORE_GBPS / highest, row);
}

/// Unlocking a reduced format is the end-to-end throughput turning point
/// (Figs. 10–15): every (task, share) series that execution ever bounds
/// peaks after it leaves FP32.
fn turning_point(t: &Table, o: &mut Outcome) {
    // (task, share) → its rows as (left FP32?, [total, io, exec]).
    let mut series: BTreeMap<_, Vec<_>> = BTreeMap::new();
    for (row, gbps) in numeric_rows(t, ["total_gbps", "io_gbps", "exec_gbps"]) {
        let key = (label(t, row, "task"), label(t, row, "quant_share"));
        let reduced = label(t, row, "format") != "fp32";
        series.entry(key).or_default().push((reduced, gbps));
    }
    for ((task, share), rows) in series {
        let peak = |after: bool| {
            let totals = rows.iter().filter(|(reduced, _)| *reduced == after);
            totals.map(|(_, [total, ..])| *total).fold(0.0, f64::max)
        };
        let (fp32, reduced) = (peak(false), peak(true));
        // A format cannot turn a series that I/O bounds at every tolerance
        // (the ConvNet executes at 14 GB/s against this store).
        let execution_bound = rows.iter().any(|(_, [_, io, exec])| exec <= io);
        if execution_bound && fp32 > 0.0 && reduced > 0.0 {
            let row = format!(
                "[{}] {task} share {share}: peak {fp32:.3} GB/s in FP32, {reduced:.3} after",
                t.title()
            );
            o.record(reduced >= fp32, fp32 / reduced, row);
        }
    }
}

/// `plan_optimal` reaches 90 % of the exhaustively best share's throughput
/// in every cell of `ablation_allocation` (§IV-D's future work).
fn optimizer_matches_best(t: &Table, o: &mut Outcome) {
    for (row, [best, optimizer]) in numeric_rows(t, ["best_gbps", "optimizer_gbps"]) {
        o.record(
            optimizer >= 0.9 * best,
            0.9 * best / optimizer,
            t.describe(row),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::REGISTRY;
    use crate::report::sci;

    /// A table from `title | header line | row | row …`; tokens that parse
    /// as numbers become numeric cells.
    fn parse(text: &str) -> Table {
        let mut lines = text.split('|').map(str::trim);
        let mut t = Table::new(lines.next().unwrap(), lines.next().unwrap());
        for line in lines {
            let cell = |tok: &str| tok.parse().map_or_else(|_| tok.into(), sci);
            t.push(line.split_whitespace().map(cell).collect());
        }
        t
    }

    /// Evaluates the named check on one hand-built table.
    fn run(name: &str, text: &str) -> Outcome {
        let check = CHECKS.iter().find(|c| c.name == name).expect("check name");
        let mut o = Outcome {
            experiment: check.applies_to[0],
            ..Outcome::default()
        };
        (check.eval)(&parse(text), &mut o);
        o
    }

    /// The four H2 rows of Fig. 6 as EXPERIMENTS.md carried them under a ✓
    /// before this gate existed, and as they read with the bound scaled to
    /// the batch.
    const FIG6_H2_AS_CHECKED_IN: &str = "Quantization error (L2) — bound vs achieved
        | task          format  bound_rel  achieved_geo  achieved_min  achieved_max
        | h2_combustion   tf32    4.24e-4       4.38e-4       3.60e-4       5.33e-4
        | h2_combustion   fp16    4.24e-4       4.38e-4       3.60e-4       5.33e-4
        | h2_combustion   bf16    3.40e-3       2.53e-3       2.18e-3       3.07e-3
        | h2_combustion   int8    8.37e-3       8.59e-3       6.75e-3       1.06e-2";
    const FIG6_H2_SOUND: &str = "Quantization error (L2) — bound vs achieved
        | task          format  bound_rel  achieved_geo  achieved_min  achieved_max
        | h2_combustion   tf32    7.45e-3       2.55e-4       2.09e-4       3.72e-4
        | h2_combustion   fp16    7.46e-3       2.55e-4       2.09e-4       3.72e-4
        | h2_combustion   bf16    5.98e-2       1.79e-3       1.64e-3       2.02e-3
        | h2_combustion   int8    1.65e-1       4.26e-3       3.67e-3       5.58e-3";

    #[test]
    fn every_check_names_experiments_that_exist() {
        for check in &CHECKS {
            assert!(!check.applies_to.is_empty(), "{}", check.name);
            for id in check.applies_to {
                assert!(REGISTRY.iter().any(|e| e.id == *id), "{}: {id}", check.name);
            }
        }
    }

    #[test]
    fn evaluate_runs_a_check_on_what_ran_and_leaves_out_the_rest() {
        let fig06 = REGISTRY.iter().find(|e| e.id == "fig06").unwrap();
        let verdicts = evaluate(&[(fig06, vec![parse(FIG6_H2_AS_CHECKED_IN)])]);
        let names: Vec<&str> = verdicts.iter().map(|(c, _)| c.name).collect();
        assert_eq!(
            names,
            ["bound_dominates", "format_ordering", "mlp_looseness"]
        );
        assert!(verdicts[0].1.failed[0].starts_with("fig06: [Quantization error (L2)"));
    }

    #[test]
    fn bound_dominates_rejects_the_checked_in_fig6_h2_rows() {
        let o = run("bound_dominates", FIG6_H2_AS_CHECKED_IN);
        assert_eq!((o.compared, o.failed.len()), (4, 3), "bf16 alone held");
        assert!(o.failed[0].contains("task=h2_combustion format=tf32"));
        assert!(o.failed[0].ends_with("(achieved_max vs bound_rel)"));
        let (stress, row) = o.worst.as_ref().unwrap();
        assert!((*stress - 1.06e-2 / 8.37e-3).abs() < 1e-12 && row.contains("int8"));
        assert!(run("bound_dominates", FIG6_H2_SOUND).passed());
        assert!(!run("mlp_looseness", FIG6_H2_AS_CHECKED_IN).passed());
        assert!(run("mlp_looseness", FIG6_H2_SOUND).passed());
    }

    /// `check compared failed | table`: rows that pass beside rows that fail.
    /// A table a check reads nothing from compares nothing, and does not pass.
    const ROW_CASES: [&str; 10] = [
        "bound_dominates 0 0 | t | a | 1",
        "bound_dominates 4 1 | t | psn_bound psn_achieved bound achieved_max | 2 1 3 3 | 2 1 3 3.1",
        "psn_tightest 2 1 | t | psn_bound baseline_bound weight_decay_bound | 1 3 2 | 2.5 3 2",
        "step_sizes 3 2 | t | tf32 fp16 bf16 | 1e-4 1e-4 8e-4 | 1e-4 1e-4 4e-4 | 1e-4 2e-4 1.6e-3",
        "zfp_has_no_l2 3 1 | t | task backend | h2 sz | h2 zfp",
        "zfp_has_no_l2 2 1 | backend=zfp, norm=L2 | task | h2",
        "fp16_speedup 4 2 | t | model format speedup_vs_fp32 \
         | mlp_l fp16 4.98 | mlp_s fp16 1.13 | mlp_l fp16 3.2 | mlp_s fp16 2.0 | mlp_l int8 9.0",
        "mlp_looseness 3 2 | t | task psn_bound psn_achieved \
         | h2_combustion 12 1 | eurosat 900 1 | borghesi_flame 41 1 | h2_combustion 0.9 1",
        "optimizer_matches_best 2 1 | t | best_gbps optimizer_gbps | 1.0 0.95 | 1.0 0.8",
        "io_shape 4 1 | t | backend effective_gbps | zfp 0.05 | zfp 0.2 | sz 0.03 | mgard 0.3",
    ];

    #[test]
    fn row_predicates_count_what_passes_and_what_fails() {
        for case in ROW_CASES {
            let (expect, table) = case.split_once('|').unwrap();
            let expect: Vec<&str> = expect.split_whitespace().collect();
            let o = run(expect[0], table);
            let counts = format!("{} {}", o.compared, o.failed.len());
            assert_eq!(counts, expect[1..].join(" "), "{case}");
            assert_eq!(o.passed(), o.compared > 0 && o.failed.is_empty());
        }
        assert!(!run("io_shape", "t | backend effective_gbps | sz 0.06 | sz 0.3").passed());
        assert!(!run("io_shape", "t | backend effective_gbps | sz 0.03 | sz 0.09").passed());
    }

    #[test]
    fn format_ordering_wants_tf32_equal_fp16_then_bf16_then_int8() {
        assert!(run("format_ordering", FIG6_H2_SOUND).passed());
        let o = run(
            "format_ordering",
            &FIG6_H2_SOUND.replace("7.46e-3", "7.60e-3"),
        );
        assert_eq!(
            (o.compared, o.failed.len()),
            (2, 1),
            "tf32 ≠ fp16 in bound only"
        );
        let bf16_over_int8 = FIG6_H2_SOUND.replace("1.79e-3", "4.30e-3");
        assert!(!run("format_ordering", &bf16_over_int8).passed());
        let out_of_order = FIG6_H2_SOUND.replace("bf16", "int8");
        assert!(!run("format_ordering", &out_of_order).passed());
    }

    #[test]
    fn coordination_checks_the_split_and_the_unlock() {
        let headers = "qoi_tolerance format quant_bound_rel compression_budget_rel unused_rel";
        let eval = |rows: &str| run("coordination", &format!("t | {headers} | {rows}")).passed();
        assert!(eval(
            "1e-3 fp32 0 1e-3 0 | 1e-2 fp16 5e-3 5e-3 0 | 1e-1 int8 8e-2 1e-2 1e-2"
        ));
        assert!(!eval("1e-3 fp32 0 9e-4 0"), "split does not add up");
        assert!(
            !eval("1e-3 fp32 0 1e-3 0 | 1e-2 fp16 5e-4 9.5e-3 0"),
            "fp16 fit at 1e-3"
        );
        assert!(
            !eval("1e-2 fp16 9.5e-3 5e-4 0"),
            "quantization over its share"
        );
        assert!(
            !eval("1e-3 fp16 5e-4 5e-4 0 | 1e-2 fp32 0 1e-2 0"),
            "back to fp32"
        );
    }

    #[test]
    fn turning_point_compares_execution_bound_series_before_and_after_fp32() {
        let eval = |after: f64| {
            let headers = "task quant_share format total_gbps io_gbps exec_gbps";
            let turned = format!("h2 0.9 fp32 0.03 0.1 0.09 | h2 0.9 fp16 {after} 0.1 0.4");
            let all_fp32 = "h2 0.5 fp32 0.50 0.1 0.09";
            let io_bound = "h2 0.1 fp32 0.05 0.1 14.0 | h2 0.1 fp16 0.04 0.1 18.0";
            let table = format!("t | {headers} | {turned} | {all_fp32} | {io_bound}");
            run("turning_point", &table)
        };
        let o = eval(0.09);
        assert!(o.passed() && o.compared == 1, "{o:?}");
        assert!(!eval(0.02).passed());
    }
}
