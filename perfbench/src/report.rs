//! The metrics the benchmark reports, how each is derived from a run, and
//! the one-line JSON result.

use std::collections::BTreeMap;

use crate::stats::{check_metric_name, median, quantile, tail_percentile};
use crate::workload::RepResult;

/// End-to-end metrics (untraced runs), with units. `failed_frac` is not
/// among them: it is the result line's `failed / attempted`, printed with
/// the table, because it reads 0 on a healthy run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("run_s", "s"),
    ("setup_s", "s"),
    ("train_rows_per_s", "rows/s"),
    ("time_to_target_s", "s"),
    ("test_acc", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced runs), with units, grouped by layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    // graph (workload context, outside every end-to-end metric)
    ("graph.generate_s", "s"),
    ("graph.nnz", "count"),
    // core.preprocess
    ("preprocess.s", "s"),
    ("preprocess.spmm_gmadd", "Gmadd"),
    ("preprocess.spmm_gmadd_per_s", "Gmadd/s"),
    ("preprocess.hop_s.0", "s"),
    ("preprocess.hop_s.1", "s"),
    ("preprocess.hop_s.2", "s"),
    ("preprocess.hop_s.3", "s"),
    ("preprocess.expanded_mb", "MB"),
    ("preprocess.expansion_factor", "x"),
    // partition
    ("partition.ghost_rows", "count"),
    ("partition.nnz_imbalance", "x"),
    // dataio writer
    ("writer.block_frac", "frac"),
    ("writer.queue_hwm", "count"),
    ("store.physical_mb", "MB"),
    ("store.compression_ratio", "x"),
    // dataio reads + core.loader
    ("loader.wait_s", "s"),
    ("loader.wait_share", "frac"),
    ("loader.wait_ms_p50", "ms"),
    ("loader.wait_ms_p90", "ms"),
    ("loader.batches", "count"),
    ("loader.source_busy_frac", "frac"),
    ("loader.source_mb_per_s", "MB/s"),
    ("loader.gather_ops", "count"),
    ("loader.assembled_mb", "MB"),
    ("store.read_physical_mb", "MB"),
    ("store.read_logical_mb", "MB"),
    ("store.seq_requests", "count"),
    ("store.rand_requests", "count"),
    // nn + models
    ("model.fwd_train_s", "s"),
    ("model.bwd_s", "s"),
    ("model.optim_s", "s"),
    ("model.train_gflop", "GFLOP"),
    ("model.train_gflop_per_s", "GFLOP/s"),
    ("model.gemm_ceiling_frac", "frac"),
    // core.trainer eval
    ("eval.rows", "count"),
    ("eval.s", "s"),
    ("eval.fwd_s", "s"),
    ("eval.rows_per_s", "rows/s"),
    // ceilings measured on this machine before the timed part
    ("ceiling.gemm_gflop_per_s", "GFLOP/s"),
    ("ceiling.copy_mb_per_s", "MB/s"),
    ("ceiling.spmm_gmadd_per_s", "Gmadd/s"),
    // where run_s went
    ("run.setup_share", "frac"),
    ("run.train_share", "frac"),
    ("run.eval_share", "frac"),
    // the benchmark itself
    ("bench.trace_overhead_frac", "frac"),
    ("bench.span_coverage", "frac"),
];

/// Per-process context the per-run metrics need.
#[derive(Debug, Clone, Copy, Default)]
pub struct Context {
    /// Madds of one full pre-propagation, billions.
    pub spmm_gmadd: f64,
    /// Model forward+backward FLOPs per training example.
    pub flops_per_example: f64,
    /// Measured GEMM rate at the model's largest layer, GFLOP/s.
    pub gemm_gflop_per_s: f64,
    /// Measured row-gather bandwidth over a train-partition-sized
    /// buffer, MB/s.
    pub copy_mb_per_s: f64,
}

const MB: f64 = 1e6;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `time_to_target_s` and friends for one run (`None` if it missed the
/// target).
pub fn end_to_end(rep: &RepResult, target: f64) -> Option<BTreeMap<&'static str, f64>> {
    let ttt = rep.time_to_target(target)?;
    Some(BTreeMap::from([
        ("run_s", rep.run_s),
        ("setup_s", rep.setup_s),
        (
            "train_rows_per_s",
            ratio(rep.train_rows as f64, rep.train_loop_s),
        ),
        ("time_to_target_s", ttt),
        ("test_acc", rep.test_acc),
    ]))
}

/// The per-layer metrics one traced run yields (none for a run that
/// failed before training). The loader-wait percentiles are left out:
/// they are taken over the batches of every traced run together
/// ([`wait_percentiles`]).
pub fn layer_metrics(rep: &RepResult, ctx: &Context) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let Some(exp) = &rep.expansion else {
        return m;
    };
    let hop_s: Vec<f64> = exp
        .telemetry
        .hop_ns
        .iter()
        .map(|&ns| ns as f64 / 1e9)
        .collect();
    m.insert("preprocess.s", rep.preprocess_s);
    m.insert("preprocess.spmm_gmadd", ctx.spmm_gmadd);
    m.insert(
        "preprocess.spmm_gmadd_per_s",
        ratio(ctx.spmm_gmadd, hop_s.iter().skip(1).sum()),
    );
    for (k, name) in [
        "preprocess.hop_s.0",
        "preprocess.hop_s.1",
        "preprocess.hop_s.2",
        "preprocess.hop_s.3",
    ]
    .into_iter()
    .enumerate()
    {
        m.insert(name, hop_s.get(k).copied().unwrap_or(0.0));
    }
    m.insert("preprocess.expanded_mb", exp.expanded_bytes as f64 / MB);
    m.insert("preprocess.expansion_factor", exp.factor());

    let ghosts: usize = exp.partitions.iter().map(|p| p.ghost_rows).sum();
    let nnz: Vec<f64> = exp.partitions.iter().map(|p| p.nnz as f64).collect();
    let imbalance = if nnz.is_empty() {
        1.0
    } else {
        let mean = nnz.iter().sum::<f64>() / nnz.len() as f64;
        ratio(nnz.iter().copied().fold(0.0, f64::max), mean)
    };
    m.insert("partition.ghost_rows", ghosts as f64);
    m.insert("partition.nnz_imbalance", imbalance);

    m.insert(
        "writer.block_frac",
        ratio(exp.telemetry.writer_block_ns as f64 / 1e9, rep.preprocess_s),
    );
    m.insert("writer.queue_hwm", exp.telemetry.writer_queue_hwm as f64);
    m.insert("store.physical_mb", rep.store_bytes as f64 / MB);
    m.insert(
        "store.compression_ratio",
        ratio(rep.store_logical_bytes as f64, rep.store_bytes as f64),
    );

    m.insert("loader.wait_s", rep.wait_s);
    m.insert("loader.wait_share", ratio(rep.wait_s, rep.train_loop_s));
    let src = rep.source.unwrap_or_default();
    m.insert(
        "loader.source_busy_frac",
        ratio(src.busy_s, rep.train_loop_s),
    );
    m.insert(
        "loader.source_mb_per_s",
        ratio(src.counters.bytes_assembled as f64 / MB, src.busy_s),
    );
    m.insert("loader.gather_ops", src.counters.gather_ops as f64);
    m.insert(
        "loader.assembled_mb",
        src.counters.bytes_assembled as f64 / MB,
    );
    m.insert("store.read_physical_mb", src.io.total_bytes() as f64 / MB);
    m.insert("store.read_logical_mb", src.io.logical_bytes as f64 / MB);
    m.insert("store.seq_requests", src.io.seq_requests as f64);
    m.insert("store.rand_requests", src.io.rand_requests as f64);

    let model = &rep.model;
    let gflop = ctx.flops_per_example * rep.train_rows as f64 / 1e9;
    let gflop_per_s = ratio(gflop, model.fwd_train_s + model.bwd_s);
    m.insert("model.fwd_train_s", model.fwd_train_s);
    m.insert("model.bwd_s", model.bwd_s);
    m.insert("model.optim_s", rep.optim_s);
    m.insert("model.train_gflop", gflop);
    m.insert("model.train_gflop_per_s", gflop_per_s);
    m.insert(
        "model.gemm_ceiling_frac",
        ratio(gflop_per_s, ctx.gemm_gflop_per_s),
    );

    m.insert("eval.rows", model.eval_rows as f64);
    m.insert("eval.s", rep.eval_s);
    m.insert("eval.fwd_s", model.fwd_eval_s);
    m.insert("eval.rows_per_s", ratio(model.eval_rows as f64, rep.eval_s));

    m.insert("ceiling.gemm_gflop_per_s", ctx.gemm_gflop_per_s);
    m.insert("ceiling.copy_mb_per_s", ctx.copy_mb_per_s);
    m.insert("ceiling.spmm_gmadd_per_s", spmm_ceiling(ctx.copy_mb_per_s));

    m.insert("run.setup_share", ratio(rep.setup_s, rep.run_s));
    m.insert("run.train_share", ratio(rep.train_loop_s, rep.run_s));
    m.insert("run.eval_share", ratio(rep.eval_s, rep.run_s));
    m
}

/// SpMM ceiling from gather bandwidth: each madd gathers one 4-byte
/// feature value of a neighbour row.
pub fn spmm_ceiling(copy_mb_per_s: f64) -> f64 {
    copy_mb_per_s * MB / 4.0 / 1e9
}

/// Loader-wait percentiles over `waits_s` (seconds), in ms: p50 and p90,
/// plus the sample count.
pub fn wait_percentiles(waits_s: &[f64]) -> BTreeMap<&'static str, f64> {
    let ms = |q: f64| quantile(waits_s, q).unwrap_or(0.0) * 1e3;
    BTreeMap::from([
        ("loader.wait_ms_p50", ms(0.5)),
        ("loader.wait_ms_p90", ms(0.9)),
        ("loader.batches", waits_s.len() as f64),
    ])
}

/// The tail of `waits_s` a sample of its size resolves, as a table line:
/// the highest percentile with at least ten samples beyond it.
pub fn wait_tail_line(waits_s: &[f64]) -> String {
    let n = waits_s.len();
    match tail_percentile(n) {
        Some(p) => format!(
            "loader wait tail: p{p} = {:.3} ms over {n} batches",
            quantile(waits_s, p / 100.0).unwrap_or(0.0) * 1e3
        ),
        None => {
            format!("loader wait tail: unresolved ({n} batches leave fewer than ten beyond p50)")
        }
    }
}

/// Medians, metric by metric, over several runs' maps.
pub fn medians(maps: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    if let Some(first) = maps.first() {
        for &k in first.keys() {
            let v: Vec<f64> = maps.iter().filter_map(|m| m.get(k).copied()).collect();
            out.insert(k, median(&v));
        }
    }
    out
}

/// The result line: `{"correct": …, "attempted": …, "failed": …,
/// "metrics": {name: {"value": v, "unit": u}, …}}` with the metrics of
/// `spec`, in its order.
///
/// # Errors
///
/// A metric of `spec` that is missing from `values`, has a name outside
/// `[A-Za-z0-9_.-]`, or is not a finite number.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    spec: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut parts = Vec::with_capacity(spec.len());
    for &(name, unit) in spec {
        check_metric_name(name)?;
        let v = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_formats_every_metric_with_its_unit() {
        let values = BTreeMap::from([("run_s", 1.25), ("test_acc", 0.5)]);
        let line = result_line(
            true,
            10,
            0,
            &[("run_s", "s"), ("test_acc", "frac")],
            &values,
        )
        .expect("valid");
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"test_acc\": {\"value\": 0.5, \"unit\": \"frac\"}}}"
        );
    }

    #[test]
    fn result_line_rejects_bad_names_missing_and_non_finite_values() {
        let values = BTreeMap::from([("ok", 1.0), ("bad name", 1.0), ("nan", f64::NAN)]);
        assert!(result_line(true, 1, 0, &[("bad name", "s")], &values).is_err());
        assert!(result_line(true, 1, 0, &[("absent", "s")], &values).is_err());
        assert!(result_line(true, 1, 0, &[("nan", "s")], &values).is_err());
    }

    #[test]
    fn every_declared_name_is_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, _) in END_TO_END.iter().chain(PER_LAYER) {
            check_metric_name(name).expect("valid name");
            assert!(seen.insert(name), "{name} declared twice");
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn wait_tail_follows_the_ten_samples_rule() {
        let waits: Vec<f64> = (1..=40).map(|i| i as f64 / 1e3).collect();
        assert_eq!(
            wait_tail_line(&waits),
            "loader wait tail: p75 = 30.250 ms over 40 batches"
        );
        assert!(wait_tail_line(&[0.001; 5]).contains("unresolved"));
        let p = wait_percentiles(&waits);
        assert_eq!(p["loader.batches"], 40.0);
        assert!((p["loader.wait_ms_p50"] - 20.5).abs() < 1e-9);
    }
}
