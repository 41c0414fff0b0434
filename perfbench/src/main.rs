//! End-to-end PP-GNN training benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it generates the dataset from the seed
//! (outside every end-to-end metric), measures the GEMM and row-copy
//! ceilings, then runs the whole pipeline — pre-propagation, training,
//! evaluation — again and again until `--seconds` have passed (at least
//! [`MIN_RUNS`] times), and reports medians over those runs. Outputs are
//! checked after each run. With `--trace 1` every other run records
//! spans around the calls into each layer and the per-layer table is
//! printed instead of the end-to-end metrics. The last line of standard
//! output is the JSON result.

mod checks;
mod report;
mod spans;
mod stats;
mod workload;
mod wrap;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use ppgnn_tensor::Matrix;

use report::Context;
use workload::{RepResult, Workload};

/// Fewest pipeline runs per process, whatever `--seconds` says, so set-up
/// time is always a median of several.
const MIN_RUNS: usize = 3;
/// Most pipeline runs per process.
const MAX_RUNS: usize = 40;
/// `test_acc` must beat the majority-class baseline by this much.
const ACC_MARGIN: f64 = 0.25;
/// Per-run scratch space (store directories), under the working directory.
const WORK_DIR: &str = ".bench_work";
/// Environment variables that would change what is measured.
const REFUSED_ENV: [&str; 2] = ["PPGNN_FAULTS", "PPGNN_TRACE"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |f: &str| {
        flags
            .get(f)
            .copied()
            .ok_or_else(|| format!("{f} is required"))
    };
    let name = get("--workload")?;
    let workload = workload::all()
        .into_iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident memory of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb * 1024.0 / 1e6)
}

/// Repeats `f` for at least `min_s` seconds (and three times); returns
/// the median seconds per call.
fn time_median(min_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || t0.elapsed().as_secs_f64() < min_s {
        let t = Instant::now();
        f();
        per_call.push(t.elapsed().as_secs_f64());
    }
    stats::median(&per_call)
}

/// GEMM rate at `(m, k, n)` through the library's public matmul, GFLOP/s.
fn gemm_ceiling((m, k, n): (usize, usize, usize)) -> f64 {
    let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j * 3) % 13) as f32 * 0.01);
    let b = Matrix::from_fn(k, n, |i, j| ((i * 5 + j) % 11) as f32 * 0.01);
    let mut c = Matrix::zeros(m, n);
    let s = time_median(0.3, || {
        ppgnn_tensor::matmul_into(std::hint::black_box(&a), &b, &mut c);
        std::hint::black_box(&c);
    });
    2.0 * (m * k * n) as f64 / s / 1e9
}

/// Row-gather bandwidth: rows of a `rows × cols` buffer copied in a
/// scattered order into a `batch`-row destination, MB/s.
fn copy_ceiling(rows: usize, cols: usize, batch: usize) -> f64 {
    let src = Matrix::from_fn(rows, cols, |i, j| (i ^ j) as f32);
    let batch = batch.min(rows).max(1);
    let mut dst = Matrix::zeros(batch, cols);
    // A fixed odd stride visits every row once per pass in scattered order.
    let stride = (rows / 2 + 1) | 1;
    let mut next = 0usize;
    let s = time_median(0.3, || {
        for j in 0..batch {
            dst.row_mut(j).copy_from_slice(src.row(next));
            next = (next + stride) % rows;
        }
        std::hint::black_box(&dst);
    });
    (batch * cols * 4) as f64 / s / 1e6
}

fn print_config(w: &Workload) {
    let tile = ppgnn_tensor::block::tile_config();
    println!(
        "# config pool.width={} gemm.kernel={} gemm.kc={} gemm.nc={} store={:?} partitions={} writer_queue={} chunk={}",
        ppgnn_tensor::pool().num_threads(),
        tile.kernel.name(),
        tile.kc,
        tile.nc,
        w.store,
        w.partitions(),
        w.writer_queue,
        w.chunk,
    );
    let mut env: Vec<String> = std::env::vars()
        .filter(|(k, _)| k.starts_with("PPGNN_"))
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    env.sort();
    println!(
        "# env {}",
        if env.is_empty() {
            "(no PPGNN_* set)".into()
        } else {
            env.join(" ")
        }
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set; it changes what is measured");
        return ExitCode::from(2);
    }
    let w = &args.workload;
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        w.name, args.seed, args.seconds, args.trace as u8
    );
    print_config(w);

    let t = Instant::now();
    let data = match w.dataset(args.seed) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let generate_s = t.elapsed().as_secs_f64();
    let nnz = data.graph.num_edges();
    let model = w.build_model(&data, args.seed);
    let spmm_gmadd: f64 = w
        .operators
        .iter()
        .map(|op| {
            (op.base(&data.graph).nnz() * data.profile.feature_dim * op.spmm_count() * w.hops)
                as f64
        })
        .sum::<f64>()
        / 1e9;
    let majority = data.majority_baseline();
    println!(
        "# dataset {} x{} nodes={} edges={} F={} classes={} train/val/test={}/{}/{} generate_s={:.3} majority_acc={:.4}",
        data.profile.name,
        w.scale,
        data.graph.num_nodes(),
        nnz,
        data.profile.feature_dim,
        data.profile.num_classes,
        data.split.train.len(),
        data.split.val.len(),
        data.split.test.len(),
        generate_s,
        majority,
    );

    let gemm_shape = w.largest_gemm(&data);
    let row_cols = (w.hops + 1) * w.input_dim(&data);
    let ctx = Context {
        spmm_gmadd,
        flops_per_example: model.flops_per_example() as f64,
        gemm_gflop_per_s: gemm_ceiling(gemm_shape),
        copy_mb_per_s: copy_ceiling(data.split.train.len(), row_cols, w.batch),
    };
    drop(model);
    println!(
        "# ceilings gemm {}x{}x{} = {:.2} GFLOP/s; row gather over {}x{} f32 = {:.0} MB/s (spmm bound {:.3} Gmadd/s)",
        gemm_shape.0,
        gemm_shape.1,
        gemm_shape.2,
        ctx.gemm_gflop_per_s,
        data.split.train.len(),
        row_cols,
        ctx.copy_mb_per_s,
        report::spmm_ceiling(ctx.copy_mb_per_s),
    );

    // The measured window: whole pipeline runs, alternating untraced and
    // traced ones when tracing.
    let work = Path::new(WORK_DIR);
    let window = Instant::now();
    let mut runs: Vec<(RepResult, bool)> = Vec::new();
    let mut longest = 0.0f64;
    loop {
        let i = runs.len();
        let traced = args.trace && i % 2 == 1;
        spans::set_run(i as u32);
        spans::set_recording(traced);
        let t = Instant::now();
        let rep = workload::run_once(w, &data, args.seed, work, i as u32);
        spans::set_recording(false);
        longest = longest.max(t.elapsed().as_secs_f64());
        let failed = !rep.failures.is_empty();
        runs.push((rep, traced));
        let out_of_time = window.elapsed().as_secs_f64() + longest > args.seconds;
        if failed || runs.len() >= MAX_RUNS || (runs.len() >= MIN_RUNS && out_of_time) {
            break;
        }
    }
    let _ = std::fs::remove_dir(work);
    let span_log = spans::take();
    if args.trace {
        // The raw spans go to standard error, one per line, so the table
        // on standard output can be re-derived or inspected.
        eprintln!("span\trun\tname\tstart_ns\tend_ns\tparent");
        for (i, s) in span_log.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            eprintln!(
                "{i}\t{}\t{}\t{}\t{}\t{parent}",
                s.run, s.name, s.start_ns, s.end_ns
            );
        }
    }

    // Checks over the runs together.
    let mut attempted: u64 = runs.iter().map(|(r, _)| r.attempted).sum();
    let mut failures: Vec<String> = runs.iter().flat_map(|(r, _)| r.failures.clone()).collect();
    let mut check = |ok: bool, what: String| {
        attempted += 1;
        if !ok {
            failures.push(what);
        }
    };
    let first_acc = runs[0].0.test_acc;
    check(
        runs.iter()
            .all(|(r, _)| r.test_acc.to_bits() == first_acc.to_bits()),
        "test_acc differs between runs of the same seed".into(),
    );
    check(
        first_acc >= majority + ACC_MARGIN,
        format!("test_acc {first_acc:.4} does not beat the majority baseline {majority:.4} by {ACC_MARGIN}"),
    );
    check(
        runs.iter()
            .all(|(r, _)| r.epochs.iter().all(|e| e.loss.is_finite())),
        "training loss is not finite".into(),
    );
    let mut e2e: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    for (i, (r, traced)) in runs.iter().enumerate() {
        match report::end_to_end(r, w.target_val) {
            Some(m) if !traced => e2e.push(m),
            Some(_) => {}
            None => check(
                false,
                format!("run {i}: val accuracy never reached {}", w.target_val),
            ),
        }
    }
    let vals: Vec<String> = runs[0]
        .0
        .epochs
        .iter()
        .map(|e| format!("{:.4}", e.val_acc))
        .collect();
    println!(
        "# val_acc by epoch (first run): {} (target {})",
        vals.join(" "),
        w.target_val
    );
    for f in &failures {
        println!("# FAILED {f}");
    }
    let failed = failures.len() as u64;
    let correct = failed == 0;
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    println!(
        "# {} runs in {:.1} s; {failed} of {attempted} operations failed",
        runs.len(),
        window.elapsed().as_secs_f64()
    );

    let values = if args.trace {
        per_layer_values(&runs, &span_log, &ctx, generate_s, nnz)
    } else {
        let mut v = report::medians(&e2e);
        v.insert("peak_rss_mb", peak_rss_mb());
        print_end_to_end(&e2e, &v, failed_frac);
        v
    };
    let spec = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    match report::result_line(correct, attempted, failed, spec, &values) {
        Ok(line) if correct => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Ok(line) => {
            println!("{line}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end table: median and quartiles over the untraced runs
/// (`peak_rss_mb` is one value per process), then `failed_frac` and every
/// run's values.
fn print_end_to_end(
    e2e: &[BTreeMap<&'static str, f64>],
    medians: &BTreeMap<&'static str, f64>,
    failed_frac: f64,
) {
    println!(
        "# {:<18} {:>12} {:>12} {:>12}  unit   (over {} runs)",
        "metric",
        "median",
        "q1",
        "q3",
        e2e.len()
    );
    for &(name, unit) in report::END_TO_END {
        let v: Vec<f64> = e2e.iter().filter_map(|m| m.get(name).copied()).collect();
        let (q1, q3) = stats::quartiles(&v).unwrap_or((f64::NAN, f64::NAN));
        let m = medians.get(name).copied().unwrap_or(f64::NAN);
        println!("# {name:<18} {m:>12.4} {q1:>12.4} {q3:>12.4}  {unit}");
    }
    println!(
        "# {:<18} {failed_frac:>12.4} {:>12} {:>12}  frac",
        "failed_frac", "", ""
    );
    for (i, m) in e2e.iter().enumerate() {
        let cols: Vec<String> = m.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
        println!("# run {i}: {}", cols.join(" "));
    }
}

/// Per-layer values from the traced runs, and the per-layer table.
fn per_layer_values(
    runs: &[(RepResult, bool)],
    span_log: &[spans::Span],
    ctx: &Context,
    generate_s: f64,
    nnz: usize,
) -> BTreeMap<&'static str, f64> {
    let traced: Vec<&RepResult> = runs
        .iter()
        .filter(|(r, t)| *t && r.failures.is_empty())
        .map(|(r, _)| r)
        .collect();
    let untraced: Vec<f64> = runs
        .iter()
        .filter(|(_, t)| !*t)
        .map(|(r, _)| r.run_s)
        .collect();
    let per_run: Vec<_> = traced
        .iter()
        .map(|r| report::layer_metrics(r, ctx))
        .collect();
    let mut v = report::medians(&per_run);
    let waits: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.wait_samples.iter().copied())
        .collect();
    v.extend(report::wait_percentiles(&waits));
    v.insert("graph.generate_s", generate_s);
    v.insert("graph.nnz", nnz as f64);
    let traced_run_s: Vec<f64> = traced.iter().map(|r| r.run_s).collect();
    v.insert(
        "bench.trace_overhead_frac",
        stats::median(&traced_run_s) / stats::median(&untraced) - 1.0,
    );

    // Coverage: time under the layers' top-level spans over the traced
    // runs' wall time.
    let roots: Vec<usize> = (0..span_log.len())
        .filter(|&i| span_log[i].name == workload::PIPELINE_SPAN)
        .collect();
    let wall: u64 = roots.iter().map(|&i| span_log[i].dur_ns()).sum();
    let top: u64 = span_log
        .iter()
        .filter(|s| {
            s.parent
                .is_some_and(|p| span_log[p].name == workload::PIPELINE_SPAN)
        })
        .map(|s| s.dur_ns())
        .sum();
    v.insert("bench.span_coverage", top as f64 / wall.max(1) as f64);
    if traced.is_empty() {
        return v;
    }

    let n = traced.len() as f64;
    println!(
        "# per-layer self time over {} traced run(s); a faster layer saves at most its share",
        traced.len()
    );
    println!(
        "# {:<26} {:>7} {:>10} {:>10} {:>8}",
        "layer (span)", "spans", "wall s/run", "self s/run", "share"
    );
    let mut layers: Vec<_> = spans::by_layer(span_log).into_iter().collect();
    layers.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
    for (name, t) in layers {
        let share = t.self_ns as f64 / wall.max(1) as f64;
        let note = if name == "dataio.source.try_next" {
            "  (producer thread, overlaps)"
        } else {
            ""
        };
        println!(
            "# {name:<26} {:>7} {:>10.4} {:>10.4} {:>7.1}%{note}",
            t.count,
            t.total_ns as f64 / 1e9 / n,
            t.self_ns as f64 / 1e9 / n,
            100.0 * share
        );
    }
    println!("# {}", report::wait_tail_line(&waits));
    let med =
        |f: fn(&RepResult) -> f64| stats::median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
    println!(
        "# cross-check loop timers vs model wrapper: forward+loss {:.4} s vs fwd_train {:.4} s; backward {:.4} s vs bwd {:.4} s; eval {:.4} s vs fwd_eval {:.4} s",
        med(|r| r.fwd_s),
        med(|r| r.model.fwd_train_s),
        med(|r| r.bwd_s),
        med(|r| r.model.bwd_s),
        med(|r| r.eval_s),
        med(|r| r.model.fwd_eval_s),
    );
    let rate = |achieved: &str, ceiling: &str| {
        println!(
            "# rate {achieved:<30} {:>12.3} vs {ceiling:<26} {:>12.3}  ({:.1}%)",
            v[achieved],
            v[ceiling],
            100.0 * v[achieved] / v[ceiling]
        );
    };
    rate("preprocess.spmm_gmadd_per_s", "ceiling.spmm_gmadd_per_s");
    rate("model.train_gflop_per_s", "ceiling.gemm_gflop_per_s");
    rate("loader.source_mb_per_s", "ceiling.copy_mb_per_s");
    println!("# {:<30} {:>14}  unit", "metric", "median");
    for &(name, unit) in report::PER_LAYER {
        println!(
            "# {name:<30} {:>14.6}  {unit}",
            v.get(name).copied().unwrap_or(f64::NAN)
        );
    }
    v
}
