//! Partition balance table: how the partition-parallel preprocessing
//! pipeline (`ppgnn-partition`) cuts a skewed graph — rows, local nnz,
//! ghost rows (the per-hop exchange volume), training rows, and
//! per-partition store bytes — for both partitioner strategies, plus the
//! partitioned-vs-whole-graph wall-clock comparison.
//!
//! `PPGNN_NUM_PARTITIONS` overrides the default partition counts.
//!
//! Run with: `cargo run --release -p ppgnn-bench --bin exp_partition_table`

use ppgnn_bench::{print_markdown_table, HARNESS_SCALE};
use ppgnn_core::preprocess::Preprocessor;
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::{BfsGrowPartitioner, Operator, Partitioner, RangeCutPartitioner};
use ppgnn_tensor::knobs;

fn main() {
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(HARNESS_SCALE), 42)
        .expect("generation succeeds");
    let prep = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 3);
    // Pinned to P = 1: `PPGNN_NUM_PARTITIONS` reaches every run, and this
    // one is the whole-graph baseline.
    let reference = prep.clone().with_num_partitions(1).run(&data);

    // Clamped through the registry like every other consumer — the
    // pre-registry read here accepted any usize, including 0.
    let env_parts = knobs::usize_value(knobs::NUM_PARTITIONS);
    let part_counts: Vec<usize> = env_parts.map(|p| vec![p]).unwrap_or_else(|| vec![2, 4]);

    println!("## Partition balance — pokec-sim, K=2 (sym + rw), R=3\n");
    println!(
        "whole-graph preprocessing: {:.3}s ({} train rows)\n",
        reference.preprocess_seconds,
        reference.train.len()
    );

    let partitioners: [&'static dyn Partitioner; 2] = [&RangeCutPartitioner, &BfsGrowPartitioner];
    for partitioner in partitioners {
        for &parts in &part_counts {
            let dir = std::env::temp_dir().join(format!(
                "ppgnn-exp-partition-{}-{parts}-{}",
                partitioner.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let (out, _store) = prep
                .clone()
                .with_num_partitions(parts)
                .with_partitioner(partitioner)
                .run_with_sharded_store(&data, &dir, "pokec-sim", 256)
                .expect("partitioned preprocessing succeeds");
            println!(
                "### {} @ P={parts} — {:.3}s ({:.2}x vs whole-graph), {} ghost rows/hop\n",
                partitioner.name(),
                out.preprocess_seconds,
                reference.preprocess_seconds / out.preprocess_seconds.max(f64::EPSILON),
                out.expansion
                    .partitions
                    .iter()
                    .map(|s| s.ghost_rows)
                    .sum::<usize>(),
            );
            let total_nnz: usize = out.expansion.partitions.iter().map(|s| s.nnz).sum();
            let rows: Vec<Vec<String>> = out
                .expansion
                .partitions
                .iter()
                .map(|s| {
                    vec![
                        s.partition.to_string(),
                        s.rows.to_string(),
                        format!(
                            "{} ({:.1}%)",
                            s.nnz,
                            100.0 * s.nnz as f64 / total_nnz as f64
                        ),
                        format!(
                            "{} ({:.1}% of rows)",
                            s.ghost_rows,
                            100.0 * s.ghost_rows as f64 / s.rows.max(1) as f64
                        ),
                        s.train_rows.to_string(),
                        format!("{:.2} MB", s.store_bytes as f64 / 1e6),
                    ]
                })
                .collect();
            print_markdown_table(
                &[
                    "partition",
                    "rows",
                    "nnz (share)",
                    "ghost rows (overhead)",
                    "train rows",
                    "store bytes",
                ],
                &rows,
            );
            println!();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    println!("ghost rows are the per-hop exchange volume a multi-machine run would move");
    println!("over the network; nnz share is the compute balance the cut achieved.");
}
