//! Correctness checks on what a run produced. They run after the timed
//! part of each run; a failure is counted against the run and makes the
//! command exit non-zero.

use std::path::Path;
use std::sync::Arc;

use ppgnn_core::loader::{DoubleBufferLoader, Loader};
use ppgnn_core::preprocess::{PrepropFeatures, PrepropOutput};
use ppgnn_dataio::{AccessPath, FeatureStore, ShardedFeatureStore, StoreDtype};

use crate::workload::{StoreKind, Workload};

/// Chunks read back per store (or per partition store).
const SAMPLED_CHUNKS: usize = 4;

/// Every training row was delivered exactly once this epoch; resets the
/// tally for the next one.
pub fn each_row_once(seen: &mut [u32], epoch: usize) -> Result<(), String> {
    let bad = seen.iter().filter(|&&c| c != 1).count();
    let first = seen.iter().position(|&c| c != 1);
    seen.fill(0);
    match first {
        None => Ok(()),
        Some(i) => Err(format!(
            "epoch {epoch}: {bad} training rows not delivered exactly once (first: row {i})"
        )),
    }
}

/// The in-memory double-buffer loader `Trainer::fit` builds, driven for
/// one epoch with the same batch size and seed: every training row comes
/// exactly once, with its own features and label.
pub fn in_memory_loader_covers_rows(
    out: &PrepropOutput,
    batch: usize,
    seed: u64,
) -> Result<(), String> {
    let train = &out.train;
    let mut loader = DoubleBufferLoader::new(Arc::new(train.clone()), batch, seed);
    let mut seen = vec![0u32; train.len()];
    loader.start_epoch();
    while let Some(b) = loader.next_batch() {
        for (j, &i) in b.indices.iter().enumerate() {
            let Some(c) = seen.get_mut(i) else {
                return Err(format!("loader yielded row {i} of {}", train.len()));
            };
            *c += 1;
            if b.labels[j] != train.labels[i] {
                return Err(format!("row {i}: label differs from the training split"));
            }
            for (k, hop) in b.hops.iter().enumerate() {
                if !bits_equal(hop.row(j), train.hops[k].row(i)) {
                    return Err(format!("row {i} hop {k}: features differ"));
                }
            }
        }
    }
    if let Some(e) = loader.take_error() {
        return Err(format!("in-memory loader: {e}"));
    }
    each_row_once(&mut seen, 0)
}

fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `got` decodes `want` within the per-row int8 quantisation bound: half
/// a step of `(max − min) / 255`, plus float rounding.
fn int8_close(want: &[f32], got: &[f32]) -> bool {
    let (lo, hi) = want
        .iter()
        .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let mag = lo.abs().max(hi.abs());
    let tol = 0.5 * (hi - lo) / 255.0 * 1.001 + 4.0 * f32::EPSILON * mag;
    want.len() == got.len() && want.iter().zip(got).all(|(w, g)| (w - g).abs() <= tol)
}

fn row_matches(dtype: StoreDtype, want: &[f32], got: &[f32]) -> bool {
    match dtype {
        StoreDtype::Int8 => int8_close(want, got),
        _ => bits_equal(want, got),
    }
}

/// Evenly spaced chunk ids, first and last included.
fn sample_chunks(n: usize) -> Vec<usize> {
    let k = SAMPLED_CHUNKS.min(n);
    (0..k).map(|i| i * (n - 1) / (k - 1).max(1)).collect()
}

fn compare_chunk(
    dtype: StoreDtype,
    train: &PrepropFeatures,
    hops: &[ppgnn_tensor::Matrix],
    rows: &[usize],
    what: &str,
) -> Result<(), String> {
    for (k, hop) in hops.iter().enumerate() {
        if hop.rows() != rows.len() {
            return Err(format!(
                "{what} hop {k}: {} rows read back, {} expected",
                hop.rows(),
                rows.len()
            ));
        }
        for (j, &g) in rows.iter().enumerate() {
            if !row_matches(dtype, train.hops[k].row(g), hop.row(j)) {
                return Err(format!("{what} hop {k}: training row {g} read back wrong"));
            }
        }
    }
    Ok(())
}

/// Reads sampled chunks back through a second handle on the store and
/// compares them with the in-memory training partition: bit for bit for
/// f32, within the quantisation bound for int8.
pub fn store_matches(w: &Workload, dir: &Path, out: &PrepropOutput) -> Result<(), String> {
    let path = AccessPath::Direct;
    match w.store {
        StoreKind::Memory => Ok(()),
        StoreKind::Single { dtype } => {
            let mut store = FeatureStore::open(dir).map_err(|e| format!("store reopen: {e}"))?;
            let cs = store.meta().chunk_size;
            let n = store.meta().num_chunks();
            for c in sample_chunks(n) {
                let hops = store
                    .read_chunk_all_hops(c, path)
                    .map_err(|e| format!("store chunk {c}: {e}"))?;
                let rows: Vec<usize> = (c * cs..c * cs + hops[0].rows()).collect();
                compare_chunk(dtype, &out.train, &hops, &rows, &format!("chunk {c}"))?;
            }
            Ok(())
        }
        StoreKind::Sharded { dtype, .. } => {
            let mut store =
                ShardedFeatureStore::open(dir).map_err(|e| format!("sharded store reopen: {e}"))?;
            for p in 0..store.num_partitions() {
                for c in sample_chunks(store.num_chunks(p)) {
                    let hops = store
                        .read_chunk_all_hops(p, c, path)
                        .map_err(|e| format!("partition {p} chunk {c}: {e}"))?;
                    let rows = store.chunk_global_rows(p, c).to_vec();
                    compare_chunk(
                        dtype,
                        &out.train,
                        &hops,
                        &rows,
                        &format!("partition {p} chunk {c}"),
                    )?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_chunks_span_the_store() {
        assert!(sample_chunks(0).is_empty());
        assert_eq!(sample_chunks(1), vec![0]);
        assert_eq!(sample_chunks(2), vec![0, 1]);
        assert_eq!(sample_chunks(10), vec![0, 3, 6, 9]);
    }

    #[test]
    fn int8_bound_is_half_a_quantisation_step() {
        let want = [0.0f32, 1.0, 2.55];
        let step = 2.55 / 255.0;
        assert!(int8_close(&want, &[0.0, 1.0 + 0.49 * step, 2.55]));
        assert!(!int8_close(&want, &[0.0, 1.0 + 0.6 * step, 2.55]));
    }

    #[test]
    fn each_row_once_flags_duplicates_and_gaps() {
        let mut seen = vec![1, 1, 1];
        assert!(each_row_once(&mut seen, 0).is_ok());
        let mut seen = vec![1, 2, 0];
        let e = each_row_once(&mut seen, 4).expect_err("duplicate and gap");
        assert!(e.contains("2 training rows"), "{e}");
        assert_eq!(seen, vec![0, 0, 0]);
    }
}
