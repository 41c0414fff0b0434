//! The four data-loader generations of Section 4.
//!
//! All loaders yield the same [`PpBatch`] stream for a fixed seed (pinned
//! by the `loader_equivalence` integration test), so swapping generations
//! changes *how* bytes move, never *what* the model sees — except chunk
//! reshuffling with `chunk_size > 1`, which is the paper's deliberate
//! relaxation of SGD-RR (Section 4.2, accuracy impact studied in Figure 8).
//!
//! | Generation | Module | Mechanism |
//! |---|---|---|
//! | 0 baseline | [`BaselineLoader`] | one copy **per row** (PyTorch-DataLoader behaviour) |
//! | 1 fused | [`FusedGatherLoader`] | one fused index op per hop per batch, straight into the batch |
//! | 2 prefetch | [`DoubleBufferLoader`] | producer thread + bounded(2) channel (the double buffer) |
//! | 3 chunked | [`ChunkReshuffleLoader`] | chunk-level shuffle, contiguous chunk copies |
//! | 3s storage | [`ChunkLoader`] | (partition, chunk) reads from an on-disk [`ChunkStore`] |
//!
//! The storage loader is one implementation over both store layouts:
//! [`StorageChunkLoader`] reads a single feature store and
//! [`ShardedStorageChunkLoader`] fans reads out across partition stores;
//! at one partition their streams are identical.
//!
//! Generations compose: [`DoubleBufferLoader`] runs a [`BatchSource`]
//! behind the gen-2 producer thread — the fused in-memory gather
//! ([`DoubleBufferLoader::new`]) or any other source
//! ([`DoubleBufferLoader::over_source`]), such as the storage chunk
//! loader, so chunk I/O overlaps training compute.

mod baseline;
mod chunk;
mod fused;
mod prefetch;
mod sharded;
mod storage;

pub use baseline::BaselineLoader;
pub use chunk::ChunkReshuffleLoader;
pub use fused::FusedGatherLoader;
pub use prefetch::DoubleBufferLoader;
pub use storage::{ChunkLoader, ChunkStore, ShardedStorageChunkLoader, StorageChunkLoader};

use ppgnn_dataio::DataIoError;

use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// One training minibatch: hop features and labels for `indices` rows of
/// the training partition.
#[derive(Debug, Clone, PartialEq)]
pub struct PpBatch {
    /// Row indices (into the training partition) this batch covers.
    pub indices: Vec<usize>,
    /// `R + 1` hop matrices, `indices.len() x F` each.
    pub hops: Vec<Matrix>,
    /// Labels aligned with rows.
    pub labels: Vec<u32>,
}

impl PpBatch {
    /// Number of examples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` for an empty batch (never yielded by loaders).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Work counters a loader accumulates over an epoch — the measured
/// quantities the performance plane replays (ops ↔ kernel launches,
/// bytes ↔ bandwidth × time).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoaderCounters {
    /// Gather/copy operations issued (per-row for the baseline, per-hop
    /// for fused generations, per-chunk for chunked generations).
    pub gather_ops: u64,
    /// Feature bytes assembled.
    pub bytes_assembled: u64,
    /// Batches yielded.
    pub batches: u64,
}

/// A PP-GNN minibatch source.
///
/// Usage per epoch: call [`Loader::start_epoch`], then drain
/// [`Loader::next_batch`] until `None`.
pub trait Loader {
    /// Begins a new epoch (reshuffles indices; may spawn worker threads).
    fn start_epoch(&mut self);

    /// Yields the next batch, or `None` when the epoch is exhausted.
    fn next_batch(&mut self) -> Option<PpBatch>;

    /// Batches per epoch (including a trailing partial batch).
    fn num_batches(&self) -> usize;

    /// Accumulated work counters.
    fn counters(&self) -> LoaderCounters;

    /// Takes the error (if any) that ended the current epoch early.
    ///
    /// Synchronous in-memory loaders cannot fail and return `None` (the
    /// default). Storage-backed loaders park the first I/O failure here
    /// after [`Loader::next_batch`] returns `None`, and threaded loaders
    /// ([`DoubleBufferLoader`]) park producer-side failures the same way;
    /// the trainer checks this slot when the epoch drains so a truncated
    /// store or dead producer fails the run cleanly instead of being
    /// mistaken for a completed epoch.
    fn take_error(&mut self) -> Option<String> {
        None
    }

    /// Stable display name.
    fn name(&self) -> &'static str;
}

/// A fallible epoch-batched source that can run behind the
/// [`DoubleBufferLoader`] producer thread.
///
/// This is the composition seam between the generation-2 prefetch
/// pipeline and the generation-3 storage loaders: the producer thread
/// drives `try_next_batch` and forwards each `Result` over the bounded
/// channel, so storage errors propagate batch-by-batch instead of killing
/// the producer. Implementations must be `Send` (the source crosses into
/// the producer thread each epoch and is handed back when it ends).
/// Method names are deliberately distinct from [`Loader`]'s so types
/// implementing both stay unambiguous at call sites.
pub trait BatchSource: Send + std::fmt::Debug {
    /// Begins a new epoch (reshuffles the read order).
    fn begin_epoch(&mut self);

    /// Yields the next batch: `Ok(None)` ends the epoch, `Err` surfaces a
    /// storage failure.
    ///
    /// # Errors
    ///
    /// Propagates [`DataIoError`] from the underlying reads.
    fn try_next(&mut self) -> Result<Option<PpBatch>, DataIoError>;

    /// Batches per epoch (including a trailing partial batch).
    fn batches_per_epoch(&self) -> usize;

    /// Accumulated work counters.
    fn source_counters(&self) -> LoaderCounters;
}

/// Fisher–Yates permutation of `0..n` — shared by every loader so equal
/// seeds give equal batch streams (SGD-RR order).
pub(crate) fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        idx.swap(i, j);
    }
    idx
}

/// Chunk-blocked permutation: shuffles **chunk ids** with the same
/// Fisher–Yates, then expands to row indices. With `chunk_size == 1` this
/// is exactly [`permutation`] — SGD-CR degenerates to SGD-RR, which the
/// tests assert.
pub(crate) fn chunk_permutation(n: usize, chunk_size: usize, rng: &mut StdRng) -> Vec<usize> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let num_chunks = n.div_ceil(chunk_size);
    let chunk_order = permutation(num_chunks, rng);
    let mut out = Vec::with_capacity(n);
    for c in chunk_order {
        let start = c * chunk_size;
        let end = (start + chunk_size).min(n);
        out.extend(start..end);
    }
    out
}

/// Shared fixtures for loader unit tests.
#[cfg(test)]
pub(crate) mod tests_support {
    use ppgnn_tensor::Matrix;

    use crate::preprocess::PrepropFeatures;

    /// A deterministic partition of `n` rows, `hops + 1` hop matrices of
    /// width `f`; cell `(k, r, c) = k·10⁶ + r·10³ + c`.
    pub(crate) fn tiny_features(n: usize, hops: usize, f: usize) -> PrepropFeatures {
        PrepropFeatures {
            hops: (0..=hops)
                .map(|k| Matrix::from_fn(n, f, move |r, c| (k * 1_000_000 + r * 1_000 + c) as f32))
                .collect(),
            labels: (0..n).map(|r| (r % 5) as u32).collect(),
            node_ids: (0..n).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn permutation_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(1);
        let p = permutation(100, &mut rng);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_permutation_keeps_chunks_contiguous() {
        let mut rng = StdRng::seed_from_u64(2);
        let p = chunk_permutation(10, 3, &mut rng);
        assert_eq!(p.len(), 10);
        // every aligned chunk appears as a contiguous run
        for run in p.chunks(3) {
            for w in run.windows(2) {
                if w[0] % 3 != 2 && w[0] / 3 == w[1] / 3 {
                    assert_eq!(w[1], w[0] + 1);
                }
            }
        }
        let mut sorted = p;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn chunk_size_one_equals_rr() {
        let p1 = permutation(50, &mut StdRng::seed_from_u64(7));
        let p2 = chunk_permutation(50, 1, &mut StdRng::seed_from_u64(7));
        assert_eq!(p1, p2);
    }

    #[test]
    fn chunk_size_n_is_identity_modulo_rotation() {
        let mut rng = StdRng::seed_from_u64(3);
        let p = chunk_permutation(10, 10, &mut rng);
        assert_eq!(p, (0..10).collect::<Vec<_>>());
    }
}
