use std::collections::VecDeque;

use ppgnn_dataio::{AccessPath, DataIoError, FeatureStore, IoCounters, StoreMeta};
use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loader::{permutation, BatchSource, Loader, LoaderCounters, PpBatch};

pub(crate) mod sealed {
    pub trait Sealed {}
}

/// An on-disk hop-feature store [`ChunkLoader`] can read: a single
/// [`FeatureStore`] (one partition) or a
/// [`ppgnn_dataio::ShardedFeatureStore`] (one store per graph partition).
/// Sealed: the two layouts are the only implementations.
pub trait ChunkStore: sealed::Sealed + Send + std::fmt::Debug {
    /// Stable display name of a loader over this store.
    const LOADER_NAME: &'static str;

    /// Geometry of the logical store (rows are global training rows).
    fn meta(&self) -> &StoreMeta;

    /// Partition stores behind this handle (1 for a single store).
    fn num_partitions(&self) -> usize;

    /// Chunks in partition `p`.
    fn num_chunks(&self, p: usize) -> usize;

    /// Reads chunk `chunk` of partition `p` across every hop file — one
    /// sequential request per hop — returning the global training rows it
    /// holds, in stored order, and one matrix per hop.
    ///
    /// # Errors
    ///
    /// Propagates [`DataIoError`] from the chunk reads.
    fn read_chunk(
        &mut self,
        p: usize,
        chunk: usize,
        path: AccessPath,
    ) -> Result<(Vec<usize>, Vec<Matrix>), DataIoError>;

    /// I/O counters aggregated across the partition stores.
    fn io_counters(&self) -> IoCounters;
}

impl sealed::Sealed for FeatureStore {}

impl ChunkStore for FeatureStore {
    const LOADER_NAME: &'static str = "storage-chunk";

    fn meta(&self) -> &StoreMeta {
        FeatureStore::meta(self)
    }

    fn num_partitions(&self) -> usize {
        1
    }

    fn num_chunks(&self, _p: usize) -> usize {
        self.meta().num_chunks()
    }

    fn read_chunk(
        &mut self,
        _p: usize,
        chunk: usize,
        path: AccessPath,
    ) -> Result<(Vec<usize>, Vec<Matrix>), DataIoError> {
        let start_row = chunk * self.meta().chunk_size;
        let hops = self.read_chunk_all_hops(chunk, path)?;
        Ok(((start_row..start_row + hops[0].rows()).collect(), hops))
    }

    fn io_counters(&self) -> IoCounters {
        self.counters()
    }
}

/// Generation 3s: chunk-reshuffled loading **directly from storage**
/// (Section 4.3), over a single store or a partitioned one.
///
/// The work list is every `(partition, chunk)` pair of the [`ChunkStore`],
/// shuffled each epoch by one Fisher–Yates pass — with a single partition
/// exactly the single-store chunk order. Each unit of work is one
/// sequential request per hop file, the access pattern that keeps SSD
/// throughput near its sequential ceiling; over a sharded store the reads
/// fan out across the per-partition files instead of serializing on one.
/// Batch `indices` are **global** training rows, so the stream is drop-in
/// for the trainer whatever the layout: same labels and feature bytes per
/// row, and at `P = 1` the same stream for equal seeds. The
/// [`AccessPath`] selects the GPUDirect analog ([`AccessPath::Direct`]) or
/// the conventional host bounce buffer.
///
/// The loader carries rows across batch boundaries so `batch_size` need not
/// divide `chunk_size`: read chunks sit untouched in a deque and a row
/// cursor walks the front chunk, so assembling a batch copies exactly
/// `batch_size` rows — never the whole pending buffer, so traffic stays
/// linear even when `chunk_size ≫ batch_size`.
///
/// I/O failures mid-epoch are surfaced through
/// [`ChunkLoader::try_next_batch`]; the infallible [`Loader`] API ends the
/// epoch and parks the error for [`Loader::take_error`], which the trainer
/// checks after draining — a truncated store file fails the epoch cleanly
/// instead of aborting the process.
#[derive(Debug)]
pub struct ChunkLoader<S> {
    store: S,
    labels: Vec<u32>,
    batch_size: usize,
    path: AccessPath,
    rng: StdRng,
    /// Shuffled `(partition, chunk)` work list for the current epoch.
    chunk_order: Vec<(usize, usize)>,
    next_chunk: usize,
    /// Chunks read but not fully emitted, in emit order.
    batcher: ChunkBatcher,
    /// First I/O error of the epoch, parked for [`Loader::take_error`].
    error: Option<DataIoError>,
    /// Latched on the first I/O failure and cleared only by
    /// [`Loader::start_epoch`]: a failed epoch must not resume past the
    /// failed chunk and silently drop its rows.
    failed: bool,
    counters: LoaderCounters,
}

/// The chunk loader over one [`FeatureStore`].
pub type StorageChunkLoader = ChunkLoader<FeatureStore>;

/// The chunk loader over a [`ppgnn_dataio::ShardedFeatureStore`] — the
/// serving side of partitioned preprocessing.
pub type ShardedStorageChunkLoader = ChunkLoader<ppgnn_dataio::ShardedFeatureStore>;

impl<S: ChunkStore> ChunkLoader<S> {
    /// Creates a storage-backed loader over `store`.
    ///
    /// `labels[i]` must be the label of **global** training row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `labels.len()` disagrees with the
    /// store's row count.
    pub fn new(store: S, labels: Vec<u32>, batch_size: usize, path: AccessPath, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert_eq!(
            labels.len(),
            store.meta().rows,
            "one label per stored row required"
        );
        ChunkLoader {
            store,
            labels,
            batch_size,
            path,
            rng: StdRng::seed_from_u64(seed),
            chunk_order: Vec::new(),
            next_chunk: 0,
            batcher: ChunkBatcher::default(),
            error: None,
            failed: false,
            counters: LoaderCounters::default(),
        }
    }

    /// I/O counters of the underlying store(s) (sequential vs random
    /// reads), aggregated across partition stores.
    pub fn io_counters(&self) -> IoCounters {
        self.store.io_counters()
    }

    /// Number of partition stores the loader fans reads across.
    pub fn num_partitions(&self) -> usize {
        self.store.num_partitions()
    }

    fn refill(&mut self) -> Result<bool, DataIoError> {
        let Some(&(p, chunk)) = self.chunk_order.get(self.next_chunk) else {
            return Ok(false);
        };
        self.next_chunk += 1;
        let (rows, hops) = self.store.read_chunk(p, chunk, self.path)?;
        self.counters.gather_ops += hops.len() as u64;
        self.counters.bytes_assembled += hops.iter().map(|m| m.size_bytes() as u64).sum::<u64>();
        self.batcher.push(PendingChunk { rows, hops });
        Ok(true)
    }

    /// Fallible batch path: `Ok(None)` ends the epoch, `Err` surfaces the
    /// first storage failure. The failure is latched: every further call
    /// keeps returning `Err` until [`Loader::start_epoch`], so a retrying
    /// caller cannot resume past the failed chunk and silently train on an
    /// epoch with missing rows.
    ///
    /// # Errors
    ///
    /// Propagates [`DataIoError`] from chunk reads — e.g. a store file
    /// truncated after the epoch started.
    pub fn try_next_batch(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        if self.failed {
            return Err(self.error.clone().unwrap_or_else(|| {
                DataIoError::Io("epoch already failed; start_epoch required".into())
            }));
        }
        while self.batcher.pending_rows() < self.batch_size {
            match self.refill() {
                Ok(true) => continue,
                Ok(false) => break,
                Err(e) => {
                    self.failed = true;
                    self.error = Some(e.clone());
                    return Err(e);
                }
            }
        }
        if self.batcher.pending_rows() == 0 {
            return Ok(None);
        }
        let take = self.batch_size.min(self.batcher.pending_rows());
        let meta = self.store.meta();
        let (hops, indices) = self.batcher.assemble(take, meta.num_hops, meta.cols);
        let labels = indices.iter().map(|&i| self.labels[i]).collect();
        self.counters.batches += 1;
        Ok(Some(PpBatch {
            indices,
            hops,
            labels,
        }))
    }
}

impl<S: ChunkStore> Loader for ChunkLoader<S> {
    fn start_epoch(&mut self) {
        // (partition, chunk) pairs in canonical order, then one shared
        // Fisher–Yates shuffle — with a single partition this is exactly
        // a shuffle of the chunk ids.
        let pairs: Vec<(usize, usize)> = (0..self.store.num_partitions())
            .flat_map(|p| (0..self.store.num_chunks(p)).map(move |c| (p, c)))
            .collect();
        self.chunk_order = permutation(pairs.len(), &mut self.rng)
            .into_iter()
            .map(|i| pairs[i])
            .collect();
        self.next_chunk = 0;
        self.batcher.reset();
        self.error = None;
        self.failed = false;
    }

    fn next_batch(&mut self) -> Option<PpBatch> {
        if self.failed {
            return None;
        }
        // An Err is latched by try_next_batch and parked for take_error.
        self.try_next_batch().unwrap_or_default()
    }

    fn num_batches(&self) -> usize {
        self.store.meta().rows.div_ceil(self.batch_size)
    }

    fn counters(&self) -> LoaderCounters {
        self.counters
    }

    fn take_error(&mut self) -> Option<String> {
        self.error.take().map(|e| e.to_string())
    }

    fn name(&self) -> &'static str {
        S::LOADER_NAME
    }
}

impl<S: ChunkStore> BatchSource for ChunkLoader<S> {
    fn begin_epoch(&mut self) {
        Loader::start_epoch(self)
    }

    fn try_next(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        self.try_next_batch()
    }

    fn batches_per_epoch(&self) -> usize {
        Loader::num_batches(self)
    }

    fn source_counters(&self) -> LoaderCounters {
        Loader::counters(self)
    }
}

/// One read-but-not-fully-emitted chunk: its rows' global ids (in stored
/// order) and one matrix per hop.
#[derive(Debug)]
struct PendingChunk {
    rows: Vec<usize>,
    hops: Vec<Matrix>,
}

/// Carries rows across batch boundaries, so `batch_size` need not divide
/// `chunk_size`: read chunks sit untouched in a deque and a row cursor
/// walks the front chunk, so assembling a batch copies exactly
/// `batch_size` rows — never the whole pending buffer.
#[derive(Debug, Default)]
struct ChunkBatcher {
    pending: VecDeque<PendingChunk>,
    /// Rows of `pending.front()` already emitted.
    cursor: usize,
    /// Total unemitted rows across `pending` (accounting for `cursor`).
    pending_rows: usize,
}

impl ChunkBatcher {
    /// Drops all carried rows (a new epoch).
    fn reset(&mut self) {
        self.pending.clear();
        self.cursor = 0;
        self.pending_rows = 0;
    }

    /// Unemitted rows currently buffered.
    fn pending_rows(&self) -> usize {
        self.pending_rows
    }

    /// Buffers one freshly read chunk.
    fn push(&mut self, chunk: PendingChunk) {
        self.pending_rows += chunk.rows.len();
        self.pending.push_back(chunk);
    }

    /// Assembles exactly `take` rows (`take <= pending_rows()`) into one
    /// `take × cols` matrix per hop plus the rows' global indices, with
    /// one contiguous copy per (hop, chunk segment).
    fn assemble(&mut self, take: usize, num_hops: usize, cols: usize) -> (Vec<Matrix>, Vec<usize>) {
        debug_assert!(
            take <= self.pending_rows,
            "cannot assemble more than buffered"
        );
        let mut hops: Vec<Matrix> = (0..num_hops).map(|_| Matrix::zeros(take, cols)).collect();
        let mut indices = Vec::with_capacity(take);
        let mut filled = 0;
        while filled < take {
            let chunk = self.pending.front().expect("pending_rows > 0");
            let avail = chunk.rows.len() - self.cursor;
            let run = avail.min(take - filled);
            for (out, src) in hops.iter_mut().zip(&chunk.hops) {
                out.as_mut_slice()[filled * cols..(filled + run) * cols].copy_from_slice(
                    &src.as_slice()[self.cursor * cols..(self.cursor + run) * cols],
                );
            }
            indices.extend_from_slice(&chunk.rows[self.cursor..self.cursor + run]);
            filled += run;
            self.cursor += run;
            if self.cursor == chunk.rows.len() {
                self.pending.pop_front();
                self.cursor = 0;
            }
        }
        self.pending_rows -= take;
        (hops, indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_dataio::{FeatureStoreWriter, StoreMeta};
    use ppgnn_tensor::Matrix;
    use std::path::PathBuf;

    fn build_store(tag: &str, rows: usize, hops: usize, chunk: usize) -> (FeatureStore, PathBuf) {
        let dir = std::env::temp_dir().join(format!("ppgnn-sl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let meta = StoreMeta {
            dataset: "t".into(),
            num_hops: hops + 1,
            rows,
            cols: 3,
            chunk_size: chunk,
            dtype: ppgnn_tensor::StoreDtype::F32,
        };
        let mut w = FeatureStoreWriter::create(&dir, meta).unwrap();
        for k in 0..=hops {
            let m = Matrix::from_fn(rows, 3, move |r, c| (k * 1_000_000 + r * 1_000 + c) as f32);
            w.write_hop(k, &m).unwrap();
        }
        (w.finish().unwrap(), dir)
    }

    #[test]
    fn covers_every_row_once_with_correct_contents() {
        let (store, dir) = build_store("cover", 25, 1, 4);
        let labels: Vec<u32> = (0..25).map(|r| (r % 3) as u32).collect();
        let mut l = StorageChunkLoader::new(store, labels, 7, AccessPath::Direct, 0);
        l.start_epoch();
        let mut seen = Vec::new();
        while let Some(b) = l.next_batch() {
            for (r, &idx) in b.indices.iter().enumerate() {
                assert_eq!(b.hops[0].row(r)[0], (idx * 1000) as f32);
                assert_eq!(b.hops[1].row(r)[0], (1_000_000 + idx * 1000) as f32);
                assert_eq!(b.labels[r], (idx % 3) as u32);
            }
            seen.extend(b.indices);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..25).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_are_sequential_chunks_not_random_rows() {
        let (store, dir) = build_store("seq", 32, 2, 8);
        let labels = vec![0u32; 32];
        let mut l = StorageChunkLoader::new(store, labels, 8, AccessPath::Direct, 1);
        l.start_epoch();
        while l.next_batch().is_some() {}
        let io = l.io_counters();
        assert_eq!(io.rand_requests, 0);
        assert_eq!(io.seq_requests, 4 * 3); // chunks × hop files
        assert_eq!(io.seq_bytes, (32 * 3 * 4 * 3) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bounce_path_counts_extra_copies() {
        let (store, dir) = build_store("bounce", 16, 0, 4);
        let labels = vec![0u32; 16];
        let mut l = StorageChunkLoader::new(store, labels, 4, AccessPath::HostBounce, 2);
        l.start_epoch();
        while l.next_batch().is_some() {}
        let io = l.io_counters();
        assert_eq!(io.bounce_bytes, io.seq_bytes);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_size_not_dividing_chunk_size_carries_rows_over() {
        let (store, dir) = build_store("carry", 20, 0, 6);
        let labels = vec![0u32; 20];
        let mut l = StorageChunkLoader::new(store, labels, 7, AccessPath::Direct, 3);
        l.start_epoch();
        let sizes: Vec<usize> = std::iter::from_fn(|| l.next_batch().map(|b| b.len())).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 20);
        assert_eq!(sizes, vec![7, 7, 6]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunk_size_not_dividing_rows_emits_short_last_chunk_rows() {
        // 23 rows / chunk 5 → chunks of 5,5,5,5,3; batch 4 crosses every
        // chunk boundary including the short tail.
        let (store, dir) = build_store("shortlast", 23, 1, 5);
        let labels: Vec<u32> = (0..23).map(|r| (r % 4) as u32).collect();
        let mut l = StorageChunkLoader::new(store, labels, 4, AccessPath::Direct, 9);
        l.start_epoch();
        let mut seen = Vec::new();
        let mut sizes = Vec::new();
        while let Some(b) = l.next_batch() {
            for (r, &idx) in b.indices.iter().enumerate() {
                assert_eq!(b.hops[1].row(r)[2], (1_000_000 + idx * 1000 + 2) as f32);
            }
            sizes.push(b.len());
            seen.extend(b.indices);
        }
        assert_eq!(sizes, vec![4, 4, 4, 4, 4, 3]);
        seen.sort_unstable();
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn large_chunk_small_batch_copies_only_batch_rows() {
        // chunk_size ≫ batch_size: the O(pending²) regression scenario.
        // Counter semantics: bytes_assembled counts chunk reads, so it must
        // equal the store payload exactly once — no re-stacking traffic.
        let (store, dir) = build_store("bigchunk", 64, 1, 64);
        let labels = vec![0u32; 64];
        let mut l = StorageChunkLoader::new(store, labels, 3, AccessPath::Direct, 5);
        l.start_epoch();
        let mut total_rows = 0;
        while let Some(b) = l.next_batch() {
            total_rows += b.len();
        }
        assert_eq!(total_rows, 64);
        assert_eq!(l.counters().bytes_assembled, (64 * 3 * 4 * 2) as u64);
        assert_eq!(l.counters().gather_ops, 2); // one read per hop file
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epochs_reshuffle_chunk_order() {
        let (store, dir) = build_store("shuffle", 64, 0, 4);
        let labels = vec![0u32; 64];
        let mut l = StorageChunkLoader::new(store, labels, 64, AccessPath::Direct, 4);
        l.start_epoch();
        let e1 = l.next_batch().unwrap().indices;
        l.start_epoch();
        let e2 = l.next_batch().unwrap().indices;
        assert_ne!(e1, e2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_store_fails_the_epoch_cleanly() {
        let (store, dir) = build_store("trunc", 32, 1, 4);
        let labels = vec![0u32; 32];
        let mut l = StorageChunkLoader::new(store, labels, 4, AccessPath::Direct, 6);
        l.start_epoch();
        let first = l.next_batch();
        assert!(first.is_some());
        // Truncate hop 1 mid-epoch: some future chunk read must fail.
        let path = dir.join("hop_1.ppgt");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        // The infallible path ends the epoch instead of panicking...
        let mut emitted = 1;
        while l.next_batch().is_some() {
            emitted += 1;
        }
        assert!(emitted < l.num_batches(), "epoch should end early");
        // ...and parks the error for the trainer to check.
        let err = l.take_error().expect("error must be surfaced");
        assert!(!err.is_empty());
        assert!(l.take_error().is_none(), "take_error drains the slot");
        // The fallible path reports it directly on a fresh epoch.
        l.start_epoch();
        let mut result = l.try_next_batch();
        while let Ok(Some(_)) = result {
            result = l.try_next_batch();
        }
        assert!(result.is_err(), "truncated read must surface an error");
        // The failure is latched: a retry must NOT resume past the failed
        // chunk (that would silently drop its rows), and the infallible
        // path must stay ended.
        assert!(l.try_next_batch().is_err(), "failed epoch must stay failed");
        assert!(l.next_batch().is_none());
        // start_epoch clears the latch (and would re-fail on the same
        // truncated store, but from a clean slate).
        l.start_epoch();
        assert!(l.take_error().is_none(), "start_epoch resets the error");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
