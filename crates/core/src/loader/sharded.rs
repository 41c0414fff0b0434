use ppgnn_dataio::{AccessPath, DataIoError, IoCounters, ShardedFeatureStore, StoreMeta};
use ppgnn_tensor::Matrix;

use crate::loader::storage::{sealed, ChunkStore};

impl sealed::Sealed for ShardedFeatureStore {}

/// A sharded store serves each `(partition, chunk)` pair from its
/// partition store, mapped back to global training rows.
impl ChunkStore for ShardedFeatureStore {
    const LOADER_NAME: &'static str = "sharded-storage-chunk";

    fn meta(&self) -> &StoreMeta {
        ShardedFeatureStore::meta(self)
    }

    fn num_partitions(&self) -> usize {
        ShardedFeatureStore::num_partitions(self)
    }

    fn num_chunks(&self, p: usize) -> usize {
        ShardedFeatureStore::num_chunks(self, p)
    }

    fn read_chunk(
        &mut self,
        p: usize,
        chunk: usize,
        path: AccessPath,
    ) -> Result<(Vec<usize>, Vec<Matrix>), DataIoError> {
        let rows = self.chunk_global_rows(p, chunk).to_vec();
        let hops = self.read_chunk_all_hops(p, chunk, path)?;
        Ok((rows, hops))
    }

    fn io_counters(&self) -> IoCounters {
        self.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{Loader, ShardedStorageChunkLoader};
    use ppgnn_dataio::ShardedStoreWriter;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ppgnn-shl-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Builds a sharded store whose logical rows follow the deterministic
    /// `r * 1000 + hop * 1_000_000 + c` pattern, rows dealt round-robin.
    fn build(
        tag: &str,
        rows: usize,
        hops: usize,
        chunk: usize,
        parts: usize,
    ) -> (ShardedFeatureStore, PathBuf) {
        let dir = temp_dir(tag);
        let meta = StoreMeta {
            dataset: "t".into(),
            num_hops: hops + 1,
            rows,
            cols: 3,
            chunk_size: chunk,
            dtype: ppgnn_tensor::StoreDtype::F32,
        };
        let mut assignment = vec![Vec::new(); parts];
        for r in 0..rows {
            assignment[r % parts].push(r);
        }
        let mut w = ShardedStoreWriter::create(&dir, meta, &assignment, 2).unwrap();
        for k in 0..=hops {
            let hop = Matrix::from_fn(rows, 3, move |r, c| (k * 1_000_000 + r * 1_000 + c) as f32);
            for (p, globals) in assignment.iter().enumerate() {
                w.submit(p, k, hop.gather_rows(globals)).unwrap();
            }
        }
        (w.finish().unwrap(), dir)
    }

    #[test]
    fn covers_every_global_row_once_with_correct_contents() {
        let (store, dir) = build("cover", 25, 1, 4, 3);
        let labels: Vec<u32> = (0..25).map(|r| (r % 3) as u32).collect();
        let mut l = ShardedStorageChunkLoader::new(store, labels, 7, AccessPath::Direct, 0);
        l.start_epoch();
        let mut seen = Vec::new();
        while let Some(b) = l.next_batch() {
            for (r, &idx) in b.indices.iter().enumerate() {
                assert_eq!(b.hops[0].row(r)[0], (idx * 1000) as f32);
                assert_eq!(b.hops[1].row(r)[2], (1_000_000 + idx * 1000 + 2) as f32);
                assert_eq!(b.labels[r], (idx % 3) as u32);
            }
            seen.extend(b.indices);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..25).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_fan_out_across_partitions_sequentially() {
        let (store, dir) = build("fanout", 32, 1, 4, 2);
        let labels = vec![0u32; 32];
        let mut l = ShardedStorageChunkLoader::new(store, labels, 8, AccessPath::Direct, 1);
        assert_eq!(l.num_partitions(), 2);
        l.start_epoch();
        while l.next_batch().is_some() {}
        let io = l.io_counters();
        assert_eq!(io.rand_requests, 0);
        // 4 chunks per partition × 2 partitions × 2 hop files.
        assert_eq!(io.seq_requests, 16);
        assert_eq!(io.seq_bytes, (32 * 3 * 4 * 2) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_partition_store_fails_the_epoch_cleanly() {
        let (store, dir) = build("trunc", 24, 1, 4, 2);
        let labels = vec![0u32; 24];
        let mut l = ShardedStorageChunkLoader::new(store, labels, 4, AccessPath::Direct, 6);
        l.start_epoch();
        assert!(l.next_batch().is_some());
        let path = dir.join("part_1").join("hop_1.ppgt");
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        let mut emitted = 1;
        while l.next_batch().is_some() {
            emitted += 1;
        }
        assert!(emitted < l.num_batches(), "epoch should end early");
        assert!(
            l.take_error().is_some(),
            "error must surface to the trainer"
        );
        // Latched until the next start_epoch.
        assert!(l.try_next_batch().is_err());
        l.start_epoch();
        assert!(l.take_error().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epochs_reshuffle_the_partition_chunk_order() {
        let (store, dir) = build("shuffle", 64, 0, 4, 2);
        let labels = vec![0u32; 64];
        let mut l = ShardedStorageChunkLoader::new(store, labels, 64, AccessPath::Direct, 4);
        l.start_epoch();
        let e1 = l.next_batch().unwrap().indices;
        l.start_epoch();
        let e2 = l.next_batch().unwrap().indices;
        assert_ne!(e1, e2);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
