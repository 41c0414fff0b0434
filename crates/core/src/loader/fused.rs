use std::sync::Arc;

use ppgnn_dataio::DataIoError;
use ppgnn_tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::loader::{permutation, BatchSource, Loader, LoaderCounters, PpBatch};
use crate::preprocess::PrepropFeatures;

/// Generation 1: efficient batch assembly (first half of Section 4.1).
///
/// One fused index-gather **per hop per batch**, straight into the
/// batch's own hop matrices, instead of one copy per row. The counter
/// difference against [`crate::loader::BaselineLoader`] —
/// `hops + 1` ops per batch versus `batch_size × (hops + 1)` — is exactly
/// the kernel-launch saving the paper measures as a 3.3× speedup.
///
/// It is also the in-memory [`BatchSource`] that
/// [`crate::loader::DoubleBufferLoader::new`] runs on its producer thread.
#[derive(Debug)]
pub struct FusedGatherLoader {
    data: Arc<PrepropFeatures>,
    batch_size: usize,
    rng: StdRng,
    order: Vec<usize>,
    cursor: usize,
    counters: LoaderCounters,
}

impl FusedGatherLoader {
    /// Creates a fused-gather loader.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0` or `data` is empty.
    pub fn new(data: Arc<PrepropFeatures>, batch_size: usize, seed: u64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        assert!(!data.is_empty(), "cannot iterate an empty partition");
        FusedGatherLoader {
            data,
            batch_size,
            rng: StdRng::seed_from_u64(seed),
            order: Vec::new(),
            cursor: 0,
            counters: LoaderCounters::default(),
        }
    }
}

impl Loader for FusedGatherLoader {
    fn start_epoch(&mut self) {
        self.order = permutation(self.data.len(), &mut self.rng);
        self.cursor = 0;
    }

    fn next_batch(&mut self) -> Option<PpBatch> {
        if self.cursor >= self.order.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.order.len());
        let indices = self.order[self.cursor..end].to_vec();
        self.cursor = end;

        let f = self.data.hops[0].cols();
        let mut hops = Vec::with_capacity(self.data.hops.len());
        for src in &self.data.hops {
            let mut hop = Matrix::zeros(indices.len(), f);
            src.gather_rows_into(&indices, &mut hop);
            self.counters.gather_ops += 1;
            self.counters.bytes_assembled += (indices.len() * f * 4) as u64;
            hops.push(hop);
        }
        let labels = indices.iter().map(|&i| self.data.labels[i]).collect();
        self.counters.batches += 1;
        Some(PpBatch {
            indices,
            hops,
            labels,
        })
    }

    fn num_batches(&self) -> usize {
        self.data.len().div_ceil(self.batch_size)
    }

    fn counters(&self) -> LoaderCounters {
        self.counters
    }

    fn name(&self) -> &'static str {
        "fused-gather"
    }
}

impl BatchSource for FusedGatherLoader {
    fn begin_epoch(&mut self) {
        Loader::start_epoch(self)
    }

    fn try_next(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        Ok(Loader::next_batch(self))
    }

    fn batches_per_epoch(&self) -> usize {
        Loader::num_batches(self)
    }

    fn source_counters(&self) -> LoaderCounters {
        Loader::counters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::tests_support::tiny_features;
    use crate::loader::BaselineLoader;

    #[test]
    fn identical_stream_to_baseline_for_equal_seed() {
        let data = Arc::new(tiny_features(31, 2, 3));
        let mut a = BaselineLoader::new(data.clone(), 7, 42);
        let mut b = FusedGatherLoader::new(data, 7, 42);
        a.start_epoch();
        b.start_epoch();
        loop {
            match (a.next_batch(), b.next_batch()) {
                (None, None) => break,
                (Some(x), Some(y)) => {
                    assert_eq!(x.indices, y.indices);
                    assert_eq!(x.labels, y.labels);
                    for (hx, hy) in x.hops.iter().zip(&y.hops) {
                        assert_eq!(hx, hy);
                    }
                }
                _ => panic!("loaders disagree on batch count"),
            }
        }
    }

    #[test]
    fn issues_one_op_per_hop_per_batch() {
        let data = Arc::new(tiny_features(20, 3, 2));
        let mut l = FusedGatherLoader::new(data, 10, 0);
        l.start_epoch();
        while l.next_batch().is_some() {}
        let c = l.counters();
        assert_eq!(c.batches, 2);
        assert_eq!(c.gather_ops, 2 * 4); // batches × (hops+1)
    }

    #[test]
    fn partial_tail_batch_has_correct_rows() {
        let data = Arc::new(tiny_features(11, 1, 2));
        let mut l = FusedGatherLoader::new(data, 4, 1);
        l.start_epoch();
        let sizes: Vec<usize> = std::iter::from_fn(|| l.next_batch().map(|b| b.len())).collect();
        assert_eq!(sizes, vec![4, 4, 3]);
    }
}
