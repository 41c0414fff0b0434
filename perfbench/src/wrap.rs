//! Timing wrappers that sit between the benchmark and the layers it
//! drives: [`TimedModel`] implements `PpModel` by delegating to the real
//! model, so `Trainer::fit` can be timed from outside; [`TimedSource`]
//! implements `BatchSource` by delegating to a storage loader, so the
//! producer side of the double buffer can be timed on its own thread.
//! Neither changes what the wrapped layer computes (pinned by the tests
//! below).

use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ppgnn_core::loader::{BatchSource, LoaderCounters, ShardedStorageChunkLoader};
use ppgnn_core::loader::{PpBatch, StorageChunkLoader};
use ppgnn_dataio::{DataIoError, IoCounters};
use ppgnn_models::PpModel;
use ppgnn_nn::{Mode, Param};
use ppgnn_tensor::Matrix;

use crate::spans;

/// What [`TimedModel`] measured.
#[derive(Debug, Clone, Default)]
pub struct ModelTimes {
    /// Seconds in train-mode forwards.
    pub fwd_train_s: f64,
    /// Seconds in eval-mode forwards.
    pub fwd_eval_s: f64,
    /// Seconds in backward passes.
    pub bwd_s: f64,
    /// Rows forwarded in train mode.
    pub train_rows: u64,
    /// Rows forwarded in eval mode.
    pub eval_rows: u64,
    /// Per-batch gaps, seconds, between the optimizer taking the
    /// parameters and the next train-mode forward: the optimizer step plus
    /// the wait for the next batch. The first batch of each epoch follows
    /// an evaluation and is not sampled.
    pub step_gaps_s: Vec<f64>,
}

/// A `PpModel` that times every call into the model it wraps.
pub struct TimedModel<'m> {
    inner: &'m mut dyn PpModel,
    times: ModelTimes,
    params_taken: Option<Instant>,
}

impl<'m> TimedModel<'m> {
    /// Wraps `inner`.
    pub fn new(inner: &'m mut dyn PpModel) -> Self {
        TimedModel {
            inner,
            times: ModelTimes::default(),
            params_taken: None,
        }
    }

    /// The measurements so far.
    pub fn times(&self) -> &ModelTimes {
        &self.times
    }
}

impl PpModel for TimedModel<'_> {
    fn forward(&mut self, hops: &[Matrix], mode: Mode) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(hops, mode, &mut out);
        out
    }

    fn forward_into(&mut self, hops: &[Matrix], mode: Mode, out: &mut Matrix) {
        let t0 = Instant::now();
        let rows = hops.first().map_or(0, |h| h.rows()) as u64;
        match mode {
            Mode::Train => {
                if let Some(taken) = self.params_taken.take() {
                    self.times.step_gaps_s.push((t0 - taken).as_secs_f64());
                }
                let _s = spans::span("nn.fwd_train");
                self.inner.forward_into(hops, mode, out);
                self.times.fwd_train_s += t0.elapsed().as_secs_f64();
                self.times.train_rows += rows;
            }
            Mode::Eval => {
                self.params_taken = None;
                let _s = spans::span("nn.fwd_eval");
                self.inner.forward_into(hops, mode, out);
                self.times.fwd_eval_s += t0.elapsed().as_secs_f64();
                self.times.eval_rows += rows;
            }
        }
    }

    fn backward(&mut self, grad_out: &Matrix) {
        let t0 = Instant::now();
        let _s = spans::span("nn.bwd");
        self.inner.backward(grad_out);
        self.times.bwd_s += t0.elapsed().as_secs_f64();
    }

    fn params(&mut self) -> Vec<&mut Param> {
        self.params_taken = Some(Instant::now());
        self.inner.params()
    }

    fn zero_grad(&mut self) {
        let t0 = Instant::now();
        let _s = spans::span("nn.zero_grad");
        self.inner.zero_grad();
        self.times.bwd_s += t0.elapsed().as_secs_f64();
    }

    fn num_hops(&self) -> usize {
        self.inner.num_hops()
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn flops_per_example(&self) -> u64 {
        self.inner.flops_per_example()
    }

    fn num_params(&mut self) -> usize {
        self.inner.num_params()
    }
}

/// A batch source whose store reads can be counted.
pub trait StoreBacked {
    /// Cumulative I/O counters of the underlying store(s).
    fn io(&self) -> IoCounters;
}

impl StoreBacked for StorageChunkLoader {
    fn io(&self) -> IoCounters {
        self.io_counters()
    }
}

impl StoreBacked for ShardedStorageChunkLoader {
    fn io(&self) -> IoCounters {
        self.io_counters()
    }
}

/// What [`TimedSource`] measured on the producer thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct SourceTimes {
    /// Seconds inside `try_next`.
    pub busy_s: f64,
    /// Batches yielded.
    pub batches: u64,
    /// Loader counters at the end of the last finished epoch.
    pub counters: LoaderCounters,
    /// Store I/O counters at the end of the last finished epoch.
    pub io: IoCounters,
}

/// A `BatchSource` that times the source it wraps. Its measurements live
/// behind a shared handle ([`TimedSource::times`]) because the source
/// itself moves into the double buffer's producer thread.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    times: Arc<Mutex<SourceTimes>>,
}

impl<S: BatchSource + StoreBacked> TimedSource<S> {
    /// Wraps `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            times: Arc::default(),
        }
    }

    /// Shared handle to the measurements.
    pub fn times(&self) -> Arc<Mutex<SourceTimes>> {
        Arc::clone(&self.times)
    }
}

impl<S: BatchSource + StoreBacked> BatchSource for TimedSource<S> {
    fn begin_epoch(&mut self) {
        self.inner.begin_epoch();
    }

    fn try_next(&mut self) -> Result<Option<PpBatch>, DataIoError> {
        let t0 = Instant::now();
        let out = {
            let _s = spans::span("dataio.source.try_next");
            self.inner.try_next()
        };
        let busy = t0.elapsed().as_secs_f64();
        // Plain counters, valid after every update: a poisoned lock is
        // recovered.
        let mut t = self.times.lock().unwrap_or_else(PoisonError::into_inner);
        t.busy_s += busy;
        match &out {
            Ok(Some(_)) => t.batches += 1,
            Ok(None) => {
                t.counters = self.inner.source_counters();
                t.io = self.inner.io();
            }
            Err(_) => {}
        }
        out
    }

    fn batches_per_epoch(&self) -> usize {
        self.inner.batches_per_epoch()
    }

    fn source_counters(&self) -> LoaderCounters {
        self.inner.source_counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppgnn_core::loader::{DoubleBufferLoader, Loader};
    use ppgnn_core::preprocess::Preprocessor;
    use ppgnn_core::trainer::{TrainConfig, TrainReport, Trainer};
    use ppgnn_dataio::{AccessPath, FeatureStore, StoreDtype};
    use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
    use ppgnn_graph::Operator;
    use ppgnn_models::Sign;
    use rand::SeedableRng;

    fn tiny() -> SynthDataset {
        SynthDataset::generate(DatasetProfile::products_sim().scaled(0.02), 3)
            .expect("tiny dataset generates")
    }

    fn fit(wrap: bool) -> (TrainReport, Option<ModelTimes>) {
        let data = tiny();
        let prep = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let p = &data.profile;
        let mut model = Sign::new(2, p.feature_dim, 16, p.num_classes, 0.1, &mut rng);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 3,
            batch_size: 64,
            lr: 0.01,
            seed: 5,
            ..TrainConfig::default()
        });
        if wrap {
            let mut timed = TimedModel::new(&mut model);
            let report = trainer.fit(&mut timed, &prep).expect("fit succeeds");
            let times = timed.times().clone();
            (report, Some(times))
        } else {
            (trainer.fit(&mut model, &prep).expect("fit succeeds"), None)
        }
    }

    #[test]
    fn timed_model_leaves_fit_unchanged() {
        let (bare, _) = fit(false);
        let (timed, times) = fit(true);
        assert_eq!(bare.history.len(), timed.history.len());
        for (a, b) in bare.history.iter().zip(&timed.history) {
            assert_eq!(a.train_loss.to_bits(), b.train_loss.to_bits());
            assert_eq!(a.val_acc.to_bits(), b.val_acc.to_bits());
        }
        assert_eq!(bare.test_acc.to_bits(), timed.test_acc.to_bits());
        let times = times.expect("wrapped run reports timings");
        assert!(times.train_rows > 0 && times.eval_rows > 0);
        assert!(times.fwd_train_s > 0.0 && times.bwd_s > 0.0);
    }

    fn stream(dir: &std::path::Path, labels: &[u32], wrap: bool) -> Vec<PpBatch> {
        let store = FeatureStore::open(dir).expect("store opens");
        let source = StorageChunkLoader::new(store, labels.to_vec(), 48, AccessPath::Direct, 9);
        let (mut loader, times) = if wrap {
            let timed = TimedSource::new(source);
            let times = timed.times();
            (
                DoubleBufferLoader::over_source(Box::new(timed)),
                Some(times),
            )
        } else {
            (DoubleBufferLoader::over_source(Box::new(source)), None)
        };
        let mut out = Vec::new();
        for _ in 0..2 {
            loader.start_epoch();
            while let Some(b) = loader.next_batch() {
                out.push(b);
            }
            assert!(loader.take_error().is_none());
        }
        if let Some(times) = times {
            let t = *times.lock().expect("not poisoned");
            assert_eq!(t.batches as usize, out.len());
            assert!(t.io.seq_requests > 0);
        }
        out
    }

    #[test]
    fn timed_source_yields_the_same_batch_stream() {
        let data = tiny();
        let dir = std::env::temp_dir().join(format!("perfbench-wrap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (prep, _store) = Preprocessor::new(vec![Operator::SymNorm], 2)
            .with_store_dtype(StoreDtype::F32)
            .run_with_store(&data, &dir, "tiny", 32)
            .expect("store written");
        let labels = prep.train.labels.clone();
        let bare = stream(&dir, &labels, false);
        let timed = stream(&dir, &labels, true);
        std::fs::remove_dir_all(&dir).expect("temp store removed");
        assert!(!bare.is_empty());
        assert_eq!(bare, timed);
    }
}
