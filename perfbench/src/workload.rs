//! The three workloads and one run of the pipeline each drives: set-up
//! (pre-propagation, plus store write and loader construction where a
//! store is used), training, and evaluation.
//!
//! Training is a closed loop with one client, the trainer thread: it asks
//! for the next batch only after the current step finishes.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use ppgnn_core::loader::{
    DoubleBufferLoader, Loader, ShardedStorageChunkLoader, StorageChunkLoader,
};
use ppgnn_core::preprocess::{ExpansionReport, Preprocessor};
use ppgnn_core::trainer::{evaluate, LoaderKind, OptKind, TrainConfig, Trainer};
use ppgnn_dataio::{AccessPath, FeatureStore, ShardedFeatureStore, StoreDtype};
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;
use ppgnn_models::{PpModel, Sgc, Sign};
use ppgnn_nn::{Adam, CrossEntropyLoss, Mode, Optimizer};
use ppgnn_tensor::Matrix;
use rand::SeedableRng;

use crate::checks;
use crate::spans::span;
use crate::wrap::{ModelTimes, SourceTimes, TimedModel, TimedSource};

/// Name of the span around one whole pipeline run; the layers' spans
/// nest under it.
pub const PIPELINE_SPAN: &str = "pipeline";

/// The model a workload trains.
#[derive(Debug, Clone, Copy)]
pub enum ModelKind {
    /// SIGN with the given hidden width.
    Sign {
        /// Hidden width of every branch and of the head.
        hidden: usize,
    },
    /// SGC (one linear layer on the deepest hop).
    Sgc,
}

/// Where the training partition lives while the model trains.
#[derive(Debug, Clone, Copy)]
pub enum StoreKind {
    /// In memory, through `Trainer::fit`.
    Memory,
    /// One feature store read by `StorageChunkLoader`.
    Single {
        /// Element encoding on disk.
        dtype: StoreDtype,
    },
    /// Per-partition stores read by `ShardedStorageChunkLoader`.
    Sharded {
        /// Element encoding on disk.
        dtype: StoreDtype,
        /// Graph partitions (one store each).
        partitions: usize,
    },
}

/// One benchmark workload. Every knob is pinned here and passed through
/// builder methods, never through the environment.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line.
    pub name: &'static str,
    /// Dataset profile before scaling.
    pub profile: fn() -> DatasetProfile,
    /// Profile scale factor.
    pub scale: f64,
    /// Diffusion operators `B_1..B_K`.
    pub operators: Vec<Operator>,
    /// Hops `R`.
    pub hops: usize,
    /// Model trained on the hops.
    pub model: ModelKind,
    /// Training and evaluation batch size.
    pub batch: usize,
    /// Epochs per run.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Where the training partition is read from.
    pub store: StoreKind,
    /// Rows per store chunk.
    pub chunk: usize,
    /// Async hop-writer queue depth.
    pub writer_queue: usize,
    /// Validation accuracy whose first epoch ends `time_to_target_s`. Set
    /// well inside the gap between two epochs' accuracies over many seeds,
    /// so the target falls on the same epoch whatever the seed.
    pub target_val: f64,
}

/// Every workload, by name.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "products-sign-mem",
            profile: DatasetProfile::products_sim,
            scale: 2.0,
            operators: vec![Operator::SymNorm],
            hops: 3,
            model: ModelKind::Sign { hidden: 256 },
            batch: 1024,
            epochs: 3,
            lr: 0.01,
            store: StoreKind::Memory,
            chunk: 256,
            writer_queue: 2,
            target_val: 0.5,
        },
        Workload {
            name: "igb-sgc-store",
            profile: DatasetProfile::igb_medium_sim,
            scale: 0.5,
            operators: vec![Operator::SymNorm],
            hops: 3,
            model: ModelKind::Sgc,
            batch: 1024,
            epochs: 5,
            lr: 0.01,
            store: StoreKind::Single {
                dtype: StoreDtype::F32,
            },
            chunk: 256,
            writer_queue: 2,
            target_val: 0.8,
        },
        Workload {
            name: "papers-sign-sharded-int8",
            profile: DatasetProfile::papers100m_sim,
            scale: 1.5,
            operators: vec![Operator::SymNorm, Operator::RowNorm],
            hops: 3,
            model: ModelKind::Sign { hidden: 256 },
            batch: 256,
            epochs: 4,
            lr: 0.01,
            store: StoreKind::Sharded {
                dtype: StoreDtype::Int8,
                partitions: 2,
            },
            chunk: 256,
            writer_queue: 2,
            target_val: 0.45,
        },
    ]
}

impl Workload {
    /// Generates the workload's dataset from `seed`.
    ///
    /// # Errors
    ///
    /// The generator's error, as text.
    pub fn dataset(&self, seed: u64) -> Result<SynthDataset, String> {
        SynthDataset::generate((self.profile)().scaled(self.scale), seed)
            .map_err(|e| format!("dataset generation: {e}"))
    }

    /// Model input width `K·F`.
    pub fn input_dim(&self, data: &SynthDataset) -> usize {
        self.operators.len() * data.profile.feature_dim
    }

    /// A freshly initialised model; the init depends only on `seed`.
    pub fn build_model(&self, data: &SynthDataset, seed: u64) -> Box<dyn PpModel> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5EED);
        let (f, c) = (self.input_dim(data), data.profile.num_classes);
        match self.model {
            ModelKind::Sign { hidden } => {
                Box::new(Sign::new(self.hops, f, hidden, c, 0.1, &mut rng))
            }
            ModelKind::Sgc => Box::new(Sgc::new(self.hops, f, c, &mut rng)),
        }
    }

    /// The `(m, k, n)` of the model's largest GEMM (by `k·n`) at the
    /// training batch size.
    pub fn largest_gemm(&self, data: &SynthDataset) -> (usize, usize, usize) {
        let (f, c) = (self.input_dim(data), data.profile.num_classes);
        let layers = match self.model {
            ModelKind::Sign { hidden } => {
                vec![(f, hidden), ((self.hops + 1) * hidden, hidden), (hidden, c)]
            }
            ModelKind::Sgc => vec![(f, c)],
        };
        let (k, n) = layers.into_iter().fold((0, 0), |best, (k, n)| {
            if k * n > best.0 * best.1 {
                (k, n)
            } else {
                best
            }
        });
        (self.batch, k, n)
    }

    /// The pre-propagation stage with every knob pinned.
    pub fn preprocessor(&self) -> Preprocessor {
        let (dtype, partitions) = match self.store {
            StoreKind::Memory => (StoreDtype::F32, 1),
            StoreKind::Single { dtype } => (dtype, 1),
            StoreKind::Sharded { dtype, partitions } => (dtype, partitions),
        };
        Preprocessor::new(self.operators.clone(), self.hops)
            .with_store_dtype(dtype)
            .with_num_partitions(partitions)
            .with_writer_queue(self.writer_queue)
    }

    /// Partitions the store layer is split into.
    pub fn partitions(&self) -> usize {
        match self.store {
            StoreKind::Sharded { partitions, .. } => partitions,
            _ => 1,
        }
    }
}

/// One epoch of a run.
#[derive(Debug, Clone, Copy)]
pub struct EpochRec {
    /// Mean training loss.
    pub loss: f64,
    /// Validation accuracy after the epoch.
    pub val_acc: f64,
    /// Wall seconds of the epoch, its evaluation included.
    pub wall_s: f64,
}

/// Everything one run of the pipeline measured.
#[derive(Debug, Clone, Default)]
pub struct RepResult {
    /// Set-up + training + evaluation, seconds.
    pub run_s: f64,
    /// Until the first batch can be requested, seconds.
    pub setup_s: f64,
    /// The pre-propagation call alone (store write included), seconds.
    pub preprocess_s: f64,
    /// Loader wait + forward + loss + backward + optimizer step, seconds.
    pub train_loop_s: f64,
    /// Rows trained on.
    pub train_rows: u64,
    /// Per epoch.
    pub epochs: Vec<EpochRec>,
    /// Evaluation wall seconds (validation every epoch, test).
    pub eval_s: f64,
    /// Seconds blocked waiting for batches.
    pub wait_s: f64,
    /// Per-batch waits, seconds.
    pub wait_samples: Vec<f64>,
    /// Forward (with the loss) seconds.
    pub fwd_s: f64,
    /// Backward seconds (gradient zeroing included).
    pub bwd_s: f64,
    /// Optimizer-step seconds.
    pub optim_s: f64,
    /// Timings of the model wrapper.
    pub model: ModelTimes,
    /// Producer-side timings (store workloads only).
    pub source: Option<SourceTimes>,
    /// Final test accuracy.
    pub test_acc: f64,
    /// Pre-propagation accounting.
    pub expansion: Option<ExpansionReport>,
    /// Physical bytes of the written store.
    pub store_bytes: u64,
    /// Logical (f32) bytes of the written store.
    pub store_logical_bytes: u64,
    /// Operations attempted: batches, hop writes, correctness checks.
    pub attempted: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
}

impl RepResult {
    /// Set-up plus the epochs up to the first that reaches `target`.
    pub fn time_to_target(&self, target: f64) -> Option<f64> {
        let mut t = self.setup_s;
        for e in &self.epochs {
            t += e.wall_s;
            if e.val_acc >= target {
                return Some(t);
            }
        }
        None
    }
}

/// A store directory under the working directory: created fresh (a
/// leftover journal would make pre-propagation resume and skip hop
/// writes) and removed when dropped.
pub struct StoreDir(PathBuf);

impl StoreDir {
    /// Reserves `<root>/<tag>` and clears any leftover there.
    pub fn fresh(root: &Path, tag: &str) -> std::io::Result<Self> {
        std::fs::create_dir_all(root)?;
        let dir = root.join(tag);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        Ok(StoreDir(dir))
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs the workload's pipeline once on `data` and checks its outputs
/// (the checks run after the timed part).
pub fn run_once(w: &Workload, data: &SynthDataset, seed: u64, work: &Path, rep: u32) -> RepResult {
    let mut res = RepResult::default();
    let mut model = w.build_model(data, seed);
    match w.store {
        StoreKind::Memory => run_memory(w, data, seed, &mut *model, &mut res),
        StoreKind::Single { .. } | StoreKind::Sharded { .. } => {
            let dir =
                match StoreDir::fresh(work, &format!("{}-{}-{rep}", w.name, std::process::id())) {
                    Ok(d) => d,
                    Err(e) => {
                        res.attempted += 1;
                        res.failures.push(format!("store directory: {e}"));
                        return res;
                    }
                };
            run_store(w, data, seed, &mut *model, &mut res, dir.path());
        }
    }
    res
}

/// `products-sign-mem`: in-memory pre-propagation, then `Trainer::fit`
/// with the in-memory double-buffer loader.
fn run_memory(
    w: &Workload,
    data: &SynthDataset,
    seed: u64,
    model: &mut dyn PpModel,
    res: &mut RepResult,
) {
    let rep_span = span(PIPELINE_SPAN);
    let t0 = Instant::now();
    let out = {
        let _s = span("setup");
        let _p = span("core.preprocess");
        w.preprocessor().run(data)
    };
    res.setup_s = t0.elapsed().as_secs_f64();
    res.preprocess_s = res.setup_s;
    let mut trainer = Trainer::new(TrainConfig {
        epochs: w.epochs,
        batch_size: w.batch,
        loader: LoaderKind::DoubleBuffer,
        lr: w.lr,
        optimizer: OptKind::Adam { weight_decay: 0.0 },
        seed,
    });
    let mut timed = TimedModel::new(model);
    let fit = {
        let _s = span("core.trainer.fit");
        trainer.fit(&mut timed, &out)
    };
    res.run_s = t0.elapsed().as_secs_f64();
    drop(rep_span);
    res.model = timed.times().clone();
    res.attempted += 1;
    let report = match fit {
        Ok(r) => r,
        Err(e) => {
            res.failures.push(format!("Trainer::fit: {e}"));
            return;
        }
    };
    for e in &report.history {
        let loop_s = e.loading_s + e.forward_s + e.backward_s + e.optim_s;
        res.train_loop_s += loop_s;
        res.eval_s += e.total_s - loop_s;
        res.wait_s += e.loading_s;
        res.fwd_s += e.forward_s;
        res.bwd_s += e.backward_s;
        res.optim_s += e.optim_s;
        res.epochs.push(EpochRec {
            loss: e.train_loss,
            val_acc: e.val_acc,
            wall_s: e.total_s,
        });
    }
    res.train_rows = res.model.train_rows;
    // Per-batch waits are the gaps the model wrapper saw between the
    // optimizer taking the parameters and the next forward.
    res.wait_samples = res.model.step_gaps_s.clone();
    res.test_acc = report.test_acc;
    res.expansion = Some(out.expansion.clone());

    // Checks, outside the timed part.
    res.attempted += 1;
    if let Err(e) = checks::in_memory_loader_covers_rows(&out, w.batch, seed) {
        res.failures.push(e);
    }
}

/// The store a store workload's pre-propagation wrote.
enum Written {
    Single(FeatureStore),
    Sharded(ShardedFeatureStore),
}

/// The store workloads: pre-propagation writes the training partition
/// through to a (sharded) feature store, and the benchmark's own loop
/// trains from it through a storage loader behind the double buffer.
fn run_store(
    w: &Workload,
    data: &SynthDataset,
    seed: u64,
    model: &mut dyn PpModel,
    res: &mut RepResult,
    dir: &Path,
) {
    let rep_span = span(PIPELINE_SPAN);
    let t0 = Instant::now();
    let hop_writes = ((w.hops + 1) * w.partitions()) as u64;
    res.attempted += hop_writes;
    let setup = span("setup");
    let built = {
        let _p = span("core.preprocess");
        match w.store {
            StoreKind::Sharded { .. } => w
                .preprocessor()
                .run_with_sharded_store(data, dir, w.name, w.chunk)
                .map(|(out, store)| (out, Written::Sharded(store))),
            _ => w
                .preprocessor()
                .run_with_store(data, dir, w.name, w.chunk)
                .map(|(out, store)| (out, Written::Single(store))),
        }
    };
    res.preprocess_s = t0.elapsed().as_secs_f64();
    let (out, store) = match built {
        Ok(b) => b,
        Err(e) => {
            res.failures
                .push(format!("pre-propagation with store: {e}"));
            return;
        }
    };
    let labels = out.train.labels.clone();
    let (mut loader, times): (DoubleBufferLoader, Arc<Mutex<SourceTimes>>) = {
        let _l = span("core.loader.build");
        match store {
            Written::Single(single) => {
                res.store_bytes = single.meta().physical_bytes();
                res.store_logical_bytes = single.meta().total_bytes();
                let src = TimedSource::new(StorageChunkLoader::new(
                    single,
                    labels,
                    w.batch,
                    AccessPath::Direct,
                    seed,
                ));
                let t = src.times();
                (DoubleBufferLoader::over_source(Box::new(src)), t)
            }
            Written::Sharded(sharded) => {
                for p in 0..sharded.num_partitions() {
                    res.store_bytes += sharded.partition_meta(p).physical_bytes();
                    res.store_logical_bytes += sharded.partition_meta(p).total_bytes();
                }
                let src = TimedSource::new(ShardedStorageChunkLoader::new(
                    sharded,
                    labels,
                    w.batch,
                    AccessPath::Direct,
                    seed,
                ));
                let t = src.times();
                (DoubleBufferLoader::over_source(Box::new(src)), t)
            }
        }
    };
    drop(setup);
    res.setup_s = t0.elapsed().as_secs_f64();

    let mut opt = Adam::with_options(w.lr, 0.9, 0.999, 1e-8, 0.0);
    let loss_fn = CrossEntropyLoss;
    let mut timed = TimedModel::new(model);
    let mut logits = Matrix::default();
    let mut seen = vec![0u32; out.train.len()];
    for epoch in 0..w.epochs {
        let _e = span("train.epoch");
        let ep_t0 = Instant::now();
        let (mut loss_sum, mut batches) = (0.0f64, 0usize);
        loader.start_epoch();
        loop {
            let t = Instant::now();
            let next = {
                let _s = span("core.loader.next_batch");
                loader.try_next_batch()
            };
            let wait = t.elapsed().as_secs_f64();
            res.wait_s += wait;
            let batch = match next {
                Ok(Some(b)) => b,
                Ok(None) => break,
                Err(e) => {
                    res.attempted += 1;
                    res.failures.push(format!("epoch {epoch}: loader: {e}"));
                    break;
                }
            };
            res.wait_samples.push(wait);
            res.attempted += 1;
            let t = Instant::now();
            timed.forward_into(&batch.hops, Mode::Train, &mut logits);
            let (loss, grad) = {
                let _s = span("nn.loss");
                loss_fn.loss_and_grad(&logits, &batch.labels)
            };
            let t_fwd = t.elapsed().as_secs_f64();
            let t = Instant::now();
            timed.zero_grad();
            timed.backward(&grad);
            let t_bwd = t.elapsed().as_secs_f64();
            let t = Instant::now();
            {
                let _s = span("nn.optim_step");
                opt.step(&mut timed.params());
            }
            let t_opt = t.elapsed().as_secs_f64();
            res.fwd_s += t_fwd;
            res.bwd_s += t_bwd;
            res.optim_s += t_opt;
            res.train_loop_s += wait + t_fwd + t_bwd + t_opt;
            res.train_rows += batch.len() as u64;
            loss_sum += loss as f64;
            batches += 1;
            for &i in &batch.indices {
                if let Some(c) = seen.get_mut(i) {
                    *c += 1;
                }
            }
        }
        let t = Instant::now();
        let val_acc = {
            let _s = span("core.trainer.evaluate");
            evaluate(&mut timed, &out.val, w.batch)
        };
        res.eval_s += t.elapsed().as_secs_f64();
        res.epochs.push(EpochRec {
            loss: if batches > 0 {
                loss_sum / batches as f64
            } else {
                0.0
            },
            val_acc,
            wall_s: ep_t0.elapsed().as_secs_f64(),
        });
        res.attempted += 1;
        if let Err(e) = checks::each_row_once(&mut seen, epoch) {
            res.failures.push(e);
        }
    }
    let t = Instant::now();
    res.test_acc = {
        let _s = span("core.trainer.evaluate");
        evaluate(&mut timed, &out.test, w.batch)
    };
    res.eval_s += t.elapsed().as_secs_f64();
    res.run_s = t0.elapsed().as_secs_f64();
    drop(rep_span);
    drop(loader);
    res.model = timed.times().clone();
    res.source = Some(*times.lock().unwrap_or_else(PoisonError::into_inner));
    res.expansion = Some(out.expansion.clone());

    // Checks, outside the timed part.
    res.attempted += 1;
    if let Err(e) = checks::store_matches(w, dir, &out) {
        res.failures.push(e);
    }
}
