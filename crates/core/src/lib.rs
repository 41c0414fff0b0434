//! The pre-propagation GNN training system.
//!
//! This crate implements the paper's primary contribution — a training
//! pipeline for PP-GNNs whose data loading is engineered rather than
//! inherited from a generic framework loader:
//!
//! * [`preprocess`] — the one-time feature pre-propagation of Eq. 2
//!   (`S_k = {X, B_k X, …, B_k^R X}`) through one driver, with
//!   labeled-subset retention (the papers100M 70× input shrink) and
//!   input-expansion accounting (Section 3.4). The partition count picks
//!   the engine: at `P = 1` node-range shard×operator tasks overlap
//!   operator passes on the worker pool; at `P > 1` the graph is cut into
//!   disjoint node partitions diffused with per-hop ghost-row exchange
//!   (`ppgnn-partition`) — bit-identical results at any `P`. The entry
//!   point picks the sink: in memory (`run`), one feature store
//!   (`run_with_store`), or one store per partition
//!   (`run_with_sharded_store`), each fed through async writers so hop
//!   `r + 1` diffusion overlaps hop `r` I/O;
//! * [`loader`] — the four data-loader generations of Section 4, all
//!   yielding *identical* batch streams for a fixed seed (a property the
//!   integration tests pin down):
//!   baseline per-row assembly → fused gather → threaded double-buffer
//!   prefetching → chunk reshuffling, plus the one storage-backed chunk
//!   loader of Section 4.3 over a single or a sharded store — and the
//!   generations compose: the double-buffer producer thread runs any
//!   [`loader::BatchSource`], in-memory or storage-backed;
//! * [`trainer`] — SGD-RR / SGD-CR training loops with per-phase timing
//!   (the functional-plane source of Figure 5) and convergence tracking
//!   (Figures 3/10/13);
//! * [`autoconf`] — the automated training-configuration system of
//!   Section 5 (placement + method from hardware capacities and input
//!   size);
//! * [`bridge`] — adapters that turn measured workloads into
//!   `ppgnn-memsim` descriptors at paper scale (the performance plane).
//!
//! # Quickstart
//!
//! ```
//! use ppgnn_core::preprocess::Preprocessor;
//! use ppgnn_core::trainer::{TrainConfig, Trainer};
//! use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
//! use ppgnn_graph::Operator;
//! use ppgnn_models::Sign;
//! use rand::SeedableRng;
//!
//! let data = SynthDataset::generate(DatasetProfile::products_sim().scaled(0.01), 7)?;
//! let prep = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut model = Sign::new(2, data.profile.feature_dim, 32, data.profile.num_classes, 0.1, &mut rng);
//! let mut trainer = Trainer::new(TrainConfig { epochs: 3, ..TrainConfig::default() });
//! let report = trainer.fit(&mut model, &prep)?;
//! assert!(report.epochs_run == 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

pub mod autoconf;
pub mod bridge;
pub mod loader;
pub mod persist;
pub mod preprocess;
pub mod sweep;
pub mod trainer;

pub use autoconf::{AutoConfig, Method, TrainingPlan};
pub use loader::{Loader, PpBatch};
pub use preprocess::{
    ExpansionReport, PrepTelemetry, Preprocessor, PrepropFeatures, PrepropOutput,
};
pub use trainer::{ConvergenceTracker, EpochStats, TrainConfig, TrainReport, Trainer};

/// Fisher–Yates shuffle shared by the MP-GNN training loop.
pub(crate) fn loader_shuffle<T>(items: &mut [T], rng: &mut rand::rngs::StdRng) {
    use rand::Rng;
    for i in (1..items.len()).rev() {
        let j = rng.random_range(0..=i);
        items.swap(i, j);
    }
}
