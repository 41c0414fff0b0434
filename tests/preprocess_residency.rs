//! Bounds the streaming preprocessor's peak memory residency.
//!
//! The pre-streaming `Preprocessor::run` materialized every hop of every
//! operator chain twice over (clone into the per-hop chain, then a third
//! copy through `hstack`) — ~`3·K·(R+1)` full-graph matrices at peak. The
//! streaming pipeline holds only per-operator ping-pong propagation
//! buffers (plus two diffusion-series term buffers for `Ppr`/`Heat`)
//! beyond the gathered partition outputs. The shard-scheduled engine runs
//! up to `g = ⌊(R+2)/2⌋` simple operators concurrently — `2g ≤ R + 2`
//! buffers plus the group's CSR bases — so concurrency never widens the
//! budget this suite pins with a tracking global allocator: peak transient
//! allocation during `run` must stay within `R + 3` full-graph matrices,
//! on top of the returned output and one materialized CSR operator
//! (the cap's spare matrix absorbs a group's extra bases).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ppgnn_core::preprocess::Preprocessor;
use ppgnn_graph::synth::{DatasetProfile, SynthDataset};
use ppgnn_graph::Operator;

/// System allocator wrapper tracking current and peak live bytes
/// process-wide, plus a per-thread allocation count (for the
/// kernel-scratch reuse assertions).
struct TrackingAlloc;

static CURRENT: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Allocations made by the current thread. Count-based tests read
    /// their own thread's count, so allocations by other threads of the
    /// process (the test harness, idle pool workers) never land in their
    /// window. `const`-initialised with no destructor, so touching it
    /// never allocates.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// Allocations the calling thread has made so far.
fn allocs() -> usize {
    ALLOCS.with(Cell::get)
}

// SAFETY: delegates allocation entirely to `System`; the added bookkeeping
// touches only atomics and never the returned memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    // SAFETY: `unsafe` by trait signature; the `GlobalAlloc` contract is
    // met by forwarding to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarding the caller's layout unchanged to `System`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let now = CURRENT.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(now, Ordering::Relaxed);
            // `try_with`: a thread being torn down has no slot left.
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
        ptr
    }

    // SAFETY: `unsafe` by trait signature; `ptr`/`layout` come from the
    // paired `alloc` and are forwarded to `System` unchanged.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        CURRENT.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: forwarding the caller's pointer and layout unchanged.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Serializes the tests in this binary: the residency counters are
/// process-global, so concurrent tests would inflate each other's peaks.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]. A failed test poisons the lock; the guard is still
/// taken, so one failure reports as one failure, not one per test.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Asserts a kernel's work stays at or below the parallel threshold, so
/// it runs on the calling thread and every allocation it makes is counted
/// by [`allocs`].
fn assert_serial_work(what: &str, work: usize) {
    let threshold = ppgnn_tensor::pool::parallel_threshold();
    assert!(
        work <= threshold,
        "{what}: {work} madds exceed the parallel threshold {threshold}; \
         pooled work would allocate on threads the count does not see"
    );
}

/// Resets the peak to the current level and returns the level.
fn reset_peak() -> usize {
    let now = CURRENT.load(Ordering::Relaxed);
    PEAK.store(now, Ordering::Relaxed);
    now
}

fn full_matrix_bytes(data: &SynthDataset) -> usize {
    data.graph.num_nodes() * data.profile.feature_dim * 4
}

/// CSR bytes of the materialized operator (indices u32 + weights f32 per
/// nnz, indptr usize per row) — resident during a pass, not a hop matrix.
fn csr_bytes(data: &SynthDataset) -> usize {
    let nnz = data.graph.num_edges() + data.graph.num_nodes(); // + self loops
    nnz * 8 + (data.graph.num_nodes() + 1) * 8
}

fn assert_residency_bound(operators: Vec<Operator>, hops: usize, num_shards: Option<usize>) {
    let _guard = serial();
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.05), 7)
        .expect("generation succeeds");
    let mut prep = Preprocessor::new(operators, hops);
    if let Some(shards) = num_shards {
        prep = prep.with_num_shards(shards);
    }
    let nf = full_matrix_bytes(&data);

    let before = reset_peak();
    let out = prep.run(&data);
    let peak_delta = PEAK.load(Ordering::Relaxed).saturating_sub(before);

    let output_bytes =
        (out.train.size_bytes() + out.val.size_bytes() + out.test.size_bytes()) as usize;
    // Outputs + (R+3) full-graph matrices + the CSR base + 25% slack for
    // labels/ids/allocator rounding. One operator pass at a time, so the
    // transient budget does not scale with K.
    let budget = output_bytes + (hops + 3) * nf + csr_bytes(&data) + output_bytes / 4 + nf / 4;
    assert!(
        peak_delta <= budget,
        "peak transient residency {peak_delta} B exceeds budget {budget} B \
         (outputs {output_bytes} B, full-graph matrix {nf} B, R={hops})"
    );
    // Sanity: the bound is meaningful — the old implementation's
    // 3·K·(R+1) chain would not fit it for these shapes.
    let k = out.expansion.num_operators;
    let old_peak_estimate = output_bytes + 3 * k * (hops + 1) * nf;
    assert!(
        old_peak_estimate > budget,
        "test would not have caught the pre-streaming implementation"
    );
}

#[test]
fn streaming_run_bounds_residency_single_operator() {
    assert_residency_bound(vec![Operator::SymNorm], 3, None);
}

#[test]
fn streaming_run_bounds_residency_two_operators() {
    assert_residency_bound(vec![Operator::SymNorm, Operator::RowNorm], 3, None);
}

#[test]
fn sharded_schedule_stays_inside_the_same_budget() {
    // Explicit shard count forces the concurrent shard×operator schedule
    // (auto mode may fall back to sequential on narrow machines): both
    // operators' ping-pong buffer pairs plus both CSR bases are live at
    // once, and the (R + 3)-matrix budget must still hold.
    assert_residency_bound(vec![Operator::SymNorm, Operator::RowNorm], 3, Some(4));
}

#[test]
fn linear_training_batches_reuse_scratch_with_bounded_allocations() {
    use ppgnn_nn::{Linear, Mode, Module};
    use ppgnn_tensor::Matrix;

    let _guard = serial();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(11)
    };
    let mut layer = Linear::new(64, 32, &mut rng);
    let x = Matrix::from_fn(256, 64, |r, c| ((r * 13 + c * 7) % 29) as f32 * 0.03 - 0.4);
    let g = Matrix::from_fn(256, 32, |r, c| ((r * 5 + c * 11) % 23) as f32 * 0.01 - 0.1);
    // Forward, ∂W and ∂X are each one 256×64×32 GEMM.
    assert_serial_work("Linear GEMM", 256 * 64 * 32);

    // Warm up the layer's scratch matrices and the thread-local GEMM
    // packing workspace — steady state is what training epochs live in.
    for _ in 0..3 {
        let y = layer.forward(&x, Mode::Train);
        let gx = layer.backward(&g);
        drop((y, gx));
    }

    let before = allocs();
    let batches = 20;
    for _ in 0..batches {
        let y = layer.forward(&x, Mode::Train);
        let gx = layer.backward(&g);
        drop((y, gx));
    }
    let per_batch = (allocs() - before).div_ceil(batches);

    // Expected steady state: three allocations — the returned forward
    // output, the bias-grad sum_rows temporary, and the returned input
    // gradient. The cached input, the ∂W product, and both GEMM packing
    // buffers are reused, and the serial GEMM path computes no row-block
    // bookkeeping. Bound of 6 leaves headroom for allocator-internal
    // noise while still failing if any scratch path regresses to
    // allocate-per-batch.
    assert!(
        per_batch <= 6,
        "Linear forward+backward allocated {per_batch} times per batch; \
         scratch reuse (cached input, ∂W buffer, pack workspace) has regressed"
    );
}

#[test]
fn sign_forward_into_train_step_reuses_buffers() {
    use ppgnn_models::{PpModel, Sign};
    use ppgnn_nn::Mode;
    use ppgnn_tensor::Matrix;

    let _guard = serial();
    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(17)
    };
    let mut model = Sign::new(2, 16, 32, 4, 0.1, &mut rng);
    let hops: Vec<Matrix> = (0..3)
        .map(|h| {
            Matrix::from_fn(128, 16, |r, c| {
                ((r * 13 + c * 7 + h) % 29) as f32 * 0.03 - 0.4
            })
        })
        .collect();
    let g = Matrix::from_fn(128, 4, |r, c| ((r * 5 + c * 11) % 23) as f32 * 0.01 - 0.1);
    let mut logits = Matrix::default();
    // Every GEMM multiplies the 128 batch rows by at most all weights.
    assert_serial_work("Sign GEMM", 128 * model.num_params());

    // Warm up every slot: model scratch, training caches (handed back by
    // backward), and the thread-local GEMM packing workspace.
    for _ in 0..3 {
        model.forward_into(&hops, Mode::Train, &mut logits);
        model.zero_grad();
        model.backward(&g);
    }

    let before = allocs();
    let batches = 20;
    let mut fwd_allocs = 0usize;
    for _ in 0..batches {
        let t0 = allocs();
        model.forward_into(&hops, Mode::Train, &mut logits);
        fwd_allocs += allocs() - t0;
        model.zero_grad();
        model.backward(&g);
    }
    let per_batch = (allocs() - before).div_ceil(batches);

    // `forward_into` itself is allocation-free in steady state: slots are
    // resized in place and training caches ping-pong back from backward.
    assert_eq!(
        fwd_allocs, 0,
        "train-mode forward_into allocated {fwd_allocs} times over {batches} batches; \
         a forward slot or training-cache ping-pong has regressed"
    );
    // The remaining per-batch allocations are backward's returned
    // gradient chain (hsplit pieces plus per-layer input gradients).
    assert!(
        per_batch <= 48,
        "Sign forward_into+backward allocated {per_batch} times per batch; \
         the backward gradient chain has regressed"
    );

    // Eval-mode forward_into is fully allocation-free once warm.
    for _ in 0..3 {
        model.forward_into(&hops, Mode::Eval, &mut logits);
    }
    let before = allocs();
    for _ in 0..batches {
        model.forward_into(&hops, Mode::Eval, &mut logits);
    }
    let eval_allocs = allocs() - before;
    assert_eq!(
        eval_allocs, 0,
        "eval forward_into allocated {eval_allocs} times over {batches} batches; \
         the zero-alloc forward path has regressed"
    );
}

#[test]
fn compressed_store_reads_are_allocation_free_once_warm() {
    use ppgnn_dataio::{AccessPath, FeatureStoreWriter, StoreDtype, StoreMeta};
    use ppgnn_tensor::Matrix;

    let _guard = serial();
    let dir = std::env::temp_dir().join(format!("ppgnn-resid-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Decoding the whole store is the most any read here touches.
    assert_serial_work("store decode", 3 * 64 * 24);
    for dtype in StoreDtype::ALL {
        let sub = dir.join(dtype.name());
        let meta = StoreMeta {
            dataset: "resid".into(),
            num_hops: 3,
            rows: 64,
            cols: 24,
            chunk_size: 16,
            dtype,
        };
        let mut w = FeatureStoreWriter::create(&sub, meta).unwrap();
        for k in 0..3 {
            let hop = Matrix::from_fn(64, 24, |r, c| ((k * 64 + r) * 24 + c) as f32 * 0.01 - 3.0);
            w.write_hop(k, &hop).unwrap();
        }
        let mut store = w.finish().unwrap();

        // Warm every slot: the caller-owned matrices, the store's encoded
        // staging buffer, and the all-hops vector.
        let mut chunk_slot = Matrix::default();
        let mut rows_slot = Matrix::default();
        let mut hop_slots = Vec::new();
        for _ in 0..2 {
            store
                .read_chunk_into(0, 1, AccessPath::Direct, &mut chunk_slot)
                .unwrap();
            store
                .read_rows_into(1, &[9, 3, 41], AccessPath::Direct, &mut rows_slot)
                .unwrap();
            store
                .read_chunk_all_hops_into(2, AccessPath::Direct, &mut hop_slots)
                .unwrap();
        }

        // Steady state: encoded bytes stage into reused scratch and decode
        // in place — the compressed paths may not allocate at all.
        let before = allocs();
        for round in 0..10 {
            store
                .read_chunk_into(round % 3, round % 4, AccessPath::Direct, &mut chunk_slot)
                .unwrap();
            store
                .read_rows_into(
                    round % 3,
                    &[9, 3, 41],
                    AccessPath::HostBounce,
                    &mut rows_slot,
                )
                .unwrap();
            store
                .read_chunk_all_hops_into(round % 4, AccessPath::Direct, &mut hop_slots)
                .unwrap();
        }
        let allocs = allocs() - before;
        assert_eq!(
            allocs, 0,
            "{dtype} steady-state reads allocated {allocs} times; \
             the scratch/slot reuse of the decode path has regressed"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disabled_telemetry_adds_no_allocations_to_hot_paths() {
    use ppgnn_graph::WeightedCsr;
    use ppgnn_models::{PpModel, Sign};
    use ppgnn_nn::Mode;
    use ppgnn_tensor::Matrix;

    static PROBE_COUNTER: ppgnn_telemetry::Counter = ppgnn_telemetry::Counter::new("test.probe");
    static PROBE_HIST: ppgnn_telemetry::Histogram =
        ppgnn_telemetry::Histogram::new("test.probe_ns");

    let _guard = serial();
    // The PPGNN_TRACE=0 contract: every instrumentation site the pipeline
    // hot paths pass through — span guards in SpMM/preprocess/trainer,
    // counter adds in GEMM dispatch, histogram records per batch — must
    // cost one relaxed atomic load and zero allocations when tracing is
    // off. This is the runtime twin of the `telemetry_span` lint.
    ppgnn_telemetry::set_enabled(false);

    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 5)
        .expect("generation succeeds");
    let op = WeightedCsr::sym_norm(&data.graph, true);
    let x = data.features.clone();
    let mut y = Matrix::zeros(x.rows(), x.cols());

    let mut rng = {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(23)
    };
    let mut model = Sign::new(2, 16, 32, 4, 0.1, &mut rng);
    let hops: Vec<Matrix> = (0..3)
        .map(|h| {
            Matrix::from_fn(128, 16, |r, c| {
                ((r * 13 + c * 7 + h) % 29) as f32 * 0.03 - 0.4
            })
        })
        .collect();
    let mut logits = Matrix::default();
    assert_serial_work("SpMM", op.nnz() * x.cols());
    assert_serial_work("Sign GEMM", 128 * model.num_params());

    // Warm every scratch slot first — steady state is what epochs live in.
    for _ in 0..3 {
        op.spmm_into(&x, &mut y);
        model.forward_into(&hops, Mode::Eval, &mut logits);
    }

    let before = allocs();
    for round in 0..10u64 {
        // Raw instrumentation primitives, as the hot loops call them.
        let _span = ppgnn_telemetry::span("resid");
        let _span2 = ppgnn_telemetry::span_with("resid2", &[("round", round)]);
        PROBE_COUNTER.add(1);
        PROBE_HIST.record(round);
        // Instrumented kernels: the SpMM driver span and the GEMM
        // dispatch counters sit on these paths.
        op.spmm_into(&x, &mut y);
        model.forward_into(&hops, Mode::Eval, &mut logits);
    }
    let allocs = allocs() - before;
    assert_eq!(
        allocs, 0,
        "disabled-telemetry hot paths allocated {allocs} times over 10 rounds; \
         an instrumentation site does work when PPGNN_TRACE=0"
    );
    // Disabled probes must also record nothing (no lazy registration).
    assert_eq!(PROBE_COUNTER.get(), 0);
    assert_eq!(PROBE_HIST.count(), 0);
}

#[test]
fn streaming_run_matches_reference_chain_under_tracking() {
    // The allocator is process-global, so also pin correctness here: hop r
    // equals r explicit applications of the operator.
    let _guard = serial();
    let data = SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.02), 3)
        .expect("generation succeeds");
    let out = Preprocessor::new(vec![Operator::SymNorm], 2).run(&data);
    let mut expected = data.features.clone();
    for _ in 0..2 {
        expected = Operator::SymNorm.apply(&data.graph, &expected);
    }
    let expected_rows = expected.gather_rows(&data.split.train);
    assert!(out.train.hops[2].max_abs_diff(&expected_rows) < 1e-4);
}
