//! Pins the partition-parallel pipeline to the whole-graph reference.
//!
//! Partitioned preprocessing (ghost-row exchange over disjoint node
//! partitions, `ppgnn-partition`) may only change *where* rows are
//! computed and stored, never *what* they hold:
//!
//! * diffusion at `P ∈ {1, 2, 5}` must be **bit-identical** to the
//!   whole-graph path on R-MAT-skewed graphs, with mixed sym/rw/ppr
//!   operators (the series operators exercise per-term ghost exchange),
//!   and every run reports one balance row per partition — a single row
//!   with no ghost rows at `P = 1`;
//! * every row served by the sharded feature store must be
//!   **byte-identical** (FNV digest + raw compare) to the same row of the
//!   single-store layout, at `P = 1` the lone partition store's hop files
//!   must be byte-identical to the unsharded files, and a single store
//!   written through partitioned diffusion must be byte-identical to one
//!   written through the shard scheduler;
//! * the [`ShardedStorageChunkLoader`] must drive an unmodified training
//!   epoch end-to-end, covering every training row exactly once.

use preprop_gnn::core::loader::{Loader, ShardedStorageChunkLoader, StorageChunkLoader};
use preprop_gnn::core::preprocess::{Preprocessor, PrepropOutput};
use preprop_gnn::dataio::AccessPath;
use preprop_gnn::graph::synth::{DatasetProfile, SynthDataset};
use preprop_gnn::graph::{BfsGrowPartitioner, Operator};

fn skewed_data() -> SynthDataset {
    // pokec-sim is R-MAT generated: heavy-tailed degrees, hub rows — the
    // case nnz-balanced partition cuts exist for.
    SynthDataset::generate(DatasetProfile::pokec_sim().scaled(0.03), 23).unwrap()
}

fn assert_bit_identical(a: &PrepropOutput, b: &PrepropOutput, tag: &str) {
    for (part, (x, y)) in [
        ("train", (&a.train, &b.train)),
        ("val", (&a.val, &b.val)),
        ("test", (&a.test, &b.test)),
    ] {
        assert_eq!(x.labels, y.labels, "{tag}: {part} labels");
        for (r, (ha, hb)) in x.hops.iter().zip(&y.hops).enumerate() {
            let same = ha
                .as_slice()
                .iter()
                .zip(hb.as_slice())
                .all(|(u, v)| u.to_bits() == v.to_bits());
            assert!(same, "{tag}: {part} hop {r} is not bit-identical");
        }
    }
}

#[test]
fn partitioned_diffusion_is_bit_identical_across_partition_counts() {
    let data = skewed_data();
    let ops = vec![
        Operator::SymNorm,
        Operator::Ppr { alpha: 0.15 },
        Operator::RowNorm,
    ];
    let reference = Preprocessor::new(ops.clone(), 3)
        .with_num_partitions(1)
        .run(&data);
    let whole = &reference.expansion.partitions;
    assert_eq!(whole.len(), 1, "P=1 reports one balance row");
    assert_eq!(whole[0].ghost_rows, 0, "P=1 must exchange nothing");
    assert_eq!(whole[0].rows, data.graph.num_nodes());
    assert_eq!(whole[0].train_rows, data.split.train.len());
    for parts in [1, 2, 5] {
        let partitioned = Preprocessor::new(ops.clone(), 3)
            .with_num_partitions(parts)
            .run(&data);
        assert_bit_identical(&reference, &partitioned, &format!("{parts} partitions"));
        // The balance table covers the whole graph.
        let stats = &partitioned.expansion.partitions;
        assert!(!stats.is_empty() && stats.len() <= parts);
        assert_eq!(
            stats.iter().map(|s| s.rows).sum::<usize>(),
            data.graph.num_nodes()
        );
        if parts == 1 {
            assert_eq!(stats[0].ghost_rows, 0, "P=1 must exchange nothing");
        }
    }
}

#[test]
fn bfs_grow_partitioner_matches_too() {
    let data = skewed_data();
    let ops = vec![Operator::SymNorm, Operator::RowNorm];
    let reference = Preprocessor::new(ops.clone(), 2).run(&data);
    let partitioned = Preprocessor::new(ops, 2)
        .with_num_partitions(4)
        .with_partitioner(&BfsGrowPartitioner)
        .run(&data);
    assert_bit_identical(&reference, &partitioned, "bfs-grow");
}

#[test]
fn sharded_store_rows_are_byte_identical_to_single_store() {
    let data = skewed_data();
    let base = std::env::temp_dir().join(format!("ppgnn-parteq-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let prep = Preprocessor::new(vec![Operator::SymNorm, Operator::RowNorm], 3);

    let (_, mut single) = prep
        .clone()
        .with_num_partitions(1)
        .run_with_store(&data, base.join("single"), "pokec-sim", 32)
        .unwrap();
    // The same single store written through partitioned diffusion.
    prep.clone()
        .with_num_partitions(2)
        .run_with_store(&data, base.join("single-p2"), "pokec-sim", 32)
        .unwrap();

    for parts in [1usize, 4] {
        let dir = base.join(format!("p{parts}"));
        let (_, mut sharded) = prep
            .clone()
            .with_num_partitions(parts)
            .with_writer_queue(3)
            .run_with_sharded_store(&data, &dir, "pokec-sim", 32)
            .unwrap();
        assert_eq!(sharded.meta().rows, single.meta().rows);
        assert_eq!(sharded.meta().num_hops, 4);

        // Row-level byte identity: every global row of every hop, read
        // through the sharded mapping, digests identically to the single
        // store's row.
        let rows: Vec<usize> = (0..single.meta().rows).collect();
        for k in 0..4 {
            let a = single.read_rows(k, &rows, AccessPath::Direct).unwrap();
            let b = sharded.read_rows(k, &rows, AccessPath::Direct).unwrap();
            let bytes = |m: &preprop_gnn::tensor::Matrix| -> Vec<u8> {
                m.as_slice().iter().flat_map(|v| v.to_le_bytes()).collect()
            };
            let (ab, bb) = (bytes(&a), bytes(&b));
            assert_eq!(
                digest(&ab),
                digest(&bb),
                "hop {k} digest differs at P={parts}"
            );
            assert_eq!(ab, bb, "hop {k} digest collision with differing bytes");
        }
    }

    // P=1 degenerates to the unsharded layout, and the single store does
    // not depend on the engine: hop files byte-identical.
    for k in 0..4 {
        let name = format!("hop_{k}.ppgt");
        let a = std::fs::read(base.join("single").join(&name)).unwrap();
        for other in [base.join("p1").join("part_0"), base.join("single-p2")] {
            let b = std::fs::read(other.join(&name)).unwrap();
            assert_eq!(
                digest(&a),
                digest(&b),
                "{name} differs from {}",
                other.display()
            );
            assert_eq!(a, b);
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn sharded_loader_drives_an_unmodified_training_epoch() {
    use preprop_gnn::models::{PpModel, Sgc};
    use preprop_gnn::nn::{CrossEntropyLoss, Mode, Optimizer, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let data = skewed_data();
    let prep = Preprocessor::new(vec![Operator::SymNorm], 1);
    let base = std::env::temp_dir().join(format!("ppgnn-partload-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (out, _) = prep
        .clone()
        .with_num_partitions(3)
        .run_with_sharded_store(&data, &base, "pokec-sim", 32)
        .unwrap();

    // The same training loop the storage-path tests run — nothing about
    // the model, loss, or optimizer knows the store is sharded.
    let store = preprop_gnn::dataio::ShardedFeatureStore::open(&base).unwrap();
    let mut loader =
        ShardedStorageChunkLoader::new(store, out.train.labels.clone(), 64, AccessPath::Direct, 5);
    let mut model = Sgc::new(
        1,
        data.profile.feature_dim,
        2,
        &mut StdRng::seed_from_u64(1),
    );
    let mut opt = Sgd::new(0.05);
    let mut seen = Vec::new();
    for _ in 0..2 {
        loader.start_epoch();
        let mut rows = 0;
        while let Some(batch) = loader.next_batch() {
            let logits = model.forward(&batch.hops, Mode::Train);
            let (_, grad) = CrossEntropyLoss.loss_and_grad(&logits, &batch.labels);
            model.zero_grad();
            model.backward(&grad);
            opt.step(&mut model.params());
            rows += batch.len();
            seen.extend(batch.indices.iter().copied());
        }
        assert!(loader.take_error().is_none(), "epoch must complete cleanly");
        assert_eq!(rows, out.train.len(), "every training row exactly once");
    }
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), out.train.len());
    // Reads fanned out across partition stores, sequentially.
    let io = loader.io_counters();
    assert_eq!(io.rand_requests, 0);
    assert!(loader.num_partitions() > 1);
    std::fs::remove_dir_all(&base).unwrap();
}

#[test]
fn single_partition_sharded_loader_matches_storage_loader_stream() {
    let data = skewed_data();
    let prep = Preprocessor::new(vec![Operator::SymNorm], 2);
    let base = std::env::temp_dir().join(format!("ppgnn-partstream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (out, single) = prep
        .run_with_store(&data, base.join("single"), "pokec-sim", 16)
        .unwrap();
    let (_, sharded) = prep
        .clone()
        .with_num_partitions(1)
        .run_with_sharded_store(&data, base.join("sharded"), "pokec-sim", 16)
        .unwrap();

    let mut a =
        StorageChunkLoader::new(single, out.train.labels.clone(), 48, AccessPath::Direct, 77);
    let mut b = ShardedStorageChunkLoader::new(
        sharded,
        out.train.labels.clone(),
        48,
        AccessPath::Direct,
        77,
    );
    a.start_epoch();
    b.start_epoch();
    loop {
        match (a.next_batch(), b.next_batch()) {
            (None, None) => break,
            (Some(x), Some(y)) => {
                assert_eq!(x.indices, y.indices);
                assert_eq!(x.labels, y.labels);
                for (hx, hy) in x.hops.iter().zip(&y.hops) {
                    assert_eq!(hx.as_slice(), hy.as_slice());
                }
            }
            _ => panic!("loaders disagree on batch count"),
        }
    }
    std::fs::remove_dir_all(&base).unwrap();
}

/// FNV-1a — a cheap stand-in for a content digest, no external deps.
fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}
