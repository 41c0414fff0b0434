//! Disjoint node partitions of a graph, with ghost-row extraction.
//!
//! Where a [`crate::ShardPlan`] cuts one graph's row space into ranges that
//! all read a shared full-graph input buffer, a [`PartitionPlan`] cuts the
//! *graph itself* into `P` disjoint node sets that each hold only their own
//! rows — the memory model of multi-machine preprocessing. A partition's
//! SpMM still needs input rows its edges reach outside the partition; those
//! are its **ghost rows**, and [`PartitionPlan::extract`] materializes a
//! partition-local CSR whose columns are remapped to `[own rows ‖ ghost
//! rows]` so the partition computes against a compact local buffer after a
//! per-hop ghost exchange.
//!
//! Bit-identity with whole-graph diffusion is structural: extraction keeps
//! every row's entries in their original order (only the column *ids* are
//! remapped), so per-row accumulation order — the only thing that could
//! perturb f32 results — is unchanged.
//!
//! Two [`Partitioner`] strategies are provided: [`RangeCutPartitioner`]
//! (contiguous node ranges balanced by nnz, reusing
//! [`crate::nnz_balanced_blocks`]) and [`BfsGrowPartitioner`] (grows each
//! partition breadth-first to an nnz budget, trading balance precision for
//! edge locality — fewer ghost rows on community-structured graphs).

use crate::{nnz_balanced_blocks, CsrGraph, WeightedCsr};

/// A disjoint assignment of every node to one of `P` partitions.
///
/// Each partition's member list is kept sorted ascending by global node id;
/// `owner`/`local` give O(1) lookup from a global id to its
/// `(partition, local row)` coordinates — the mapping the sharded feature
/// store serves reads through.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionPlan {
    members: Vec<Vec<usize>>,
    owner: Vec<u32>,
    local: Vec<u32>,
}

impl PartitionPlan {
    /// Builds a plan from an explicit assignment of node → partition id.
    ///
    /// Empty partitions are dropped (surviving partitions are compacted,
    /// preserving their relative id order).
    ///
    /// # Panics
    ///
    /// Panics if `assignment` names a partition `>= num_parts`.
    pub fn from_assignment(assignment: &[usize], num_parts: usize) -> Self {
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); num_parts];
        for (v, &p) in assignment.iter().enumerate() {
            assert!(
                p < num_parts,
                "node {v} assigned to partition {p} >= {num_parts}"
            );
            members[p].push(v);
        }
        members.retain(|m| !m.is_empty());
        let mut owner = vec![0u32; assignment.len()];
        let mut local = vec![0u32; assignment.len()];
        for (p, m) in members.iter().enumerate() {
            // Pushed in ascending v order above, so each list is sorted.
            for (i, &v) in m.iter().enumerate() {
                owner[v] = p as u32;
                local[v] = i as u32;
            }
        }
        PartitionPlan {
            members,
            owner,
            local,
        }
    }

    /// Number of (non-empty) partitions.
    pub fn num_partitions(&self) -> usize {
        self.members.len()
    }

    /// Total nodes the plan covers.
    pub fn num_nodes(&self) -> usize {
        self.owner.len()
    }

    /// Sorted global node ids of partition `p`.
    pub fn members(&self, p: usize) -> &[usize] {
        &self.members[p]
    }

    /// Partition owning global node `v`.
    #[inline]
    pub fn owner(&self, v: usize) -> usize {
        self.owner[v] as usize
    }

    /// Local row of global node `v` within its owner's member list.
    #[inline]
    pub fn local(&self, v: usize) -> usize {
        self.local[v] as usize
    }

    /// Extracts the partition-local operator of partition `p` from `base`:
    /// a CSR over `members(p)` rows whose columns are remapped local ids —
    /// own rows first (`0..n_p`), then the sorted ghost rows
    /// (`n_p..n_p + g_p`). Entry order within each row is preserved, so
    /// local SpMM accumulation is bit-identical to whole-graph SpMM.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not square over the plan's node count.
    pub fn extract(&self, base: &WeightedCsr, p: usize) -> PartitionCsr {
        assert_eq!(
            base.rows(),
            self.num_nodes(),
            "operator/plan node count mismatch"
        );
        assert_eq!(
            base.cols(),
            self.num_nodes(),
            "partition extraction needs a square operator"
        );
        let own = &self.members[p];
        let n_p = own.len();
        // Ghosts: every referenced column not owned by p, sorted + deduped.
        let mut ghosts: Vec<usize> = Vec::new();
        for &v in own {
            for (c, _) in base.row_entries(v) {
                if self.owner(c) != p {
                    ghosts.push(c);
                }
            }
        }
        ghosts.sort_unstable();
        ghosts.dedup();

        let local_col = |c: usize| -> u32 {
            if self.owner(c) == p {
                self.local(c) as u32
            } else {
                (n_p + ghosts.binary_search(&c).expect("ghost collected above")) as u32
            }
        };
        let mut indptr = Vec::with_capacity(n_p + 1);
        indptr.push(0usize);
        let mut indices = Vec::new();
        let mut weights = Vec::new();
        for &v in own {
            for (c, w) in base.row_entries(v) {
                indices.push(local_col(c));
                weights.push(w);
            }
            indptr.push(indices.len());
        }
        let csr = WeightedCsr::from_raw(n_p, n_p + ghosts.len(), indptr, indices, weights)
            .expect("extracted partition CSR is structurally valid");
        PartitionCsr { csr, ghosts }
    }
}

/// A partition-local operator plus the global ids of its ghost rows.
///
/// `csr` has `members(p).len()` rows and `rows + ghosts.len()` columns;
/// the input buffer it multiplies against is `[own rows ‖ ghost rows]`,
/// with ghost row `i` holding the current values of global node
/// `ghosts[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionCsr {
    /// The remapped local operator.
    pub csr: WeightedCsr,
    /// Sorted global node ids this partition must fetch each hop.
    pub ghosts: Vec<usize>,
}

/// A strategy for cutting a graph into `P` disjoint node partitions.
///
/// Strategies are stateless values a `Preprocessor` holds by reference,
/// hence the `Debug + Send + Sync` bounds.
pub trait Partitioner: std::fmt::Debug + Send + Sync {
    /// Stable display name (used in reports and bench artifacts).
    fn name(&self) -> &'static str;

    /// Cuts `graph` into at most `max_parts` non-empty partitions.
    /// `max_parts == 0` is treated as 1.
    fn partition(&self, graph: &CsrGraph, max_parts: usize) -> PartitionPlan;
}

/// Contiguous node ranges balanced by adjacency non-zeros — the direct
/// graph-level analog of [`crate::ShardPlan`], and the default partitioner.
#[derive(Debug, Clone, Copy, Default)]
pub struct RangeCutPartitioner;

impl Partitioner for RangeCutPartitioner {
    fn name(&self) -> &'static str {
        "range-cut"
    }

    fn partition(&self, graph: &CsrGraph, max_parts: usize) -> PartitionPlan {
        let n = graph.num_nodes();
        let blocks = nnz_balanced_blocks(graph.indptr(), max_parts.max(1));
        let mut assignment = vec![0usize; n];
        for (p, range) in blocks.iter().enumerate() {
            for slot in &mut assignment[range.clone()] {
                *slot = p;
            }
        }
        PartitionPlan::from_assignment(&assignment, blocks.len().max(1))
    }
}

/// Grows each partition breadth-first from the lowest-id unassigned seed
/// until an nnz budget (`total_nnz / P`) is reached, then starts the next —
/// a cheap locality partitioner: neighbors tend to land together, so ghost
/// sets shrink on community-structured graphs relative to a range cut over
/// a scrambled node order.
#[derive(Debug, Clone, Copy, Default)]
pub struct BfsGrowPartitioner;

impl Partitioner for BfsGrowPartitioner {
    fn name(&self) -> &'static str {
        "bfs-grow"
    }

    fn partition(&self, graph: &CsrGraph, max_parts: usize) -> PartitionPlan {
        let n = graph.num_nodes();
        let parts = max_parts.max(1).min(n.max(1));
        if n == 0 {
            return PartitionPlan::from_assignment(&[], 1);
        }
        let total_nnz = graph.num_edges().max(n); // count rows for edgeless graphs
        let budget = total_nnz.div_ceil(parts);
        const UNASSIGNED: usize = usize::MAX;
        let mut assignment = vec![UNASSIGNED; n];
        let mut queue = std::collections::VecDeque::new();
        let mut next_seed = 0usize;
        let mut current = 0usize;
        let mut current_nnz = 0usize;
        let mut assigned = 0usize;
        while assigned < n {
            // Refill from the lowest unassigned node when the frontier dies.
            let v = match queue.pop_front() {
                Some(v) => v,
                None => {
                    while assignment[next_seed] != UNASSIGNED {
                        next_seed += 1;
                    }
                    next_seed
                }
            };
            if assignment[v] != UNASSIGNED {
                continue;
            }
            assignment[v] = current;
            assigned += 1;
            current_nnz += graph.degree(v).max(1);
            for &u in graph.neighbors(v) {
                if assignment[u as usize] == UNASSIGNED {
                    queue.push_back(u as usize);
                }
            }
            // The last partition absorbs the remainder regardless of budget.
            if current_nnz >= budget && current + 1 < parts {
                current += 1;
                current_nnz = 0;
                queue.clear();
            }
        }
        PartitionPlan::from_assignment(&assignment, parts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> CsrGraph {
        let edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        CsrGraph::from_edges(n, &edges, true).unwrap()
    }

    fn assert_covers(plan: &PartitionPlan, n: usize) {
        let mut all: Vec<usize> = (0..plan.num_partitions())
            .flat_map(|p| plan.members(p).to_vec())
            .collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..n).collect::<Vec<_>>(),
            "partitions must tile the node set"
        );
        for p in 0..plan.num_partitions() {
            for (i, &v) in plan.members(p).iter().enumerate() {
                assert_eq!(plan.owner(v), p);
                assert_eq!(plan.local(v), i);
            }
            assert!(
                plan.members(p).windows(2).all(|w| w[0] < w[1]),
                "members sorted"
            );
        }
    }

    #[test]
    fn range_cut_tiles_nodes_and_balances_nnz() {
        let g = star(64);
        for parts in [1, 2, 5, 64] {
            let plan = RangeCutPartitioner.partition(&g, parts);
            assert!(plan.num_partitions() >= 1 && plan.num_partitions() <= parts);
            assert_covers(&plan, 64);
        }
    }

    #[test]
    fn bfs_grow_tiles_nodes_even_with_disconnected_components() {
        // Two components: a path and isolated nodes.
        let g = CsrGraph::from_edges(10, &[(0, 1), (1, 2), (2, 3)], true).unwrap();
        for parts in [1, 2, 3] {
            let plan = BfsGrowPartitioner.partition(&g, parts);
            assert_covers(&plan, 10);
            assert!(plan.num_partitions() <= parts);
        }
    }

    #[test]
    fn bfs_grow_keeps_neighborhoods_together() {
        // Two 8-cliques joined by one edge: BFS-grow at P=2 should cut at
        // the bridge, giving far fewer ghosts than splitting a clique.
        let mut edges = Vec::new();
        for a in 0..8usize {
            for b in (a + 1)..8 {
                edges.push((a, b));
                edges.push((a + 8, b + 8));
            }
        }
        edges.push((0, 8));
        let g = CsrGraph::from_edges(16, &edges, true).unwrap();
        let plan = BfsGrowPartitioner.partition(&g, 2);
        assert_eq!(plan.num_partitions(), 2);
        let base = WeightedCsr::sym_norm(&g, true);
        let ghosts: usize = (0..2).map(|p| plan.extract(&base, p).ghosts.len()).sum();
        // Only the bridge endpoints cross the cut.
        assert!(
            ghosts <= 4,
            "bfs-grow ghosts {ghosts} exceed the bridge cut"
        );
    }

    #[test]
    fn extraction_preserves_row_values_and_order() {
        let g = star(12);
        let base = WeightedCsr::sym_norm(&g, true);
        let plan = RangeCutPartitioner.partition(&g, 3);
        for p in 0..plan.num_partitions() {
            let part = plan.extract(&base, p);
            assert_eq!(part.csr.rows(), plan.members(p).len());
            assert_eq!(part.csr.cols(), plan.members(p).len() + part.ghosts.len());
            assert!(part.ghosts.windows(2).all(|w| w[0] < w[1]));
            for (i, &v) in plan.members(p).iter().enumerate() {
                let global: Vec<(usize, f32)> = base.row_entries(v).collect();
                let local: Vec<(usize, f32)> = part.csr.row_entries(i).collect();
                assert_eq!(global.len(), local.len());
                for ((gc, gw), (lc, lw)) in global.iter().zip(&local) {
                    // Weights identical and in identical order; columns map
                    // back to the same global node.
                    assert_eq!(gw.to_bits(), lw.to_bits());
                    let mapped = if *lc < plan.members(p).len() {
                        plan.members(p)[*lc]
                    } else {
                        part.ghosts[*lc - plan.members(p).len()]
                    };
                    assert_eq!(mapped, *gc);
                }
            }
        }
    }

    #[test]
    fn single_partition_has_no_ghosts() {
        let g = star(9);
        let base = WeightedCsr::row_norm(&g, true);
        let plan = RangeCutPartitioner.partition(&g, 1);
        assert_eq!(plan.num_partitions(), 1);
        let part = plan.extract(&base, 0);
        assert!(part.ghosts.is_empty());
        assert_eq!(part.csr.nnz(), base.nnz());
    }

    #[test]
    fn from_assignment_drops_empty_partitions() {
        let plan = PartitionPlan::from_assignment(&[2, 2, 0, 0], 4);
        assert_eq!(plan.num_partitions(), 2);
        assert_eq!(plan.members(0), &[2, 3]); // relative id order kept
        assert_eq!(plan.members(1), &[0, 1]);
    }
}
