#ifndef PPFR_INFLUENCE_FRONTIER_H_
#define PPFR_INFLUENCE_FRONTIER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "influence/influence.h"

namespace ppfr::influence {

// One chunk of a frontier-partitioned influence sweep: a set of target nodes
// whose union of 2-hop supports (the rows their seeded backwards can touch
// through a 2-layer GNN) stays within the partition's budget — the chunk's
// shared forward runs on a block of at most that many rows.
struct FrontierChunk {
  std::vector<int> targets;  // ascending node ids
  std::vector<int> support;  // sorted union of the targets' 2-hop supports
};

struct FrontierPartition {
  std::vector<FrontierChunk> chunks;
};

// Deterministically partitions `targets` into 2-hop-support-local chunks:
// targets are visited in ascending id order and greedily accumulated while
// the union support stays <= support_budget nodes; a target whose own
// support exceeds the budget (a hub) still gets a singleton chunk rather
// than being dropped. Chunks and their target lists depend only on
// (graph, targets, support_budget) — never on thread count or backend.
FrontierPartition PartitionByTwoHopSupport(const graph::Graph& g,
                                           std::vector<int> targets,
                                           int64_t support_budget);

struct FrontierSweepOptions {
  // Fleet sharding (--shard=i/N): chunk k is owned by shard k % shard_count.
  // Sharding at chunk (not target) granularity keeps each shard's work
  // support-local and the union over shards an exact cover of the targets.
  int shard_index = 0;
  int shard_count = 1;
};

struct FrontierSweepResult {
  std::vector<int> targets;  // concatenation of the owned chunks' targets
  // influence[i][v] = I_{L_targets[i]}(w_v), rows aligned with `targets`.
  std::vector<std::vector<double>> influence;
  int chunks_run = 0;
};

// Runs the per-node influence sweep chunk by chunk: each owned chunk issues
// exactly one InfluenceOnNodeLosses(chunk.targets) call, so every row is
// BITWISE identical to the existing per-node path invoked on that chunk's
// target list — the partition changes scheduling and locality, not a single
// float. (Across DIFFERENT chunkings of the same targets the target-gradient
// blocks differ, and so does their summation order: at cg_block = 1 rows
// coincide to roundoff, at larger cg_block to solver tolerance. The tests
// pin these.)
FrontierSweepResult RunFrontierSweep(InfluenceCalculator* calc,
                                     const FrontierPartition& partition,
                                     const FrontierSweepOptions& options);

}  // namespace ppfr::influence

#endif  // PPFR_INFLUENCE_FRONTIER_H_
