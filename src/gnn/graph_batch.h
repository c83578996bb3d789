// Batching of ProgramGraphs for the GNN: node features concatenate with an
// offset, edges split per relation with RGCN normalization coefficients, and
// a segment vector maps nodes back to their graph for pooling.
//
// Assembly is a serial concatenation into the caller's batch: every caller
// builds small shard-sized batches and spends its workers on whole shards.
#pragma once

#include <vector>

#include "gnn/modules.h"
#include "graph/program_graph.h"

namespace irgnn::gnn {

struct GraphBatch {
  std::vector<int> features;                 // per node, vocabulary index
  std::vector<RelationEdges> relations;      // size kNumEdgeKinds
  std::vector<int> segment;                  // node -> graph index
  int num_graphs = 0;
  int num_nodes() const { return static_cast<int>(features.size()); }
};

/// Rebuilds `batch` in place from `graphs` (order defines the segment ids),
/// reusing the batch's existing buffers (clear keeps capacity). Training
/// and inference hold one scratch batch per shard, so steady-state batch
/// assembly performs no heap allocations. `num_threads` is ignored: assembly
/// is serial. It stays only for an existing benchmark caller and goes away
/// together with that call.
void make_batch_into(GraphBatch& batch,
                     const std::vector<const graph::ProgramGraph*>& graphs,
                     int num_threads = 0);

}  // namespace irgnn::gnn
