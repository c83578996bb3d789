#include "gnn/graph_batch.h"

#include "support/arena.h"

namespace irgnn::gnn {

void make_batch_into(GraphBatch& batch,
                     const std::vector<const graph::ProgramGraph*>& graphs,
                     int /*num_threads*/) {
  // Empty every buffer but keep its capacity, so a reused batch assembles
  // without reallocating.
  batch.relations.resize(graph::kNumEdgeKinds);
  batch.features.clear();
  batch.segment.clear();
  for (RelationEdges& rel : batch.relations) {
    rel.src.clear();
    rel.dst.clear();
  }
  batch.num_graphs = static_cast<int>(graphs.size());

  int offset = 0;
  for (int g = 0; g < batch.num_graphs; ++g) {
    const graph::ProgramGraph& pg = *graphs[g];
    for (const auto& node : pg.nodes) {
      batch.features.push_back(node.feature);
      batch.segment.push_back(g);
    }
    for (const auto& edge : pg.edges) {
      RelationEdges& rel = batch.relations[static_cast<int>(edge.kind)];
      rel.src.push_back(offset + edge.src);
      rel.dst.push_back(offset + edge.dst);
    }
    offset += static_cast<int>(pg.nodes.size());
  }

  // RGCN normalization: 1/c_{i,r} with c the in-degree of i under r.
  for (RelationEdges& rel : batch.relations) {
    support::PoolVector<float> in_degree(batch.features.size(), 0.0f);
    for (int dst : rel.dst) in_degree[dst] += 1.0f;
    rel.coeff.assign(rel.dst.size(), 0.0f);
    for (std::size_t e = 0; e < rel.dst.size(); ++e)
      rel.coeff[e] = 1.0f / in_degree[rel.dst[e]];
  }
}

}  // namespace irgnn::gnn
