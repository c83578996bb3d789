// Dataset construction (steps A + B of the paper's workflow): every region
// is compiled under every flag sequence; the OpenMP-outlined region is
// extracted from each variant and turned into a ProGraML-style graph.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "graph/program_graph.h"
#include "passes/flag_sequence.h"
#include "support/status.h"
#include "workloads/suite.h"

namespace irgnn::core {

struct Dataset {
  std::vector<std::string> regions;              // suite order
  std::vector<passes::FlagSequence> sequences;   // augmentation sequences
  /// graphs[r][s] = graph of region r compiled under sequence s.
  std::vector<std::vector<graph::ProgramGraph>> graphs;

  const graph::ProgramGraph& graph(std::size_t region,
                                   std::size_t sequence) const {
    return graphs[region][sequence];
  }
  std::size_t num_regions() const { return regions.size(); }
  std::size_t num_sequences() const { return sequences.size(); }
};

struct DatasetOptions {
  std::size_t num_sequences = 12;
  std::uint64_t seed = 0xDA7A;
  /// Max threads for variant compilation (<= 0: all pool workers).
  int num_threads = 0;
};

/// Builds the dataset for the whole benchmark suite. Compilation of the
/// variants is parallelized across regions. Pooled: repeated calls with
/// identical options in one process share one immutable Dataset instead of
/// re-running the compile/extract/build pipeline and re-allocating
/// graphs[r][s]. The memo
/// is keyed on every DatasetOptions field (num_threads included, so
/// determinism tests that compare thread counts still exercise separate
/// builds) and keeps the most recently used handful of datasets alive.
std::shared_ptr<const Dataset> build_dataset_shared(
    const DatasetOptions& options = {});

/// Loads a dataset from a .irds corpus cache (corpus/dataset_cache.h):
/// one region per cached graph, a single empty flag sequence, zero graph
/// rebuilds. Malformed or truncated caches are a Status, never a crash.
support::Status load_corpus_dataset(const std::string& path, Dataset* out);

}  // namespace irgnn::core
