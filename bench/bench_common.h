// Shared scaffolding for the benches and tools: common CLI flags (scale
// knobs, runtime, TCP endpoint, corpus traffic) and the served-model
// construction that irgnn_served and net_loadgen must agree on.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "corpus/dataset_cache.h"
#include "corpus/ingest.h"
#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "graph/program_graph.h"
#include "serve/request.h"
#include "support/argparse.h"
#include "support/table.h"
#include "tensor/tensor.h"
#include "workloads/suite.h"

namespace irgnn::bench {

/// Registers the runtime knobs every bench accepts with identical names and
/// semantics: --threads and --csv. The fig benches get them via
/// make_parser(); standalone benches (microbench_kernels, serve_throughput)
/// call this directly instead of re-declaring the flags with drifting help
/// text or defaults.
inline ArgParser& add_runtime_flags(ArgParser& parser,
                                    const std::string& default_threads = "0") {
  parser
      .add("threads", default_threads,
           "max worker threads (0: all cores; results are identical "
           "for every value)")
      .add("csv", "", "optional path to also write the table as CSV");
  return parser;
}

/// Registers the TCP endpoint knobs shared by irgnn_served and net_loadgen
/// with identical names, defaults and help text: --host, --port,
/// --connections. Numeric defaults give the two integer flags the parser's
/// malformed-value rejection for free (--port=banana fails parse, it does
/// not silently become 0).
inline ArgParser& add_net_flags(ArgParser& parser,
                                const std::string& default_port,
                                const std::string& default_connections) {
  parser
      .add("host", "127.0.0.1",
           "IPv4 address to bind (irgnn_served) or connect to (net_loadgen)")
      .add("port", default_port,
           "TCP port; 0 means an ephemeral port for a server and "
           "\"in-process sections only\" for net_loadgen")
      .add("connections", default_connections,
           "client connections to open (net_loadgen) / accepted-connection "
           "cap (irgnn_served)");
  return parser;
}

// irgnn_served and net_loadgen run in separate processes but must agree on
// the served model bit for bit — the loadgen's bit-identity gate compares
// TCP answers against an in-process model built on the client side. There
// is no weight shipping: both sides build a gnn::StaticModel from the SAME
// flags (--hidden/--layers/--labels/--model-seed) through these helpers,
// and StaticModel's deterministic seeded construction guarantees the two
// processes hold identical weights. Drift between the binaries' flag
// handling would silently break that, which is why the flags live here
// once.

/// The served-model knobs, identical in both binaries.
inline ArgParser& add_model_flags(ArgParser& parser) {
  parser.add("hidden", "64", "served model hidden dimension")
      .add("layers", "3", "served model RGCN layers")
      .add("labels", "13", "served model label count")
      .add("model-seed", "24237",
           "weight seed; server and loadgen must agree (deterministic "
           "construction is what replaces weight shipping)");
  return parser;
}

inline gnn::ModelConfig model_config_from(const ArgParser& parser,
                                          int threads) {
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = static_cast<int>(parser.get_int("labels"));
  cfg.hidden_dim = static_cast<int>(parser.get_int("hidden"));
  cfg.num_layers = static_cast<int>(parser.get_int("layers"));
  cfg.seed = static_cast<std::uint64_t>(parser.get_int("model-seed"));
  cfg.num_threads = threads;
  return cfg;
}

/// The benchmark-suite region graphs — the traffic the serving benches
/// (serve_throughput, net_loadgen, fig8_cross_arch) speak.
inline std::vector<graph::ProgramGraph> suite_graphs() {
  std::vector<graph::ProgramGraph> owned;
  for (const auto& spec : workloads::benchmark_suite()) {
    auto module = workloads::build_region_module(spec);
    owned.push_back(graph::build_graph(*module));
  }
  return owned;
}

inline bool parse_shed_policy(const std::string& name,
                              serve::ShedPolicy* out) {
  if (name == "Reject") {
    *out = serve::ShedPolicy::Reject;
  } else if (name == "DropOldest") {
    *out = serve::ShedPolicy::DropOldest;
  } else {
    return false;
  }
  return true;
}

/// Registers the corpus traffic-source knobs shared by serve_throughput and
/// net_loadgen: --corpus (a directory of textual-IR files) and
/// --dataset-cache (a .irds file). Identical names/semantics across benches,
/// like add_net_flags.
inline ArgParser& add_corpus_flags(ArgParser& parser) {
  parser
      .add("corpus", "",
           "directory of textual-IR files to serve instead of the synthetic "
           "suite (see irgnn_ingest)")
      .add("dataset-cache", "",
           ".irds cache path: warm-loaded when its corpus hash still "
           "matches --corpus, rebuilt and rewritten otherwise")
      .add("corpus-threads", "0",
           "ingest pipeline threads (0: all pool workers; results are "
           "identical for every value)");
  return parser;
}

/// Resolves the --corpus/--dataset-cache flags into the bench's traffic
/// graphs. With neither flag, `graphs` is left untouched (the caller keeps
/// its synthetic suite) and Ok is returned. A warm cache load performs zero
/// graph rebuilds (corpus::graphs_built() is unchanged); a cold or stale
/// cache triggers an ingest and, when --dataset-cache is set, a rewrite.
inline support::Status corpus_traffic(const ArgParser& parser,
                                      std::vector<graph::ProgramGraph>* graphs) {
  const std::string dir = parser.get_string("corpus");
  const std::string cache = parser.get_string("dataset-cache");
  if (dir.empty() && cache.empty()) return support::Status::Ok();

  corpus::IngestOptions options;
  options.num_threads = static_cast<int>(parser.get_int("corpus-threads"));
  corpus::CacheLimits limits;
  limits.max_feature =
      static_cast<std::int32_t>(graph::vocabulary_size()) - 1;

  if (!cache.empty()) {
    corpus::DatasetCacheReader reader;
    support::Status status = reader.open(cache, limits);
    if (status.ok()) {
      bool warm = reader.options_hash() == corpus::options_hash(options);
      if (warm && !dir.empty()) {
        std::uint64_t dir_hash = 0;
        status = corpus::hash_corpus_dir(dir, options.max_file_bytes,
                                         &dir_hash);
        if (!status.ok()) return status;
        warm = dir_hash == reader.corpus_hash();
      }
      if (warm) {
        const std::uint64_t built_before = corpus::graphs_built();
        graphs->clear();
        graphs->resize(static_cast<std::size_t>(reader.num_graphs()));
        for (std::uint64_t i = 0; i < reader.num_graphs(); ++i)
          reader.materialize(i, &(*graphs)[i]);
        std::printf("corpus: warm cache %s — %zu graphs, %llu rebuilds\n",
                    cache.c_str(), graphs->size(),
                    static_cast<unsigned long long>(corpus::graphs_built() -
                                                    built_before));
        if (graphs->empty())
          return support::Status::InvalidArgument("dataset cache is empty");
        return support::Status::Ok();
      }
    }
    if (dir.empty()) {
      // No corpus to rebuild from; surface why the cache was unusable.
      return status.ok() ? support::Status::InvalidArgument(
                               "dataset cache is stale and no --corpus given")
                         : status;
    }
  }

  corpus::IngestResult result;
  support::Status status = corpus::ingest_directory(dir, options, &result);
  if (!status.ok()) return status;
  for (const auto& file : result.files)
    if (!file.status.ok())
      std::fprintf(stderr, "corpus: skipped %s: %s (%s)\n", file.path.c_str(),
                   file.status.message(), file.detail.c_str());
  if (result.graphs.empty())
    return support::Status::InvalidArgument("corpus produced no graphs");
  std::printf("corpus: ingested %s — %llu files (%llu failed), %zu unique "
              "graphs, %llu duplicates\n",
              dir.c_str(),
              static_cast<unsigned long long>(result.stats.files_scanned),
              static_cast<unsigned long long>(result.stats.files_failed),
              result.graphs.size(),
              static_cast<unsigned long long>(result.stats.duplicates));
  if (!cache.empty()) {
    status = corpus::write_dataset_cache(cache, result.graphs,
                                         result.fingerprints,
                                         result.corpus_hash,
                                         result.options_hash);
    if (!status.ok()) return status;
    std::printf("corpus: wrote %s\n", cache.c_str());
  }
  *graphs = std::move(result.graphs);
  return support::Status::Ok();
}

/// Reads --threads, applies it to the process-global tensor kernel
/// parallelism cap, and returns it — the one place the flag is interpreted.
inline int apply_threads(const ArgParser& parser) {
  const int threads = static_cast<int>(parser.get_int("threads"));
  tensor::set_kernel_parallelism(threads);
  return threads;
}

inline ArgParser make_parser(const std::string& name,
                             const std::string& description) {
  ArgParser parser(name, description);
  parser.add("sequences", "4", "number of augmentation flag sequences (paper: 1000)")
      .add("epochs", "8", "GNN training epochs per fold")
      .add("hidden", "32", "GNN hidden dimension (paper: 256)")
      .add("layers", "2", "RGCN layers")
      .add("folds", "10", "cross-validation folds")
      .add("labels", "13", "reduced label count")
      .add("seed", "24069", "master random seed");
  add_runtime_flags(parser);
  return parser;
}

inline core::ExperimentOptions options_from(const ArgParser& parser) {
  core::ExperimentOptions options;
  options.num_sequences = static_cast<std::size_t>(parser.get_int("sequences"));
  options.epochs = static_cast<int>(parser.get_int("epochs"));
  options.hidden_dim = static_cast<int>(parser.get_int("hidden"));
  options.num_layers = static_cast<int>(parser.get_int("layers"));
  options.folds = static_cast<int>(parser.get_int("folds"));
  options.num_labels = static_cast<int>(parser.get_int("labels"));
  options.seed = static_cast<std::uint64_t>(parser.get_int("seed"));
  options.num_threads = apply_threads(parser);
  return options;
}

/// Microseconds of a steady_clock duration, for latency samples.
inline double to_us(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct Percentiles {
  double p50 = 0, p95 = 0, p99 = 0;
};

/// Nearest-rank percentiles of `latencies_us`, which it sorts in place.
inline Percentiles percentiles(std::vector<double>& latencies_us) {
  Percentiles out;
  if (latencies_us.empty()) return out;
  std::sort(latencies_us.begin(), latencies_us.end());
  auto at = [&](double q) {
    std::size_t i = static_cast<std::size_t>(
        q * static_cast<double>(latencies_us.size() - 1));
    return latencies_us[i];
  };
  out.p50 = at(0.50);
  out.p95 = at(0.95);
  out.p99 = at(0.99);
  return out;
}

inline void finish(const Table& table, const ArgParser& parser) {
  table.print();
  std::string csv = parser.get_string("csv");
  if (!csv.empty() && table.write_csv(csv))
    std::printf("(csv written to %s)\n", csv.c_str());
}

}  // namespace irgnn::bench
