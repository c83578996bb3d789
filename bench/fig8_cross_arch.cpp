// Fig. 8 — Cross-architecture prediction: training on one
// micro-architecture and validating on the other (with configuration
// translation), for both the static and the dynamic model, on both targets.
// Cross prediction loses some gains but stays clearly profitable (~1.7x in
// the paper).
//
// The second half is the deployment shape behind the figure: one
// serve::Router front door holding one suite-trained model per
// architecture (published under the machine's name), with every region
// routed by Request::model — the "pick the right model per target machine"
// serving the paper's cross-machine story needs. Routed answers are gated
// bit-identical to each model's serial predict, and an unknown
// architecture must come back ModelNotFound; violations are a nonzero
// exit.
#include <memory>

#include "bench/bench_common.h"
#include "gnn/model.h"
#include "serve/router.h"
#include "support/rng.h"
#include "workloads/suite.h"

using namespace irgnn;

namespace {

/// Suite-labeled model for one machine: explore, reduce labels, train
/// region graph -> best reduced configuration (the flag_explorer recipe at
/// the bench's scale knobs).
serve::ModelPtr train_arch_model(
    const sim::MachineDesc& machine, std::uint64_t seed,
    const std::vector<const graph::ProgramGraph*>& graphs,
    const core::ExperimentOptions& options) {
  sim::ExplorationTable table = sim::explore(
      machine, workloads::suite_traits(), 1.0, options.num_threads);
  std::vector<int> labels = sim::reduce_labels(table, options.num_labels);
  std::vector<int> oracle = sim::best_labels(table, labels);

  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = static_cast<int>(labels.size());
  cfg.hidden_dim = options.hidden_dim;
  cfg.num_layers = options.num_layers;
  cfg.epochs = options.epochs;
  cfg.seed = seed;
  cfg.num_threads = options.num_threads;
  auto model = std::make_shared<gnn::StaticModel>(cfg);
  model->train(graphs, oracle);
  return model;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser = bench::make_parser(
      "fig8_cross_arch", "Fig. 8: native vs cross-architecture prediction");
  if (!parser.parse(argc, argv)) return 1;
  core::ExperimentOptions options = bench::options_from(parser);

  const sim::MachineDesc snb = sim::MachineDesc::sandy_bridge();
  const sim::MachineDesc skl = sim::MachineDesc::skylake();

  Table table({"target", "native_static", "cross_static", "native_dynamic",
               "cross_dynamic"});
  {
    core::CrossArchResult to_skl =
        core::run_cross_architecture(snb, skl, options);
    table.add_row({"Skylake", Table::fmt(to_skl.native_static_speedup),
                   Table::fmt(to_skl.cross_static_speedup),
                   Table::fmt(to_skl.native_dynamic_speedup),
                   Table::fmt(to_skl.cross_dynamic_speedup)});
  }
  {
    core::CrossArchResult to_snb =
        core::run_cross_architecture(skl, snb, options);
    table.add_row({"SandyBridge", Table::fmt(to_snb.native_static_speedup),
                   Table::fmt(to_snb.cross_static_speedup),
                   Table::fmt(to_snb.native_dynamic_speedup),
                   Table::fmt(to_snb.cross_dynamic_speedup)});
  }
  std::printf("\n=== Fig. 8 cross-architecture speedups "
              "(train on the other machine, translate labels) ===\n");
  bench::finish(table, parser);

  // --- One front door, one model per architecture ---------------------------
  const std::vector<graph::ProgramGraph> owned = bench::suite_graphs();
  std::vector<const graph::ProgramGraph*> graphs;
  for (const auto& g : owned) graphs.push_back(&g);

  int failures = 0;
  serve::Router router;
  Table routed({"architecture", "version", "queries", "forwards",
                "cache_hits", "shed", "mismatches"});
  std::uint64_t arch_index = 0;
  for (const sim::MachineDesc& machine : {snb, skl}) {
    serve::ModelPtr model = train_arch_model(
        machine, hash_combine64(options.seed, 0xF18 + arch_index++), graphs,
        options);
    const std::vector<int> expected = model->predict(graphs);
    router.publish(machine.name, model);
    // Two passes per architecture: the first runs forwards, the second must
    // come back from the fingerprint-keyed cache — both bit-identical to
    // the architecture's own serial predict for every region.
    int mismatches = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t g = 0; g < graphs.size(); ++g) {
        const serve::Response response =
            router.predict(serve::Request(*graphs[g], machine.name));
        if (!response.ok() || response.label != expected[g]) ++mismatches;
      }
    }
    failures += mismatches;
    serve::RouterStats stats = router.stats();
    for (const serve::RouterModelStats& m : stats.models) {
      if (m.model != machine.name) continue;
      routed.add_row({m.model, std::to_string(m.version),
                      std::to_string(m.stats.queries),
                      std::to_string(m.stats.forwards),
                      std::to_string(m.stats.cache.hits),
                      std::to_string(m.stats.source_shed),
                      std::to_string(mismatches)});
    }
  }
  // Routing failures are typed, not thrown: an architecture nobody
  // published must answer ModelNotFound, and an empty model name is
  // ambiguous once two architectures are being served.
  const serve::Response unknown =
      router.predict(serve::Request(*graphs[0], "Haswell"));
  const serve::Response ambiguous = router.predict(serve::Request(*graphs[0]));
  if (unknown.status.code() != serve::StatusCode::kModelNotFound) ++failures;
  if (ambiguous.status.code() != serve::StatusCode::kModelNotFound)
    ++failures;

  std::printf("\n=== Cross-architecture front door (serve::Router, one "
              "model per machine) ===\n");
  routed.print();
  std::printf("unknown architecture -> %s, unnamed request with two models "
              "-> %s\n",
              unknown.status.code_name(), ambiguous.status.code_name());
  if (failures != 0) {
    std::printf("FAILED: %d routed-serving contract violation(s)\n",
                failures);
    return 1;
  }
  std::printf("all routed answers bit-identical to each architecture's "
              "serial predict\n");
  return 0;
}
