// Micro-benchmarks (google-benchmark) for the substrate layers: pass
// pipeline throughput, ProGraML graph construction, RGCN forward/backward,
// cache+prefetcher trace simulation (one mask and all 16), whole-space
// exploration of one region, and decision-tree fitting. These are the
// building blocks whose cost determines how far the paper-scale knobs (1000
// sequences, 256-d vectors) can be pushed.
#include <benchmark/benchmark.h>

#include "core/dataset.h"
#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "graph/region_extractor.h"
#include "ml/decision_tree.h"
#include "passes/pass.h"
#include "sim/cache.h"
#include "sim/exploration.h"
#include "sim/simulator.h"
#include "workloads/suite.h"

using namespace irgnn;

namespace {

const workloads::RegionSpec& sample_region() {
  return workloads::benchmark_suite()[3];  // "bt rhs": a meaty kernel
}

void BM_O3Pipeline(benchmark::State& state) {
  auto base = workloads::build_region_module(sample_region());
  passes::PassManager pm(passes::o3_pipeline());
  for (auto _ : state) {
    auto module = base->clone();
    benchmark::DoNotOptimize(pm.run(*module));
  }
}
BENCHMARK(BM_O3Pipeline);

void BM_ModuleClone(benchmark::State& state) {
  auto base = workloads::build_region_module(sample_region());
  for (auto _ : state) {
    auto clone = base->clone();
    benchmark::DoNotOptimize(clone->instruction_count());
  }
}
BENCHMARK(BM_ModuleClone);

void BM_GraphConstruction(benchmark::State& state) {
  auto module = workloads::build_region_module(sample_region());
  for (auto _ : state) {
    auto graph = graph::build_graph(*module);
    benchmark::DoNotOptimize(graph.num_edges());
  }
}
BENCHMARK(BM_GraphConstruction);

void BM_RgcnForward(benchmark::State& state) {
  auto module = workloads::build_region_module(sample_region());
  auto pg = graph::build_graph(*module);
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 13;
  cfg.hidden_dim = static_cast<int>(state.range(0));
  gnn::StaticModel model(cfg);
  std::vector<const graph::ProgramGraph*> batch(16, &pg);
  for (auto _ : state) {
    auto preds = model.predict(batch);
    benchmark::DoNotOptimize(preds[0]);
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_RgcnForward)->Arg(32)->Arg(64)->Arg(128);

void BM_RgcnTrainStep(benchmark::State& state) {
  auto module = workloads::build_region_module(sample_region());
  auto pg = graph::build_graph(*module);
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 13;
  cfg.hidden_dim = 32;
  cfg.epochs = 1;
  gnn::StaticModel model(cfg);
  std::vector<const graph::ProgramGraph*> batch(32, &pg);
  std::vector<int> labels(32, 3);
  for (auto _ : state) {
    auto stats = model.train(batch, labels);
    benchmark::DoNotOptimize(stats.final_train_accuracy);
  }
}
BENCHMARK(BM_RgcnTrainStep);

// All 16 prefetcher masks of the same trace in one call: one L1 pass per DCU
// pair, each replayed into four L2 variants. Items are accesses x masks.
void BM_CacheTraceAllMasks(benchmark::State& state) {
  const auto& spec = sample_region();
  sim::MachineDesc machine = sim::MachineDesc::skylake();
  sim::Trace trace = sim::generate_trace(spec.traits, 0, 24, 1.0, 0);
  for (auto _ : state) {
    auto all = sim::simulate_all_masks(machine, trace.accesses);
    benchmark::DoNotOptimize(all[0].l1_hits);
  }
  state.SetItemsProcessed(state.iterations() * trace.accesses.size() * 16);
}
BENCHMARK(BM_CacheTraceAllMasks);

void BM_SimulateOneConfig(benchmark::State& state) {
  const auto& spec = sample_region();
  sim::MachineDesc machine = sim::MachineDesc::skylake();
  sim::Simulator simulator(machine);
  sim::Configuration config = sim::default_configuration(machine);
  for (auto _ : state) {
    auto result = simulator.simulate(spec.traits, config);
    benchmark::DoNotOptimize(result.cycles);
  }
}
BENCHMARK(BM_SimulateOneConfig);

void BM_ExploreOneRegion(benchmark::State& state) {
  const auto& spec = sample_region();
  sim::MachineDesc machine = sim::MachineDesc::skylake();
  std::vector<sim::WorkloadTraits> traits{spec.traits};
  for (auto _ : state) {
    auto table = sim::explore(machine, traits);
    benchmark::DoNotOptimize(table.full_exploration_speedup());
  }
}
BENCHMARK(BM_ExploreOneRegion);

void BM_DecisionTreeFit(benchmark::State& state) {
  Rng rng(7);
  const int n = static_cast<int>(state.range(0));
  std::vector<std::vector<float>> X(n, std::vector<float>(10));
  std::vector<int> y(n);
  for (int i = 0; i < n; ++i) {
    for (auto& v : X[i]) v = static_cast<float>(rng.uniform());
    y[i] = static_cast<int>(rng.next_below(13));
  }
  for (auto _ : state) {
    ml::DecisionTree tree;
    tree.fit(X, y);
    benchmark::DoNotOptimize(tree.num_leaves());
  }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(64)->Arg(512);

void BM_DatasetVariant(benchmark::State& state) {
  // Cost of producing one augmented graph: clone + flag sequence + extract
  // + graph build.
  auto sequences = passes::sample_flag_sequences(1, 99);
  auto base = workloads::build_region_module(sample_region());
  passes::PassManager pm(sequences[0].passes);
  for (auto _ : state) {
    auto variant = base->clone();
    pm.run(*variant);
    auto region = graph::extract_region(
        *variant, workloads::outlined_name(sample_region().kernel.name));
    auto graph = graph::build_graph(*region);
    benchmark::DoNotOptimize(graph.num_nodes());
  }
}
BENCHMARK(BM_DatasetVariant);

}  // namespace

BENCHMARK_MAIN();
