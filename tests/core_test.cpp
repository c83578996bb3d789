// Integration tests over the core pipeline: dataset augmentation, the
// end-to-end experiment (scaled down), cross-architecture transfer and the
// input-size study. These exercise every module in concert.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "core/dataset.h"
#include "core/experiment.h"
#include "support/rng.h"

namespace irgnn::core {
namespace {

ExperimentOptions tiny_options() {
  ExperimentOptions options;
  options.num_sequences = 2;
  options.folds = 4;
  options.epochs = 4;
  options.hidden_dim = 16;
  options.num_layers = 2;
  options.ga_population = 10;
  options.ga_generations = 2;
  options.seed = 33;
  return options;
}

/// Folds the bit pattern of `value` into `h`.
template <typename T>
std::uint64_t fold_bits(std::uint64_t h, T value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof value);
  return hash_combine64(h, bits);
}

/// Digest of the per-region predictions (fold, static/dynamic/hybrid labels,
/// static confidence, embedding bits) and the flag-sequence landscape.
std::uint64_t experiment_digest(const ExperimentResult& res) {
  std::uint64_t h = hash_combine64(res.regions.size(), res.labels.size());
  for (const RegionOutcome& region : res.regions) {
    h = hash_combine64(h, static_cast<std::uint64_t>(region.fold));
    h = hash_combine64(h, static_cast<std::uint64_t>(region.static_label));
    h = hash_combine64(h, static_cast<std::uint64_t>(region.dynamic_label));
    h = hash_combine64(h, region.hybrid_profiled ? 1u : 0u);
    h = fold_bits(h, region.static_confidence);
    for (float v : region.embedding) h = fold_bits(h, v);
  }
  for (double v : res.sequence_speedup) h = fold_bits(h, v);
  h = fold_bits(h, res.predicted_speedup);
  return hash_combine64(h, static_cast<std::uint64_t>(res.explored_sequence));
}

// Recorded with the fold predictions still served through a per-fold
// inference server; evaluating each distinct graph once per fold must keep
// every bit. Holds for IRGNN_NUM_THREADS=1 and 4.
constexpr std::uint64_t kTinySkylakeExperimentDigest = 0x4aa13d91638796f6ull;

TEST(DatasetTest, BuildsGraphsForAllRegionsAndSequences) {
  const auto dataset = build_dataset_shared({3, 7});
  EXPECT_EQ(dataset->num_regions(), 56u);
  EXPECT_EQ(dataset->num_sequences(), 3u);
  for (std::size_t r = 0; r < dataset->num_regions(); ++r)
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_GT(dataset->graph(r, s).num_nodes(), 0u);
}

TEST(DatasetTest, DeterministicForSeed) {
  // Different num_threads keys force two separate builds (identical
  // options would return the one pooled instance).
  const auto a = build_dataset_shared({2, 9, 0});
  const auto b = build_dataset_shared({2, 9, 1});
  ASSERT_NE(a.get(), b.get());
  for (std::size_t r = 0; r < a->num_regions(); ++r)
    for (std::size_t s = 0; s < 2; ++s)
      EXPECT_EQ(a->graph(r, s).to_text(), b->graph(r, s).to_text());
}

TEST(DatasetTest, SharedBuildsArePooledPerOptions) {
  // Identical options must return the same pooled instance — repeated
  // build_dataset_shared calls in one process reuse graph storage instead of
  // re-running the compile/extract/build pipeline.
  auto a = build_dataset_shared({2, 9});
  auto b = build_dataset_shared({2, 9});
  EXPECT_EQ(a.get(), b.get());
  // Any differing option field is a different dataset.
  auto other_seed = build_dataset_shared({2, 10});
  EXPECT_NE(a.get(), other_seed.get());
  auto other_threads = build_dataset_shared({2, 9, 1});
  EXPECT_NE(a.get(), other_threads.get());
}

TEST(DatasetTest, SequencesReshapeGraphs) {
  const auto dataset = build_dataset_shared({6, 21});
  // At least one region must have structurally different variants across
  // sequences (otherwise augmentation would be a no-op).
  bool any_differs = false;
  for (std::size_t r = 0; r < dataset->num_regions(); ++r) {
    for (std::size_t s = 1; s < dataset->num_sequences(); ++s)
      any_differs |= dataset->graph(r, s).num_nodes() !=
                     dataset->graph(r, 0).num_nodes();
  }
  EXPECT_TRUE(any_differs);
}

TEST(ExperimentTest, EndToEndShapeAndInvariants) {
  ExperimentResult res =
      run_experiment(sim::MachineDesc::skylake(), tiny_options());
  EXPECT_EQ(res.regions.size(), 56u);
  EXPECT_EQ(res.fold_static_error.size(), 4u);

  // Ordering invariants that must hold regardless of model quality.
  EXPECT_GE(res.full_speedup, res.label_oracle_speedup - 1e-9);
  EXPECT_GE(res.label_oracle_speedup, res.static_speedup - 1e-9);
  EXPECT_GE(res.label_oracle_speedup, res.dynamic_speedup - 1e-9);
  EXPECT_GE(res.oracle_seq_speedup, res.overall_speedup - 1e-9);
  EXPECT_GT(res.full_speedup, 1.5);  // the space is worth exploring

  for (const auto& region : res.regions) {
    EXPECT_GE(region.fold, 0);
    EXPECT_GE(region.static_label, 0);
    EXPECT_LT(region.static_label, static_cast<int>(res.labels.size()));
    EXPECT_GE(region.static_error, 0.0);
    EXPECT_LE(region.static_error, 1.0);
    EXPECT_GE(region.oracle_speedup, 1.0 - 1e-9);  // default is a label
    EXPECT_EQ(region.embedding.size(),
              static_cast<std::size_t>(tiny_options().hidden_dim));
    // Hybrid picks one of the two models' labels.
    double hybrid_vs_members =
        std::min(std::abs(region.hybrid_speedup - region.static_speedup),
                 std::abs(region.hybrid_speedup - region.dynamic_speedup));
    EXPECT_LT(hybrid_vs_members, 1e-9);
  }

  const std::uint64_t digest = experiment_digest(res);
  EXPECT_EQ(digest, kTinySkylakeExperimentDigest) << std::hex << "0x"
                                                  << digest;
}

TEST(ExperimentTest, DeterministicForSeed) {
  ExperimentOptions options = tiny_options();
  options.folds = 3;
  options.epochs = 2;
  ExperimentResult a =
      run_experiment(sim::MachineDesc::sandy_bridge(), options);
  ExperimentResult b =
      run_experiment(sim::MachineDesc::sandy_bridge(), options);
  EXPECT_DOUBLE_EQ(a.static_speedup, b.static_speedup);
  EXPECT_DOUBLE_EQ(a.hybrid_speedup, b.hybrid_speedup);
  for (std::size_t r = 0; r < a.regions.size(); ++r)
    EXPECT_EQ(a.regions[r].static_label, b.regions[r].static_label);
}

TEST(ExperimentTest, LabelBudgetCapsGains) {
  ExperimentOptions two = tiny_options();
  two.num_labels = 2;
  ExperimentOptions thirteen = tiny_options();
  thirteen.num_labels = 13;
  ExperimentResult r2 = run_experiment(sim::MachineDesc::skylake(), two);
  ExperimentResult r13 =
      run_experiment(sim::MachineDesc::skylake(), thirteen);
  EXPECT_LE(r2.label_oracle_speedup, r13.label_oracle_speedup + 1e-9);
  EXPECT_LE(r2.labels.size(), 2u);
}

TEST(CrossArchTest, TransferKeepsMostGains) {
  ExperimentOptions options = tiny_options();
  options.folds = 3;
  options.epochs = 3;
  CrossArchResult res = run_cross_architecture(
      sim::MachineDesc::sandy_bridge(), sim::MachineDesc::skylake(), options);
  EXPECT_GT(res.cross_static_speedup, 1.0);
  EXPECT_GT(res.cross_dynamic_speedup, 1.0);
  // Native runs at least match cross runs on average (paper Fig. 8).
  EXPECT_GE(res.native_static_speedup, res.cross_static_speedup - 0.35);
}

TEST(InputSizeTest, LossesAreBoundedAndMostlySmall) {
  InputSizeResult res = run_input_size_study(sim::MachineDesc::skylake(),
                                             tiny_options());
  EXPECT_EQ(res.regions.size(), res.speedup_loss.size());
  EXPECT_GE(res.native_speedup, res.transferred_speedup - 1e-9);
  for (double loss : res.speedup_loss) EXPECT_GE(loss, -1e-9);
  // The average loss stays a small fraction of the native gains.
  EXPECT_LT(res.native_speedup - res.transferred_speedup,
            0.35 * (res.native_speedup - 1.0) + 0.05);
}

}  // namespace
}  // namespace irgnn::core
