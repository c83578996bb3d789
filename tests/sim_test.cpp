// Tests for the machine simulator: cache/LRU behaviour, each prefetcher,
// the configuration space enumeration (320 / 288), NUMA timing properties,
// counters, label reduction and cross-architecture translation. The
// parameterized sweeps check mechanistic invariants across the whole
// configuration space; committed digests pin both machines' full-suite
// exploration tables, and prefetcher-mask properties hold without a
// reference model (sim_reference_test has the reference diff).
#include <algorithm>
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "support/rng.h"

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/exploration.h"
#include "sim/simulator.h"
#include "sim/workload_model.h"
#include "workloads/suite.h"

namespace irgnn::sim {
namespace {

using Lookup = SetAssociativeCache::Lookup;

TEST(CacheTest, LruEviction) {
  // 2 sets x 2 ways of 64B lines = 256 bytes.
  SetAssociativeCache cache(256, 2, 64);
  ASSERT_EQ(cache.num_sets(), 2);
  // Lines 0, 2, 4 map to set 0; two fit, the third evicts the LRU (0).
  EXPECT_TRUE(cache.fill(0, false));
  EXPECT_TRUE(cache.fill(2, false));
  EXPECT_FALSE(cache.fill(2, false));  // already present: no change
  EXPECT_EQ(cache.access(0), Lookup::Hit);  // touch 0: now 2 is LRU
  EXPECT_TRUE(cache.fill(4, false));
  EXPECT_EQ(cache.access(0), Lookup::Hit);
  EXPECT_EQ(cache.access(2), Lookup::Miss);
  EXPECT_EQ(cache.access(4), Lookup::Hit);
}

TEST(CacheTest, PrefetchTagClearedByDemand) {
  SetAssociativeCache cache(1024, 4, 64);
  cache.fill(7, /*prefetched=*/true);
  EXPECT_EQ(cache.access(7), Lookup::PrefetchedHit);
  EXPECT_EQ(cache.access(7), Lookup::Hit);
}

TEST(CacheTest, AccessOrFillInsertsUntaggedOnMiss) {
  SetAssociativeCache cache(256, 2, 64);
  EXPECT_EQ(cache.access_or_fill(3), Lookup::Miss);
  EXPECT_EQ(cache.access_or_fill(3), Lookup::Hit);
  EXPECT_FALSE(cache.fill(3, true));
}

TEST(CacheTest, CountsPrefetchedLinesEvictedUntouched) {
  // One set of 2 ways: the third fill evicts the untouched prefetch.
  SetAssociativeCache cache(128, 2, 64);
  cache.fill(1, /*prefetched=*/true);
  cache.fill(2, /*prefetched=*/false);
  cache.fill(3, /*prefetched=*/false);
  EXPECT_EQ(cache.polluting_evictions(), 1u);
  cache.fill(4, /*prefetched=*/true);  // evicts 2: not a prefetch
  EXPECT_EQ(cache.polluting_evictions(), 1u);
}

TEST(CacheTest, LruMissesNeverRiseWithCapacity) {
  // Mattson stack inclusion: a fully associative LRU cache of k+1 lines
  // holds every line one of k lines holds, so it never misses more.
  irgnn::Rng rng(11);
  std::vector<std::uint64_t> lines(5000);
  for (auto& line : lines) line = rng.next_below(48);
  std::uint64_t previous_misses = lines.size() + 1;
  for (int ways = 1; ways <= 64; ways *= 2) {
    SetAssociativeCache cache(ways * 64, ways, 64);
    ASSERT_EQ(cache.num_sets(), 1);
    std::uint64_t misses = 0;
    for (std::uint64_t line : lines)
      misses += cache.access_or_fill(line) == Lookup::Miss;
    EXPECT_LE(misses, previous_misses) << ways << " ways";
    previous_misses = misses;
  }
  EXPECT_EQ(previous_misses, 48u);  // 64 ways hold every line: cold misses
}

MemoryAccess make_access(std::uint64_t address, std::uint32_t pc = 1) {
  MemoryAccess access;
  access.address = address;
  access.pc = pc;
  return access;
}

TEST(PrefetcherTest, NextLineTurnsStreamIntoHits) {
  PrefetcherConfig off = PrefetcherConfig::from_msr_mask(0xF);
  PrefetcherConfig next_only = off;
  next_only.dcu_next_line = true;

  std::vector<MemoryAccess> trace;
  for (std::uint64_t i = 0; i < 4000; ++i)
    trace.push_back(make_access(i * 64));  // unit-line stride
  const auto all = simulate_all_masks(MachineDesc::skylake(), trace);
  const CacheStats& off_stats = all[off.msr_mask()];
  const CacheStats& on_stats = all[next_only.msr_mask()];
  EXPECT_GT(on_stats.l1_hit_rate(), off_stats.l1_hit_rate() + 0.3);
  EXPECT_GT(on_stats.prefetch_hits, 0u);
}

TEST(PrefetcherTest, IpStrideCoversLargeStrides) {
  PrefetcherConfig off = PrefetcherConfig::from_msr_mask(0xF);
  PrefetcherConfig ip_only = off;
  ip_only.dcu_ip = true;

  std::vector<MemoryAccess> trace;
  for (std::uint64_t i = 0; i < 4000; ++i)
    trace.push_back(make_access(i * 1024, /*pc=*/5));  // 1KB stride
  const auto all = simulate_all_masks(MachineDesc::skylake(), trace);
  EXPECT_GT(all[ip_only.msr_mask()].l1_hit_rate(),
            all[off.msr_mask()].l1_hit_rate() + 0.3);
}

TEST(PrefetcherTest, StreamerHelpsL2OnLineStreams) {
  PrefetcherConfig off = PrefetcherConfig::from_msr_mask(0xF);
  PrefetcherConfig streamer_only = off;
  streamer_only.l2_streamer = true;

  // Footprint larger than L1 so L2 matters; forward stream.
  std::vector<MemoryAccess> trace;
  for (std::uint64_t i = 0; i < 6000; ++i)
    trace.push_back(make_access(i * 64 * 2));
  const auto all = simulate_all_masks(MachineDesc::skylake(), trace);
  EXPECT_GT(all[streamer_only.msr_mask()].l2_local_hit_rate(),
            all[off.msr_mask()].l2_local_hit_rate() + 0.2);
}

TEST(PrefetcherTest, RandomAccessMakesPrefetchingWasteful) {
  PrefetcherConfig all_on;  // default: everything enabled
  irgnn::Rng rng(3);
  std::vector<MemoryAccess> trace;
  for (int i = 0; i < 6000; ++i)
    trace.push_back(make_access(rng.next_below(1ull << 26)));
  const CacheStats stats =
      simulate_all_masks(MachineDesc::skylake(), trace)[all_on.msr_mask()];
  EXPECT_LT(stats.prefetch_accuracy(), 0.2);
  EXPECT_GT(stats.prefetches_issued, 1000u);
}

TEST(ConfigTest, SpaceSizesMatchPaper) {
  EXPECT_EQ(enumerate_configurations(MachineDesc::sandy_bridge()).size(),
            320u);
  EXPECT_EQ(enumerate_configurations(MachineDesc::skylake()).size(), 288u);
}

TEST(ConfigTest, DefaultIsInsideTheSpace) {
  for (const auto& machine :
       {MachineDesc::sandy_bridge(), MachineDesc::skylake()}) {
    auto configs = enumerate_configurations(machine);
    Configuration def = default_configuration(machine);
    EXPECT_NE(std::find(configs.begin(), configs.end(), def), configs.end())
        << machine.name;
  }
}

TEST(ConfigTest, MsrMaskRoundTrip) {
  for (int mask = 0; mask < 16; ++mask)
    EXPECT_EQ(PrefetcherConfig::from_msr_mask(mask).msr_mask(), mask);
}

TEST(ConfigTest, TranslationSnapsToLegalPoints) {
  MachineDesc snb = MachineDesc::sandy_bridge();
  MachineDesc skl = MachineDesc::skylake();
  Configuration c = default_configuration(skl);  // 48T/2N
  Configuration t = translate_configuration(c, skl, snb);
  EXPECT_EQ(t.threads, 32);  // saturation maps 48 -> 32
  EXPECT_EQ(t.nodes, 4);
  // And back.
  Configuration back = translate_configuration(t, snb, skl);
  EXPECT_EQ(back.threads, 48);
  // Prefetch settings carry over unchanged.
  EXPECT_EQ(back.prefetch, c.prefetch);
}

TEST(ConfigTest, TranslatedConfigsAlwaysExistOnTarget) {
  MachineDesc snb = MachineDesc::sandy_bridge();
  MachineDesc skl = MachineDesc::skylake();
  auto skl_configs = enumerate_configurations(skl);
  for (const auto& c : enumerate_configurations(snb)) {
    Configuration t = translate_configuration(c, snb, skl);
    EXPECT_NE(std::find(skl_configs.begin(), skl_configs.end(), t),
              skl_configs.end())
        << c.to_string() << " -> " << t.to_string();
  }
}

WorkloadTraits streaming_traits() {
  WorkloadTraits traits;
  traits.region = "test stream";
  Phase phase;
  MemoryStream s;
  s.stride_bytes = 8;
  s.footprint_bytes = 64ull << 20;
  s.shared = true;
  phase.streams = {s};
  phase.accesses_per_call = 1'000'000;
  traits.phases = {phase};
  return traits;
}

TEST(SimulatorTest, DeterministicResults) {
  MachineDesc machine = MachineDesc::skylake();
  Simulator a(machine);
  Simulator b(machine);
  Configuration config = default_configuration(machine);
  EXPECT_DOUBLE_EQ(a.simulate(streaming_traits(), config).cycles,
                   b.simulate(streaming_traits(), config).cycles);
}

TEST(SimulatorTest, InterleaveBeatsLocalityForSharedBandwidthBound) {
  MachineDesc machine = MachineDesc::sandy_bridge();
  Simulator simulator(machine);
  Configuration locality = default_configuration(machine);
  Configuration interleave = locality;
  interleave.page_mapping = PageMapping::Interleave;
  double t_loc = simulator.simulate(streaming_traits(), locality).cycles;
  double t_int = simulator.simulate(streaming_traits(), interleave).cycles;
  EXPECT_LT(t_int, t_loc * 0.7);  // spreading controllers wins big
}

TEST(SimulatorTest, SyncBoundRegionPrefersFewerThreads) {
  const workloads::RegionSpec* clomp = workloads::find_region("clomp 1036");
  ASSERT_NE(clomp, nullptr);
  MachineDesc machine = MachineDesc::sandy_bridge();
  Simulator simulator(machine);
  Configuration wide = default_configuration(machine);
  Configuration narrow;
  narrow.threads = 4;
  narrow.nodes = 1;
  double t_wide = simulator.simulate(clomp->traits, wide).cycles;
  double t_narrow = simulator.simulate(clomp->traits, narrow).cycles;
  EXPECT_LT(t_narrow, t_wide);
}

TEST(SimulatorTest, CountersAreSane) {
  MachineDesc machine = MachineDesc::skylake();
  Simulator simulator(machine);
  SimResult result =
      simulator.simulate(streaming_traits(), default_configuration(machine));
  const PerfCounters& c = result.counters;
  EXPECT_GT(c.cycles, 0);
  EXPECT_GT(c.instructions, 0);
  EXPECT_GE(c.l3_miss_ratio, 0);
  EXPECT_LE(c.l3_miss_ratio, 1.0 + 1e-9);
  EXPECT_GE(c.remote_access_ratio, 0);
  EXPECT_LE(c.remote_access_ratio, 1.0 + 1e-9);
  EXPECT_GT(c.package_power, 0);
}

TEST(SimulatorTest, PerCallStabilityMatchesVariability) {
  MachineDesc machine = MachineDesc::skylake();
  Simulator simulator(machine);
  Configuration config = default_configuration(machine);
  const auto* stable = workloads::find_region("sp rhs");
  const auto* dynamic = workloads::find_region("kmeans");
  auto spread = [&](const workloads::RegionSpec* spec) {
    auto series = simulator.per_call_cycles(spec->traits, config);
    double lo = *std::min_element(series.begin(), series.end());
    double hi = *std::max_element(series.begin(), series.end());
    return hi / lo;
  };
  EXPECT_NEAR(spread(stable), 1.0, 1e-9);
  EXPECT_GT(spread(dynamic), 1.15);
}

// --- Property sweeps over the whole configuration space --------------------

class ConfigSweep : public ::testing::TestWithParam<int> {};

TEST_P(ConfigSweep, EveryConfigurationProducesPositiveFiniteTime) {
  MachineDesc machine = MachineDesc::skylake();
  auto configs = enumerate_configurations(machine);
  Simulator simulator(machine);
  const auto& spec = workloads::benchmark_suite()[GetParam()];
  for (const auto& config : configs) {
    double cycles = simulator.simulate(spec.traits, config).cycles;
    EXPECT_GT(cycles, 0) << spec.name << " @ " << config.to_string();
    EXPECT_TRUE(std::isfinite(cycles));
  }
}

INSTANTIATE_TEST_SUITE_P(SampledRegions, ConfigSweep,
                         ::testing::Values(0, 10, 21, 33, 45, 55));

TEST(ExplorationTest, TablesAndLabelReduction) {
  MachineDesc machine = MachineDesc::skylake();
  std::vector<WorkloadTraits> traits;
  for (int r : {0, 5, 12, 20, 30, 44, 50})
    traits.push_back(workloads::benchmark_suite()[r].traits);
  ExplorationTable table = explore(machine, traits);
  EXPECT_EQ(table.time.size(), traits.size());
  EXPECT_GE(table.default_index, 0);
  EXPECT_EQ(table.probe_indices[0], table.default_index);
  EXPECT_EQ(table.probe_counters[0].size(), table.probe_indices.size());
  EXPECT_GE(table.full_exploration_speedup(), 1.0);

  auto labels = reduce_labels(table, 6);
  EXPECT_LE(labels.size(), 6u);
  // The default configuration is always a member.
  EXPECT_NE(std::find(labels.begin(), labels.end(), table.default_index),
            labels.end());
  // Monotonicity: more labels never reduce the attainable gains.
  auto l2 = reduce_labels(table, 2);
  auto l13 = reduce_labels(table, 13);
  double s2 = label_assignment_speedup(table, l2, best_labels(table, l2));
  double s6 =
      label_assignment_speedup(table, labels, best_labels(table, labels));
  double s13 = label_assignment_speedup(table, l13, best_labels(table, l13));
  EXPECT_LE(s2, s6 + 1e-9);
  EXPECT_LE(s6, s13 + 1e-9);
  // Label subsets never lose to the baseline.
  EXPECT_GE(s2, 1.0);
}

// --- Committed exploration-table digests ------------------------------------

/// Folds the bit pattern of `value` into `h`.
std::uint64_t fold(std::uint64_t h, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return hash_combine64(h, bits);
}

/// Digest of every time cell and every probe counter of a table.
std::uint64_t table_digest(const ExplorationTable& table) {
  std::uint64_t h = hash_combine64(table.time.size(),
                                   table.configurations.size());
  for (const auto& row : table.time)
    for (double t : row) h = fold(h, t);
  for (const auto& probes : table.probe_counters) {
    for (const PerfCounters& c : probes) {
      for (double v : {c.instructions, c.cycles, c.ipc, c.l1_miss_ratio,
                       c.l2_miss_ratio, c.l3_miss_ratio,
                       c.remote_access_ratio, c.bandwidth_utilization,
                       c.package_power})
        h = fold(h, v);
    }
  }
  return h;
}

// Recorded before the cache model's rewrite (struct-of-arrays sets, flat
// prefetcher tables, all 16 prefetcher masks from one trace). Any change to
// a modelled cycle or counter of the full suite moves them; the values also
// hold for every explore thread count (IRGNN_NUM_THREADS=1 and 4 checked).
constexpr std::uint64_t kSandyBridgeTableDigest = 0x59815fed351716b8ull;
constexpr std::uint64_t kSkylakeTableDigest = 0x72cfec80108ce34full;

/// The full suite explored at size 1.0, once per machine per test binary.
const ExplorationTable& full_suite_table(const MachineDesc& machine) {
  static std::map<std::string, ExplorationTable> tables;
  auto it = tables.find(machine.name);
  if (it == tables.end())
    it = tables.emplace(machine.name,
                        explore(machine, workloads::suite_traits(), 1.0))
             .first;
  return it->second;
}

TEST(ExplorationTest, FullSuiteTablesMatchCommittedDigests) {
  const std::uint64_t snb =
      table_digest(full_suite_table(MachineDesc::sandy_bridge()));
  const std::uint64_t skl =
      table_digest(full_suite_table(MachineDesc::skylake()));
  EXPECT_EQ(snb, kSandyBridgeTableDigest) << std::hex << "0x" << snb;
  EXPECT_EQ(skl, kSkylakeTableDigest) << std::hex << "0x" << skl;
}

TEST(ExplorationTest, BestConfigIsTheRowArgmin) {
  for (const MachineDesc& machine :
       {MachineDesc::sandy_bridge(), MachineDesc::skylake()}) {
    const ExplorationTable& table = full_suite_table(machine);
    for (std::size_t r = 0; r < table.regions.size(); ++r) {
      const std::size_t best = table.best_config(r);
      for (std::size_t c = 0; c < table.configurations.size(); ++c)
        ASSERT_LE(table.time[r][best], table.time[r][c])
            << machine.name << " " << table.regions[r] << " config " << c;
    }
  }
}

// --- Prefetcher-mask properties that need no reference ---------------------

TEST(AllMasksTest, MaskFifteenIssuesNoPrefetchesAndNoMaskChangesAccesses) {
  // MSR 0x1A4 bits disable prefetchers: mask 15 turns all four off.
  for (const MachineDesc& machine :
       {MachineDesc::sandy_bridge(), MachineDesc::skylake()}) {
    for (int r : {0, 7, 19, 33, 48}) {
      const auto& spec = workloads::benchmark_suite()[r];
      const Trace trace = generate_trace(spec.traits, 0, 2, 1.0, 0);
      const auto all = simulate_all_masks(machine, trace.accesses);
      EXPECT_EQ(all[15].prefetches_issued, 0u) << spec.name;
      EXPECT_EQ(all[15].prefetch_hits, 0u) << spec.name;
      EXPECT_EQ(all[15].prefetch_unused, 0u) << spec.name;
      for (int mask = 0; mask < 16; ++mask) {
        EXPECT_EQ(all[mask].accesses, trace.accesses.size())
            << spec.name << " mask " << mask;
        EXPECT_EQ(all[mask].l1_hits + all[mask].l2_hits + all[mask].l2_misses,
                  all[mask].accesses)
            << spec.name << " mask " << mask;
      }
      EXPECT_GT(all[0].prefetches_issued, 0u) << spec.name;
    }
  }
}

TEST(SimulatorTest, MemoKeysOnTheExactSizeScale) {
  // One instance asked for 1.0 and then 1.009 must answer 1.009 as a fresh
  // instance does: the two scales share no cache statistics.
  MachineDesc machine = MachineDesc::sandy_bridge();
  Configuration config = default_configuration(machine);
  int differing = 0;
  for (int r = 0; r < 8; ++r) {
    const WorkloadTraits& traits = workloads::benchmark_suite()[r].traits;
    Simulator reused(machine);
    const double at_one = reused.simulate(traits, config, 1.0).cycles;
    const double reused_cycles = reused.simulate(traits, config, 1.009).cycles;
    Simulator fresh(machine);
    const double fresh_cycles = fresh.simulate(traits, config, 1.009).cycles;
    EXPECT_EQ(reused_cycles, fresh_cycles) << traits.region;
    differing += at_one != fresh_cycles;
  }
  EXPECT_GT(differing, 0);  // the scales really do differ
}

TEST(TraceTest, DeterministicAndBounded) {
  const auto& spec = workloads::benchmark_suite()[7];
  Trace a = generate_trace(spec.traits, 0, 8, 1.0, 0);
  Trace b = generate_trace(spec.traits, 0, 8, 1.0, 0);
  ASSERT_EQ(a.accesses.size(), b.accesses.size());
  for (std::size_t i = 0; i < a.accesses.size(); ++i)
    EXPECT_EQ(a.accesses[i].address, b.accesses[i].address);
  EXPECT_LE(a.accesses.size(), TraceOptions{}.max_length);
}

TEST(TraceTest, ThreadsPartitionFootprint) {
  // With more threads, a private stream's per-thread footprint shrinks, so
  // the same-length trace wraps around fewer distinct lines.
  WorkloadTraits traits;
  traits.region = "partition test";
  Phase phase;
  MemoryStream s;
  s.stride_bytes = 64;
  s.footprint_bytes = 256 * 1024;  // 4096 lines at T=1, 128 lines at T=32
  phase.streams = {s};
  phase.accesses_per_call = 600'000;
  traits.phases = {phase};
  auto distinct_lines = [&](int threads) {
    Trace trace = generate_trace(traits, 0, threads, 1.0, 0);
    std::set<std::uint64_t> lines;
    for (const auto& a : trace.accesses) lines.insert(a.address / 64);
    return lines.size();
  };
  EXPECT_GT(distinct_lines(1), 4 * distinct_lines(32));
}

}  // namespace
}  // namespace irgnn::sim
