// Differential test of the cache model against a deliberately slow,
// obviously correct reference. The reference keeps each set as a std::list
// ordered by recency, keeps the stride and stream tables in std::maps, and
// writes every prefetcher out in the order the hardware model applies it,
// one prefetcher setting at a time. The fast model (struct-of-arrays sets,
// flat tables, all 16 masks from one L1 pass per DCU pair) must agree with
// it on every CacheStats counter, for every MSR mask, on seeded random
// traces and on phase 0 of every suite region.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "sim/config.h"
#include "sim/machine.h"
#include "sim/workload_model.h"
#include "support/rng.h"
#include "support/thread_pool.h"
#include "workloads/suite.h"

namespace irgnn::sim {
namespace {

class ReferenceCache {
 public:
  ReferenceCache(int size_bytes, int associativity, int line_bytes)
      : ways_(static_cast<std::size_t>(associativity)),
        sets_(static_cast<std::size_t>(size_bytes /
                                       (associativity * line_bytes))) {}

  bool contains(std::uint64_t line) {
    for (const Line& l : set_of(line))
      if (l.line == line) return true;
    return false;
  }

  /// Demand access: a hit moves the line to the front and clears its tag.
  bool demand(std::uint64_t line, bool& was_prefetched) {
    std::list<Line>& set = set_of(line);
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->line == line) {
        was_prefetched = it->prefetched;
        set.splice(set.begin(), set, it);
        set.front().prefetched = false;
        return true;
      }
    }
    was_prefetched = false;
    return false;
  }

  /// Inserts an absent line as most recent, evicting the least recent (whose
  /// list node is reused for the new line).
  void insert(std::uint64_t line, bool prefetched) {
    std::list<Line>& set = set_of(line);
    if (set.size() < ways_) {
      set.push_front({line, prefetched});
      return;
    }
    if (set.back().prefetched) ++polluting_evictions;
    set.splice(set.begin(), set, std::prev(set.end()));
    set.front() = {line, prefetched};
  }

  std::uint64_t polluting_evictions = 0;

 private:
  struct Line {
    std::uint64_t line;
    bool prefetched;
  };
  std::list<Line>& set_of(std::uint64_t line) {
    return sets_[line % sets_.size()];
  }

  std::size_t ways_;
  std::vector<std::list<Line>> sets_;  // most recently used first
};

class ReferenceCore {
 public:
  ReferenceCore(const MachineDesc& m, const PrefetcherConfig& prefetch)
      : line_bytes_(static_cast<std::uint64_t>(m.line_bytes)),
        prefetch_(prefetch),
        l1_(m.l1_size_bytes, m.l1_assoc, m.line_bytes),
        l2_(m.l2_size_bytes, m.l2_assoc, m.line_bytes) {}

  void access(const MemoryAccess& access) {
    ++stats_.accesses;
    const std::uint64_t line = access.address / line_bytes_;

    // DCU IP-stride: two confirmations of the same non-zero stride at a pc
    // prefetch the line two strides ahead into L1.
    if (prefetch_.dcu_ip) {
      Stride& s = strides_[access.pc];
      const std::int64_t stride = static_cast<std::int64_t>(access.address) -
                                  static_cast<std::int64_t>(s.last_address);
      if (s.last_address != 0 && stride != 0 && stride == s.stride) {
        s.confidence += 1;
        if (s.confidence >= 2)
          l1_prefetch((access.address + 2 * stride) / line_bytes_);
      } else {
        s.stride = stride;
        s.confidence = 0;
      }
      s.last_address = access.address;
    }

    bool was_prefetched = false;
    if (l1_.demand(line, was_prefetched)) {
      ++stats_.l1_hits;
      if (was_prefetched) ++stats_.prefetch_hits;
      return;
    }

    // DCU next-line: an L1 demand miss prefetches the following line.
    if (prefetch_.dcu_next_line) l1_prefetch(line + 1);

    if (prefetch_.l2_streamer) streamer(line);

    if (l2_.demand(line, was_prefetched)) {
      ++stats_.l2_hits;
      if (was_prefetched) ++stats_.prefetch_hits;
      l1_.insert(line, false);
      return;
    }

    ++stats_.l2_misses;
    l2_.insert(line, false);
    // L2 adjacent-line: a demand fill also fetches the 128-byte buddy.
    if (prefetch_.l2_adjacent && !l2_.contains(line ^ 1)) {
      l2_.insert(line ^ 1, true);
      ++stats_.prefetches_issued;
    }
    l1_.insert(line, false);
  }

  CacheStats stats() const {
    CacheStats s = stats_;
    s.prefetch_unused = l1_.polluting_evictions + l2_.polluting_evictions;
    return s;
  }

 private:
  struct Stride {
    std::uint64_t last_address = 0;
    std::int64_t stride = 0;
    int confidence = 0;
  };
  struct Stream {
    std::uint64_t last_line = 0;
    int direction = 0;
    int confidence = 0;
  };

  void l1_prefetch(std::uint64_t line) {
    if (l1_.contains(line)) return;
    ++stats_.prefetches_issued;
    l1_.insert(line, true);
    if (!l2_.contains(line)) l2_.insert(line, true);
  }

  void l2_prefetch(std::uint64_t line) {
    if (l2_.contains(line)) return;
    ++stats_.prefetches_issued;
    l2_.insert(line, true);
  }

  // L2 streamer: one monitor per 4KB page. Once 33 pages are tracked, a
  // new page clears them all. A monitor that sees two steps in the same
  // direction prefetches the next 4 lines that way.
  void streamer(std::uint64_t line) {
    const std::uint64_t page = line / (4096 / line_bytes_);
    auto it = streams_.find(page);
    if (it == streams_.end()) {
      if (streams_.size() > 32) streams_.clear();
      streams_[page] = {line, /*direction=*/1, /*confidence=*/1};
      return;
    }
    Stream& s = it->second;
    int direction = 0;
    if (line > s.last_line) direction = 1;
    if (line < s.last_line) direction = -1;
    if (direction != 0 && direction == s.direction) {
      s.confidence += 1;
      if (s.confidence >= 2) {
        for (int d = 1; d <= 4; ++d)
          l2_prefetch(line + static_cast<std::uint64_t>(direction * d));
      }
    } else if (direction != 0) {
      s.direction = direction;
      s.confidence = 1;
    }
    s.last_line = line;
  }

  std::uint64_t line_bytes_;
  PrefetcherConfig prefetch_;
  ReferenceCache l1_;
  ReferenceCache l2_;
  CacheStats stats_;
  std::map<std::uint32_t, Stride> strides_;
  std::map<std::uint64_t, Stream> streams_;
};

CacheStats reference_stats(const MachineDesc& machine, int mask,
                           const std::vector<MemoryAccess>& trace) {
  ReferenceCore core(machine, PrefetcherConfig::from_msr_mask(mask));
  for (const MemoryAccess& access : trace) core.access(access);
  return core.stats();
}

void expect_same(const CacheStats& fast, const CacheStats& ref,
                 const std::string& what) {
  EXPECT_EQ(fast.accesses, ref.accesses) << what;
  EXPECT_EQ(fast.l1_hits, ref.l1_hits) << what;
  EXPECT_EQ(fast.l2_hits, ref.l2_hits) << what;
  EXPECT_EQ(fast.l2_misses, ref.l2_misses) << what;
  EXPECT_EQ(fast.prefetches_issued, ref.prefetches_issued) << what;
  EXPECT_EQ(fast.prefetch_hits, ref.prefetch_hits) << what;
  EXPECT_EQ(fast.prefetch_unused, ref.prefetch_unused) << what;
}

/// Diffs all 16 masks of `trace`; returns false at the first mismatch.
bool diff_all_masks(const MachineDesc& machine,
                    const std::vector<MemoryAccess>& trace,
                    const std::string& what) {
  const std::array<CacheStats, 16> fast = simulate_all_masks(machine, trace);
  for (int mask = 0; mask < 16; ++mask) {
    expect_same(fast[mask], reference_stats(machine, mask, trace),
                what + " mask " + std::to_string(mask));
    if (::testing::Test::HasFailure()) return false;
  }
  return true;
}

/// Interleaves strided, backward, random and reusing streams over a
/// `footprint_lines` window just above address 0, so strides wrap, pages
/// churn past the streamer's 33 monitors and small caches evict.
std::vector<MemoryAccess> random_trace(std::uint64_t seed, std::size_t length,
                                       std::uint64_t footprint_lines) {
  Rng rng(seed);
  const std::int64_t strides[] = {8, 64, 128, 1024, -64, -192};
  struct Cursor {
    std::uint64_t address;
    std::int64_t stride;
    double jump;
  };
  std::vector<Cursor> cursors;
  for (int s = 0; s < 6; ++s)
    cursors.push_back({rng.next_below(footprint_lines * 64),
                       strides[rng.next_below(6)],
                       rng.uniform(0.0, 0.4)});
  std::vector<MemoryAccess> trace;
  for (std::size_t i = 0; i < length; ++i) {
    const std::size_t s = rng.next_below(cursors.size());
    Cursor& c = cursors[s];
    if (rng.bernoulli(c.jump)) {
      c.address = rng.next_below(footprint_lines * 64);
    } else if (!trace.empty() && rng.bernoulli(0.1)) {
      c.address = trace[rng.next_below(trace.size())].address;
    } else {
      c.address = (c.address + static_cast<std::uint64_t>(c.stride)) %
                  (footprint_lines * 64);
    }
    MemoryAccess access;
    access.address = c.address;
    access.pc = static_cast<std::uint32_t>(s + 1);
    trace.push_back(access);
  }
  return trace;
}

MachineDesc tiny_machine(int l1_bytes, int l1_assoc, int l2_bytes,
                         int l2_assoc) {
  MachineDesc m = MachineDesc::skylake();
  m.name = "tiny";
  m.l1_size_bytes = l1_bytes;
  m.l1_assoc = l1_assoc;
  m.l2_size_bytes = l2_bytes;
  m.l2_assoc = l2_assoc;
  return m;
}

TEST(SimReferenceTest, AllMasksMatchReferenceOnRandomTraces) {
  const std::vector<MachineDesc> machines = {
      MachineDesc::sandy_bridge(), MachineDesc::skylake(),
      tiny_machine(512, 2, 4096, 4),   // 4 and 16 sets
      tiny_machine(256, 4, 1024, 16),  // fully associative L1 and L2
  };
  for (std::size_t m = 0; m < machines.size(); ++m) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const std::uint64_t footprint = m < 2 ? 16384 : 256;
      const std::vector<MemoryAccess> trace =
          random_trace(hash_combine64(seed, m), 4000, footprint);
      const std::string what =
          machines[m].name + " seed " + std::to_string(seed);
      ASSERT_TRUE(diff_all_masks(machines[m], trace, what));
    }
  }
}

TEST(SimReferenceTest, AllMasksMatchReferenceOnEverySuiteRegion) {
  // Phase 0 of every region, on both machines' geometries and at two thread
  // counts the exploration uses (private footprints shrink with threads).
  // The traces are simulated on the shared pool and compared afterwards.
  const std::vector<std::pair<MachineDesc, int>> setups = {
      {MachineDesc::sandy_bridge(), 1}, {MachineDesc::skylake(), 24}};
  const auto& suite = workloads::benchmark_suite();
  struct Case {
    std::array<CacheStats, 16> fast;
    std::array<CacheStats, 16> reference;
  };
  std::vector<Case> cases(setups.size() * suite.size());
  support::ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(cases.size()), 0, [&](std::int64_t i) {
        const auto& [machine, threads] = setups[i / suite.size()];
        const Trace trace =
            generate_trace(suite[i % suite.size()].traits, 0, threads, 1.0, 0);
        cases[i].fast = simulate_all_masks(machine, trace.accesses);
        for (int mask = 0; mask < 16; ++mask)
          cases[i].reference[mask] =
              reference_stats(machine, mask, trace.accesses);
      });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& [machine, threads] = setups[i / suite.size()];
    for (int mask = 0; mask < 16; ++mask)
      expect_same(cases[i].fast[mask], cases[i].reference[mask],
                  suite[i % suite.size()].name + " on " + machine.name +
                      " T=" + std::to_string(threads) + " mask " +
                      std::to_string(mask));
  }
}

}  // namespace
}  // namespace irgnn::sim
