// Set-associative caches with LRU replacement and the four per-core Intel
// hardware prefetchers toggled by MSR 0x1A4:
//   * DCU next-line    — on an L1 demand miss, fetch line+1 into L1.
//   * DCU IP-correlated— per-PC stride detector prefetching into L1.
//   * L2 adjacent-line — on an L2 demand fill, also fetch the 128-byte buddy.
//   * L2 streamer      — per-4KB-page stream detector running ahead of the
//                        access stream into L2 (forward and backward).
//
// The hierarchy is private L1+L2 per core (as on both testbeds); the shared
// L3 and memory system are modeled at the NUMA level by the Simulator.
// Prefetched lines are tagged so the statistics distinguish useful
// prefetches (later demand-hit) from cache-polluting ones, and prefetch
// traffic is accounted — this is what makes prefetchers *hurt* irregular
// workloads, the effect the configuration space exploits.
//
// The model is split into an L1 half (L1Model: L1 + both DCU prefetchers)
// and an L2 half (L2Model: L2 + adjacent-line + streamer). The split is
// exact because L1 never reads L2 state: a demand miss fills L1 whether L2
// hits or misses, and the L2 prefetchers only ever touch L2. So L1 state
// depends on the two DCU bits alone, and the L1 half reduces an access to at
// most three L2 requests (an IP-stride prefetch fill, a next-line prefetch
// fill, a demand miss) that the L2 half consumes in order. CoreCacheModel
// composes the halves for one prefetcher setting; simulate_all_masks runs
// L1 once per DCU pair and replays each request log into the four L2
// variants, yielding all 16 masks from one trace.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/config.h"
#include "sim/machine.h"
#include "sim/workload_model.h"

namespace irgnn::sim {

struct CacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;           // demand misses going below L2
  std::uint64_t prefetches_issued = 0;   // lines requested by any prefetcher
  std::uint64_t prefetch_hits = 0;       // demand hits on prefetched lines
  std::uint64_t prefetch_unused = 0;     // prefetched lines evicted untouched

  CacheStats& operator+=(const CacheStats& o) {
    accesses += o.accesses;
    l1_hits += o.l1_hits;
    l2_hits += o.l2_hits;
    l2_misses += o.l2_misses;
    prefetches_issued += o.prefetches_issued;
    prefetch_hits += o.prefetch_hits;
    prefetch_unused += o.prefetch_unused;
    return *this;
  }

  double l1_hit_rate() const {
    return accesses ? static_cast<double>(l1_hits) / accesses : 0.0;
  }
  double l2_local_hit_rate() const {
    std::uint64_t below_l1 = accesses - l1_hits;
    return below_l1 ? static_cast<double>(l2_hits) / below_l1 : 0.0;
  }
  double beyond_l2_per_access() const {
    return accesses ? static_cast<double>(l2_misses) / accesses : 0.0;
  }
  double prefetch_traffic_per_access() const {
    return accesses ? static_cast<double>(prefetches_issued) / accesses : 0.0;
  }
  double prefetch_accuracy() const {
    return prefetches_issued
               ? static_cast<double>(prefetch_hits) / prefetches_issued
               : 0.0;
  }
};

/// LRU set-associative cache of 64-byte lines, stored as struct-of-arrays
/// (tags, LRU ticks, prefetch tags). Sets are indexed by a power-of-two
/// mask. Every operation scans its set once.
class SetAssociativeCache {
 public:
  SetAssociativeCache(int size_bytes, int associativity, int line_bytes);

  enum class Lookup { Miss, Hit, PrefetchedHit };

  /// Demand access: on a hit, refreshes LRU and clears the prefetch tag;
  /// PrefetchedHit means the tag was still set.
  Lookup access(std::uint64_t line);
  /// access() that also inserts the line, untagged, on a miss.
  Lookup access_or_fill(std::uint64_t line);
  /// Inserts an absent line over the set's LRU way; `prefetched` tags it.
  /// Returns false, changing nothing, if the line is already present.
  bool fill(std::uint64_t line, bool prefetched);

  /// Number of prefetched-but-never-touched lines evicted so far.
  std::uint64_t polluting_evictions() const { return polluting_evictions_; }

  int num_sets() const { return static_cast<int>(set_mask_ + 1); }

 private:
  /// The way holding `line`, or -1 with `victim` set to the way a fill
  /// would take (the first empty way, else the least recently used).
  std::int64_t find(std::uint64_t line, std::size_t& victim) const;
  void place(std::size_t way, std::uint64_t line, bool prefetched);
  Lookup touch(std::size_t way);

  std::uint64_t set_mask_;
  std::size_t associativity_;
  // Way i of set s lives at index s * associativity_ + i. A tick of 0 marks
  // an empty way; ways fill in order, so empty ways end a set.
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> ticks_;
  std::vector<std::uint8_t> prefetched_;
  std::uint64_t tick_ = 0;
  std::uint64_t polluting_evictions_ = 0;
};

/// What the L1 half asks of L2: fill a line L1 prefetched, or look up (and on
/// a miss, fill) a line L1 demand-missed.
struct L2Request {
  std::uint64_t line = 0;
  bool demand = false;
};

/// The L2 requests of one access, in issue order.
struct L2Requests {
  std::array<L2Request, 3> items;
  int size = 0;
  void push(std::uint64_t line, bool demand) { items[size++] = {line, demand}; }
};

/// L1 plus the DCU next-line and IP-stride prefetchers. Its stats carry
/// accesses, l1_hits and the L1 share of the prefetch counters.
class L1Model {
 public:
  L1Model(const MachineDesc& machine, const PrefetcherConfig& prefetch);

  L2Requests access(const MemoryAccess& access);
  CacheStats stats() const;

 private:
  /// Fills `line` into L1 as a prefetch; an L1 miss also becomes an L2
  /// prefetch fill.
  void prefetch(std::uint64_t line, L2Requests& out);

  const int line_shift_;
  const bool next_line_;
  const bool ip_;
  SetAssociativeCache cache_;
  CacheStats stats_;

  // DCU IP-correlated stride table, indexed by access site (pc). Traces
  // number their sites densely from 1, so the table grows to the largest pc.
  struct StrideEntry {
    std::uint64_t last_address = 0;
    std::int64_t stride = 0;
    int confidence = 0;
  };
  std::vector<StrideEntry> stride_table_;
};

/// L2 plus the adjacent-line and streamer prefetchers. Its stats carry
/// l2_hits, l2_misses and the L2 share of the prefetch counters.
class L2Model {
 public:
  L2Model(const MachineDesc& machine, const PrefetcherConfig& prefetch);

  void request(const L2Request& request);
  CacheStats stats() const;

 private:
  static constexpr int kStreamDistance = 4;  // lines run-ahead
  static constexpr int kMaxStreams = 32;

  void streamer_observe(std::uint64_t line);
  void prefetch(std::uint64_t line);

  const int page_shift_;  // line -> 4KB page
  const bool adjacent_;
  const bool streamer_;
  SetAssociativeCache cache_;
  CacheStats stats_;

  // Streamer: per-4KB-page monitors. A new page arriving when all
  // kMaxStreams + 1 slots are taken clears the table (crude recycling).
  struct StreamEntry {
    std::uint64_t page = 0;
    std::uint64_t last_line = 0;
    int direction = 0;  // +1 forward, -1 backward
    int confidence = 0;
  };
  std::array<StreamEntry, kMaxStreams + 1> streams_;
  int num_streams_ = 0;
};

/// One core's private cache hierarchy plus prefetchers under one prefetcher
/// setting: the L1 half feeding the L2 half. Feed it a trace; read the stats.
class CoreCacheModel {
 public:
  CoreCacheModel(const MachineDesc& machine, const PrefetcherConfig& prefetch);

  void access(const MemoryAccess& access);
  CacheStats stats() const;

 private:
  L1Model l1_;
  L2Model l2_;
};

/// The CacheStats of `trace` under every MSR 0x1A4 mask, indexed by mask:
/// element m equals CoreCacheModel(machine, from_msr_mask(m)) fed the trace.
std::array<CacheStats, 16> simulate_all_masks(
    const MachineDesc& machine, const std::vector<MemoryAccess>& trace);

}  // namespace irgnn::sim
