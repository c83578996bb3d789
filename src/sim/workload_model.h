// Workload behaviour model: what the simulator executes.
//
// Each benchmark region is described by one or more phases; a phase carries
// a set of memory streams (stride, footprint, irregularity, sharing,
// read/write mix), an arithmetic intensity, branch behaviour and OpenMP
// synchronization cost. The trace generator lowers one phase into a
// per-thread synthetic access trace that simulate_all_masks consumes; the
// NUMA-level Simulator combines the cache statistics with the machine's
// latency/bandwidth/topology model.
//
// This is the substitution for the paper's physical testbed: regions' traits
// are chosen to mirror the loop nests the IR generators emit, so the static
// (IR) view and the dynamic (execution) view stay causally coupled — the
// premise that makes IR-based prediction possible at all.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace irgnn::sim {

/// One memory reference of the synthetic trace.
struct MemoryAccess {
  std::uint64_t address = 0;  // byte address
  std::uint32_t pc = 0;       // access-site id (drives the IP prefetcher)
  bool is_write = false;
};

struct MemoryStream {
  std::int64_t stride_bytes = 8;      // dominant advance per access
  std::uint64_t footprint_bytes = 1 << 20;  // per-thread at the base size
  double irregularity = 0.0;          // P(random jump within footprint)
  double temporal_reuse = 0.0;        // P(revisit one of the recent lines)
  double write_fraction = 0.0;
  bool shared = false;                // one copy shared by all threads
};

struct Phase {
  std::vector<MemoryStream> streams;
  double flops_per_access = 1.0;      // arithmetic intensity
  /// Total memory accesses per region call (across all threads) at size-1.
  std::uint64_t accesses_per_call = 2000000;
  double branch_irregularity = 0.0;   // 0..1, degrades IPC
  /// Synchronization cycles charged per access, scaled by ln(threads) — the
  /// CLOMP-style overhead term.
  double sync_cost = 0.0;
  /// Fraction of writes to lines shared with neighbouring threads (false
  /// sharing / coherence traffic).
  double false_sharing = 0.0;
};

struct WorkloadTraits {
  std::string region;
  std::vector<Phase> phases;
  /// Footprint and access-count multiplier for input size-2 (size-1 == 1.0).
  double size2_scale = 4.0;
  /// Serial (non-parallelizable) fraction of the region, Amdahl-style.
  double serial_fraction = 0.02;
  /// Per-call behaviour drift: 0 = perfectly stable across invocations;
  /// higher values morph stream irregularity/footprint call to call. These
  /// are the paper's "dynamic behaviour" regions (Fig. 12) that static
  /// models inherently mispredict.
  double call_variability = 0.0;
  int calls = 10;
};

/// A compact per-thread trace for one phase.
struct Trace {
  std::vector<MemoryAccess> accesses;
};

struct TraceOptions {
  std::size_t max_length = 12000;  // sampled accesses per phase
};

/// Deterministically generates the representative trace of `phase` for a
/// thread owning a 1/num_threads share of partitioned streams. `size_scale`
/// scales footprints (input size), `call_index` applies the traits'
/// call-to-call drift.
Trace generate_trace(const WorkloadTraits& traits, std::size_t phase_index,
                     int num_threads, double size_scale, int call_index,
                     const TraceOptions& options = {});

/// Effective (possibly call-drifted) view of a phase used by both the trace
/// generator and the analytic parts of the simulator.
Phase effective_phase(const WorkloadTraits& traits, std::size_t phase_index,
                      int call_index);

}  // namespace irgnn::sim
