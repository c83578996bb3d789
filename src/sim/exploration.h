// Exhaustive configuration-space exploration (step C of the paper's
// workflow) and the label-space reduction of Sanchez Barrera et al.:
// a greedy max-coverage selection of k configurations that preserves the
// attainable gains (13 labels keep ~99% of the full space's gains).
#pragma once

#include <string>
#include <vector>

#include "sim/config.h"
#include "sim/simulator.h"
#include "sim/workload_model.h"

namespace irgnn::sim {

struct ExplorationTable {
  std::vector<std::string> regions;
  std::vector<Configuration> configurations;
  int default_index = -1;  // the baseline configuration's position
  /// time[r][c] = average cycles per call of region r under configuration c.
  std::vector<std::vector<double>> time;
  /// Reaction-based probes: counters at a few strategically different
  /// configurations (default, one-node packed, interleaved). Probe 0 is
  /// always default_index, so probe_counters[r][0] holds region r's
  /// counters at the default configuration. The dynamic baseline model
  /// reads these, mirroring Sanchez Barrera's scheme of executing a
  /// handful of configurations and reacting to the counters.
  std::vector<int> probe_indices;
  std::vector<std::vector<PerfCounters>> probe_counters;  // [region][probe]

  double speedup(std::size_t region, std::size_t config) const {
    return time[region][default_index] / time[region][config];
  }
  std::size_t best_config(std::size_t region) const;
  /// Row index of a region by name; npos if absent. The serve-driven
  /// drivers explore the whole suite once and then score individual
  /// regions' predicted labels against their row.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t region_index(const std::string& name) const;
  /// Arithmetic-average speedup of per-region best configurations.
  double full_exploration_speedup() const;
};

/// Simulates every (region, configuration) pair; parallelized over regions
/// on the shared pool (num_threads <= 0: all workers). Each region owns its
/// table row and simulates with a private memoizing Simulator, so the table
/// is bit-identical for every thread count.
ExplorationTable explore(const MachineDesc& machine,
                         const std::vector<WorkloadTraits>& regions,
                         double size_scale = 1.0, int num_threads = 0);

/// Greedily selects `k` configuration indices so that assigning each region
/// its best configuration *within the subset* minimizes total time. The
/// default configuration is always a candidate member so the subset never
/// loses to the baseline.
std::vector<int> reduce_labels(const ExplorationTable& table, int k);

/// Best label (index into `labels`) per region.
std::vector<int> best_labels(const ExplorationTable& table,
                             const std::vector<int>& labels);

/// Arithmetic-average speedup of choosing labels[label_choice[r]] per region.
double label_assignment_speedup(const ExplorationTable& table,
                                const std::vector<int>& labels,
                                const std::vector<int>& label_choice);

}  // namespace irgnn::sim
