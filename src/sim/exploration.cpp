#include "sim/exploration.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>

#include "support/thread_pool.h"

namespace irgnn::sim {

std::size_t ExplorationTable::region_index(const std::string& name) const {
  for (std::size_t r = 0; r < regions.size(); ++r)
    if (regions[r] == name) return r;
  return npos;
}

std::size_t ExplorationTable::best_config(std::size_t region) const {
  const auto& row = time[region];
  return static_cast<std::size_t>(
      std::min_element(row.begin(), row.end()) - row.begin());
}

double ExplorationTable::full_exploration_speedup() const {
  double acc = 0;
  for (std::size_t r = 0; r < regions.size(); ++r)
    acc += speedup(r, best_config(r));
  return regions.empty() ? 0.0 : acc / static_cast<double>(regions.size());
}

ExplorationTable explore(const MachineDesc& machine,
                         const std::vector<WorkloadTraits>& regions,
                         double size_scale, int num_threads) {
  ExplorationTable table;
  table.configurations = enumerate_configurations(machine);
  Configuration def = default_configuration(machine);
  for (std::size_t c = 0; c < table.configurations.size(); ++c)
    if (table.configurations[c] == def)
      table.default_index = static_cast<int>(c);
  assert(table.default_index >= 0 &&
         "baseline configuration missing from the enumerated space");

  table.regions.reserve(regions.size());
  for (const auto& traits : regions) table.regions.push_back(traits.region);
  table.time.assign(regions.size(),
                    std::vector<double>(table.configurations.size(), 0.0));

  // Reaction probes: default + packed single node + interleaved all-nodes.
  Configuration packed;
  packed.threads = machine.single_node_degrees.back();
  packed.nodes = 1;
  packed.thread_mapping = ThreadMapping::Contiguous;
  packed.page_mapping = PageMapping::Locality;
  Configuration interleaved = default_configuration(machine);
  interleaved.thread_mapping = ThreadMapping::Contiguous;
  interleaved.page_mapping = PageMapping::Interleave;
  table.probe_indices.push_back(table.default_index);
  for (const Configuration& probe : {packed, interleaved})
    for (std::size_t c = 0; c < table.configurations.size(); ++c)
      if (table.configurations[c] == probe)
        table.probe_indices.push_back(static_cast<int>(c));
  table.probe_counters.assign(
      regions.size(),
      std::vector<PerfCounters>(table.probe_indices.size()));

  support::ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(regions.size()), num_threads,
      [&](std::int64_t r) {
        Simulator simulator(machine);  // one per region: memoization w/o sharing
        for (std::size_t c = 0; c < table.configurations.size(); ++c) {
          SimResult result = simulator.simulate(regions[r],
                                                table.configurations[c],
                                                size_scale);
          table.time[r][c] = result.cycles;
          for (std::size_t p = 0; p < table.probe_indices.size(); ++p)
            if (static_cast<int>(c) == table.probe_indices[p])
              table.probe_counters[r][p] = result.counters;
        }
      });
  return table;
}

std::vector<int> reduce_labels(const ExplorationTable& table, int k) {
  const std::size_t R = table.regions.size();
  const std::size_t C = table.configurations.size();
  std::vector<int> chosen;
  std::vector<double> best_so_far(R, std::numeric_limits<double>::max());

  // The default configuration seeds the subset: a model predicting any label
  // can then never be worse than not optimizing at all. (It also matches the
  // paper's observation that the baseline is "already optimized".)
  auto add = [&](int config) {
    chosen.push_back(config);
    for (std::size_t r = 0; r < R; ++r)
      best_so_far[r] = std::min(best_so_far[r], table.time[r][config]);
  };
  add(table.default_index);

  while (static_cast<int>(chosen.size()) < k) {
    int best_config = -1;
    double best_total = std::numeric_limits<double>::max();
    for (std::size_t c = 0; c < C; ++c) {
      if (std::find(chosen.begin(), chosen.end(), static_cast<int>(c)) !=
          chosen.end())
        continue;
      // Total normalized time if c joins the subset.
      double total = 0;
      for (std::size_t r = 0; r < R; ++r)
        total += std::min(best_so_far[r], table.time[r][c]) /
                 table.time[r][table.default_index];
      if (total < best_total) {
        best_total = total;
        best_config = static_cast<int>(c);
      }
    }
    if (best_config < 0) break;
    add(best_config);
  }
  return chosen;
}

std::vector<int> best_labels(const ExplorationTable& table,
                             const std::vector<int>& labels) {
  std::vector<int> out(table.regions.size(), 0);
  for (std::size_t r = 0; r < table.regions.size(); ++r) {
    double best = std::numeric_limits<double>::max();
    for (std::size_t l = 0; l < labels.size(); ++l) {
      double t = table.time[r][labels[l]];
      if (t < best) {
        best = t;
        out[r] = static_cast<int>(l);
      }
    }
  }
  return out;
}

double label_assignment_speedup(const ExplorationTable& table,
                                const std::vector<int>& labels,
                                const std::vector<int>& label_choice) {
  assert(label_choice.size() == table.regions.size());
  double acc = 0;
  for (std::size_t r = 0; r < table.regions.size(); ++r)
    acc += table.speedup(r, labels[label_choice[r]]);
  return table.regions.empty()
             ? 0.0
             : acc / static_cast<double>(table.regions.size());
}

}  // namespace irgnn::sim
