#include "sim/cache.h"

#include <cassert>

namespace irgnn::sim {

namespace {

[[maybe_unused]] bool is_power_of_two(std::uint64_t x) {
  return x && !(x & (x - 1));
}

int log2_exact(int x) {
  assert(is_power_of_two(static_cast<std::uint64_t>(x)));
  int shift = 0;
  while ((1 << shift) < x) ++shift;
  return shift;
}

}  // namespace

SetAssociativeCache::SetAssociativeCache(int size_bytes, int associativity,
                                         int line_bytes)
    : associativity_(static_cast<std::size_t>(associativity)) {
  const int num_sets = size_bytes / (associativity * line_bytes);
  assert(is_power_of_two(static_cast<std::uint64_t>(num_sets)) &&
         "cache geometry must give a power-of-two set count");
  set_mask_ = static_cast<std::uint64_t>(num_sets) - 1;
  const std::size_t ways = static_cast<std::size_t>(num_sets) * associativity_;
  tags_.assign(ways, 0);
  ticks_.assign(ways, 0);
  prefetched_.assign(ways, 0);
}

std::int64_t SetAssociativeCache::find(std::uint64_t line,
                                       std::size_t& victim) const {
  const std::size_t begin = (line & set_mask_) * associativity_;
  const std::size_t end = begin + associativity_;
  victim = begin;
  for (std::size_t w = begin; w < end; ++w) {
    if (ticks_[w] == 0) {
      victim = w;
      return -1;
    }
    if (tags_[w] == line) return static_cast<std::int64_t>(w);
    if (ticks_[w] < ticks_[victim]) victim = w;
  }
  return -1;
}

void SetAssociativeCache::place(std::size_t way, std::uint64_t line,
                                bool prefetched) {
  if (ticks_[way] != 0 && prefetched_[way]) ++polluting_evictions_;
  tags_[way] = line;
  ticks_[way] = ++tick_;
  prefetched_[way] = prefetched;
}

SetAssociativeCache::Lookup SetAssociativeCache::touch(std::size_t way) {
  ticks_[way] = ++tick_;
  const bool was_prefetched = prefetched_[way];
  prefetched_[way] = 0;  // demand touch clears the tag
  return was_prefetched ? Lookup::PrefetchedHit : Lookup::Hit;
}

SetAssociativeCache::Lookup SetAssociativeCache::access(std::uint64_t line) {
  std::size_t victim;
  const std::int64_t way = find(line, victim);
  return way < 0 ? Lookup::Miss : touch(static_cast<std::size_t>(way));
}

SetAssociativeCache::Lookup SetAssociativeCache::access_or_fill(
    std::uint64_t line) {
  std::size_t victim;
  const std::int64_t way = find(line, victim);
  if (way >= 0) return touch(static_cast<std::size_t>(way));
  place(victim, line, /*prefetched=*/false);
  return Lookup::Miss;
}

bool SetAssociativeCache::fill(std::uint64_t line, bool prefetched) {
  std::size_t victim;
  if (find(line, victim) >= 0) return false;
  place(victim, line, prefetched);
  return true;
}

// --- L1 half: L1 + DCU next-line + DCU IP-stride ---------------------------

L1Model::L1Model(const MachineDesc& machine, const PrefetcherConfig& prefetch)
    : line_shift_(log2_exact(machine.line_bytes)),
      next_line_(prefetch.dcu_next_line),
      ip_(prefetch.dcu_ip),
      cache_(machine.l1_size_bytes, machine.l1_assoc, machine.line_bytes) {}

void L1Model::prefetch(std::uint64_t line, L2Requests& out) {
  if (!cache_.fill(line, /*prefetched=*/true)) return;
  ++stats_.prefetches_issued;
  out.push(line, /*demand=*/false);
}

L2Requests L1Model::access(const MemoryAccess& access) {
  L2Requests out;
  ++stats_.accesses;
  const std::uint64_t line = access.address >> line_shift_;

  // DCU IP-correlated prefetcher trains on every access.
  if (ip_) {
    if (access.pc >= stride_table_.size())
      stride_table_.resize(static_cast<std::size_t>(access.pc) + 1);
    StrideEntry& entry = stride_table_[access.pc];
    std::int64_t stride = static_cast<std::int64_t>(access.address) -
                          static_cast<std::int64_t>(entry.last_address);
    if (entry.last_address != 0 && stride != 0 && stride == entry.stride) {
      if (++entry.confidence >= 2)
        prefetch((access.address + 2 * stride) >> line_shift_, out);
    } else {
      entry.stride = stride;
      entry.confidence = 0;
    }
    entry.last_address = access.address;
  }

  const SetAssociativeCache::Lookup hit = cache_.access(line);
  if (hit != SetAssociativeCache::Lookup::Miss) {
    ++stats_.l1_hits;
    if (hit == SetAssociativeCache::Lookup::PrefetchedHit)
      ++stats_.prefetch_hits;
    return out;
  }

  // DCU next-line prefetcher triggers on L1 demand misses.
  if (next_line_) prefetch(line + 1, out);
  // The demand miss fills L1 whatever L2 answers.
  out.push(line, /*demand=*/true);
  cache_.fill(line, /*prefetched=*/false);
  return out;
}

CacheStats L1Model::stats() const {
  CacheStats s = stats_;
  s.prefetch_unused = cache_.polluting_evictions();
  return s;
}

// --- L2 half: L2 + adjacent-line + streamer --------------------------------

L2Model::L2Model(const MachineDesc& machine, const PrefetcherConfig& prefetch)
    : page_shift_(log2_exact(4096 / machine.line_bytes)),
      adjacent_(prefetch.l2_adjacent),
      streamer_(prefetch.l2_streamer),
      cache_(machine.l2_size_bytes, machine.l2_assoc, machine.line_bytes) {}

void L2Model::prefetch(std::uint64_t line) {
  if (cache_.fill(line, /*prefetched=*/true)) ++stats_.prefetches_issued;
}

void L2Model::streamer_observe(std::uint64_t line) {
  const std::uint64_t page = line >> page_shift_;
  StreamEntry* entry = nullptr;
  for (int i = 0; i < num_streams_; ++i) {
    if (streams_[i].page == page) {
      entry = &streams_[i];
      break;
    }
  }
  if (entry == nullptr) {
    if (num_streams_ == kMaxStreams + 1) num_streams_ = 0;  // recycle all
    entry = &streams_[num_streams_++];
    *entry = StreamEntry{};
    entry->page = page;
  }

  if (entry->confidence > 0) {
    int direction = line > entry->last_line   ? 1
                    : line < entry->last_line ? -1
                                              : 0;
    if (direction != 0 && direction == entry->direction) {
      if (++entry->confidence >= 2) {
        for (int d = 1; d <= kStreamDistance; ++d)
          prefetch(line + static_cast<std::uint64_t>(direction * d));
      }
    } else if (direction != 0) {
      entry->direction = direction;
      entry->confidence = 1;
    }
  } else {
    entry->confidence = 1;
    entry->direction = 1;
  }
  entry->last_line = line;
}

void L2Model::request(const L2Request& request) {
  if (!request.demand) {
    // An L1 prefetch fill; counted as issued by the L1 half.
    cache_.fill(request.line, /*prefetched=*/true);
    return;
  }
  if (streamer_) streamer_observe(request.line);
  const SetAssociativeCache::Lookup hit = cache_.access_or_fill(request.line);
  if (hit != SetAssociativeCache::Lookup::Miss) {
    ++stats_.l2_hits;
    if (hit == SetAssociativeCache::Lookup::PrefetchedHit)
      ++stats_.prefetch_hits;
    return;
  }
  // Demand miss beyond L2, now filled; fetch the 128-byte buddy with it.
  ++stats_.l2_misses;
  if (adjacent_) prefetch(request.line ^ 1ull);
}

CacheStats L2Model::stats() const {
  CacheStats s = stats_;
  s.prefetch_unused = cache_.polluting_evictions();
  return s;
}

// --- Composition ------------------------------------------------------------

std::array<CacheStats, 16> simulate_all_masks(
    const MachineDesc& machine, const std::vector<MemoryAccess>& trace) {
  // Mask bits 2 and 3 disable the DCU prefetchers, bits 0 and 1 the L2 ones.
  std::array<CacheStats, 16> out;
  std::vector<L2Request> log;
  log.reserve(trace.size() * 2);
  for (int dcu_bits = 0; dcu_bits < 4; ++dcu_bits) {
    L1Model l1(machine, PrefetcherConfig::from_msr_mask(dcu_bits << 2));
    log.clear();
    for (const MemoryAccess& access : trace) {
      const L2Requests requests = l1.access(access);
      log.insert(log.end(), requests.items.begin(),
                 requests.items.begin() + requests.size);
    }
    const CacheStats l1_stats = l1.stats();
    for (int l2_bits = 0; l2_bits < 4; ++l2_bits) {
      const int mask = (dcu_bits << 2) | l2_bits;
      L2Model l2(machine, PrefetcherConfig::from_msr_mask(mask));
      for (const L2Request& request : log) l2.request(request);
      out[mask] = l1_stats;
      out[mask] += l2.stats();
    }
  }
  return out;
}

}  // namespace irgnn::sim
