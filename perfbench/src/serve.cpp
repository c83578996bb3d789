// Serve phase: open-loop Poisson traffic over loopback TCP into a
// net::NetServer + serve::Router configured like irgnn_served's defaults
// (hidden 64, 3 layers, cache 4096, batch 64, 200 us window, queue 256,
// Reject).
//
// Workload "hot": Zipf(s=1) over the unique region graphs of a 64-sequence
// flag-variant dataset (~333-392 fingerprints, far below the 4096 cache
// entries), so after warm-up nearly every request is a cache hit.
// Workload "cold": every request is a distinct variant of a suite graph,
// three constants re-bucketed to other magnitudes (the same kernel at
// another extent), so every request misses, inserts and evicts.
//
// One generator thread owns one non-blocking connection. Requests are timed
// from their scheduled send time; the generator's lag behind the schedule
// is reported, and a phase whose generator fell behind is invalid rather
// than fast. Phases: light rate, heavy rate, then a ladder of rates that
// climbs until a step misses the tail-latency limit, fails a request, or
// leaves a backlog larger than the limit allows; max_rate_qps is the
// highest step that passed. Every answer is checked against StaticModel::predict_into on the
// same graph, and the wire stats frame against its conservation law.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_set>

#include "bench.h"
#include "core/dataset.h"
#include "gnn/graph_batch.h"
#include "gnn/model.h"
#include "graph/fingerprint.h"
#include "net/codec.h"
#include "net/server.h"
#include "serve/router.h"
#include "support/arena.h"
#include "support/rng.h"
#include "tensor/tensor.h"

namespace perfbench {

using namespace irgnn;

namespace {

constexpr std::size_t kVariantConstants = 3;  // constants re-bucketed (cold)
constexpr std::uint64_t kVariants = 1u << (3 * kVariantConstants);
/// Dataset seed of the traffic's base graphs. Fixed, so every run serves
/// the same graphs; --seed drives arrivals, Zipf ranks and variant choice.
constexpr std::uint64_t kTrafficDatasetSeed = 0xDA7A;

enum Phase : std::uint8_t { kWarmup, kLight, kHeavy, kLadder };

/// Frozen serving parameters of a workload; BENCHMARK.json's workload
/// descriptions state them too, and run.py checks that the two agree. The
/// light and heavy rates are ~10-18% and ~35% of the max_rate_qps measured
/// when the benchmark was defined (4-vCPU x86-64 VM with AVX-512); a heavier
/// fixed rate sits so near the knee that the host's varying steal time
/// swings its latency 2-3x between runs. The ladder climbs start at ~70%
/// of that max_rate_qps.
struct ServeLimits {
  double light_qps, heavy_qps;
  double ladder_start_qps;
  double p99_limit_us;  // tail latency a ladder step must stay within
  double lag_limit_us;  // median generator lag a valid slice stays within
};
constexpr ServeLimits kHotLimits{16000, 60000, 120000, 10000, 100};
constexpr ServeLimits kColdLimits{500, 1000, 2000, 50000, 1000};

/// The request stream: request index -> graph, deterministic in (seed, i).
class Traffic {
 public:
  Traffic(bool hot, std::uint64_t seed, std::vector<graph::ProgramGraph> unique)
      : hot_(hot), seed_(seed), unique_(std::move(unique)) {
    // Zipf(s=1) over a seeded ranking of the unique graphs.
    rank_.resize(unique_.size());
    for (std::size_t i = 0; i < rank_.size(); ++i) rank_[i] = i;
    Rng rng(irgnn::hash_combine64(seed, 0x21FF));
    rng.shuffle(rank_);
    double mass = 0;
    for (std::size_t i = 0; i < unique_.size(); ++i) {
      mass += 1.0 / static_cast<double>(i + 1);
      cdf_.push_back(mass);
    }
    for (double& c : cdf_) c /= mass;
    // Cold variants re-bucket the first constants of graphs that have
    // enough of them.
    for (std::size_t g = 0; g < unique_.size(); ++g) {
      std::vector<std::int32_t> consts;
      for (std::size_t n = 0; n < unique_[g].nodes.size(); ++n)
        if (unique_[g].nodes[n].kind == graph::NodeKind::Constant)
          consts.push_back(static_cast<std::int32_t>(n));
      if (consts.size() >= kVariantConstants) {
        consts.resize(kVariantConstants);
        bases_.push_back(g);
        constants_.push_back(consts);
      }
    }
    if (!hot_) build_cold_stream();
  }

  bool hot() const { return hot_; }
  const std::vector<graph::ProgramGraph>& unique() const { return unique_; }
  /// Requests the cold stream can serve before a graph would repeat.
  std::uint64_t cold_capacity() const { return cold_.size(); }

  /// Hot: the unique-graph index request i draws.
  std::size_t hot_index(std::uint64_t i) const {
    Rng rng(irgnn::hash_combine64(seed_, i));
    const double u = rng.uniform();
    const std::size_t r = static_cast<std::size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return rank_[std::min(r, rank_.size() - 1)];
  }

  /// The graph of request i; cold variants are built into `scratch`.
  const graph::ProgramGraph& graph(std::uint64_t i,
                                   graph::ProgramGraph& scratch) const {
    if (hot_) return unique_[hot_index(i)];
    const ColdRequest& c = cold_[i % cold_.size()];
    scratch = unique_[bases_[c.base]];
    rebucket(c.base, c.variant, scratch);
    return scratch;
  }

 private:
  struct ColdRequest {
    std::uint32_t base;     // index into bases_
    std::uint32_t variant;  // 1..kVariants-1
  };

  /// Variant v shifts the magnitude bucket of base b's k-th re-bucketed
  /// constant by octal digit k of v (v = 0 would be the base graph itself).
  void rebucket(std::size_t b, std::uint64_t v, graph::ProgramGraph& g) const {
    const int c0 = graph::constant_feature(0, 0);
    for (std::size_t k = 0; k < kVariantConstants; ++k) {
      const int digit = static_cast<int>((v >> (3 * k)) & 7);
      int& f = g.nodes[constants_[b][k]].feature;
      const int type = (f - c0) / 8, bucket = (f - c0) % 8;
      f = c0 + type * 8 + (bucket + digit) % 8;
    }
  }

  /// Orders every (base, variant) pair, both rotated by the seed so that
  /// consecutive requests differ, and keeps the first pair of each distinct
  /// graph. Two variants are the same graph (the same cache key) exactly
  /// when their bases agree outside the re-bucketed constants and those
  /// constants land in the same buckets, so a pair is keyed by the
  /// fingerprint of its base with those buckets cleared plus its buckets.
  void build_cold_stream() {
    const int c0 = graph::constant_feature(0, 0);
    std::vector<std::uint64_t> skeleton(bases_.size());
    for (std::size_t b = 0; b < bases_.size(); ++b) {
      graph::ProgramGraph g = unique_[bases_[b]];
      for (std::int32_t n : constants_[b]) {
        int& f = g.nodes[n].feature;
        f = c0 + (f - c0) / 8 * 8;
      }
      skeleton[b] = graph::fingerprint(g);
    }
    std::unordered_set<std::uint64_t> seen;
    const std::uint64_t B = bases_.size();
    for (std::uint64_t j = seed_ % B; j < seed_ % B + B * (kVariants - 1); ++j) {
      const std::size_t b = static_cast<std::size_t>(j % B);
      const std::uint64_t v = (j / B + seed_) % (kVariants - 1) + 1;
      std::uint64_t key = skeleton[b];
      for (std::size_t k = 0; k < kVariantConstants; ++k) {
        const int f = unique_[bases_[b]].nodes[constants_[b][k]].feature - c0;
        key = irgnn::hash_combine64(key, static_cast<std::uint64_t>(
                                             (f % 8 + ((v >> (3 * k)) & 7)) % 8));
      }
      if (seen.insert(key).second)
        cold_.push_back({static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(v)});
    }
  }

  bool hot_;
  std::uint64_t seed_;
  std::vector<graph::ProgramGraph> unique_;
  std::vector<std::size_t> rank_;
  std::vector<double> cdf_;
  std::vector<std::size_t> bases_;
  std::vector<std::vector<std::int32_t>> constants_;
  std::vector<ColdRequest> cold_;  // cold: request index -> distinct graph
};

struct Request {
  std::int64_t sched_ns = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::int64_t queue_us = 0;
  std::int64_t compute_us = 0;
  std::uint32_t span = 0;
  std::int32_t label = -1;
  std::uint32_t graph = 0;      // hot: index of the unique graph sent
  std::uint8_t status = 0xFF;  // wire status; 0xFF: unanswered
};

struct PhaseStats {
  double rate = 0, duration_s = 0;
  std::uint64_t sent = 0, ok = 0, refused = 0, shed = 0, deadline = 0,
                other = 0, wrong = 0, unanswered = 0;
  std::uint64_t backlog_end = 0;  // unanswered when the schedule ended
  bool aborted = false;           // schedule cut short by its backlog cap
  Dist latency_us, lag_us, queue_us, compute_us, overhead_us;
  /// Latency in schedule order, split into three equal-count windows when
  /// each holds kWindowSamples, else one window.
  std::vector<Dist> window_us;
  std::uint64_t failures() const {
    return refused + shed + deadline + other + wrong + unanswered;
  }
  /// The percentile the tail is judged on: p99 when every window has at
  /// least ten samples beyond it, else the highest percentile that has.
  double tail_percentile() const {
    double p = 99.0;
    for (const Dist& w : window_us) p = std::min(p, w.max_supported_percentile());
    return p;
  }
  /// Median over windows of each window's tail percentile: a host stall of
  /// a few milliseconds inflates one window's tail, not the step's.
  double tail_us() {
    const double p = tail_percentile();
    Dist per_window;
    for (Dist& w : window_us) per_window.add(w.percentile(p));
    return per_window.median();
  }
  /// Pools `o`'s counts and samples into this, in one window.
  void merge(const PhaseStats& o) {
    rate = o.rate;
    duration_s += o.duration_s;
    sent += o.sent;
    ok += o.ok;
    refused += o.refused;
    shed += o.shed;
    deadline += o.deadline;
    other += o.other;
    wrong += o.wrong;
    unanswered += o.unanswered;
    backlog_end = std::max(backlog_end, o.backlog_end);
    latency_us.append(o.latency_us);
    window_us.resize(1);
    window_us[0].append(o.latency_us);
    lag_us.append(o.lag_us);
    queue_us.append(o.queue_us);
    compute_us.append(o.compute_us);
    overhead_us.append(o.overhead_us);
  }
};

/// Median over rounds of each round's latency percentile `p`.
double round_median(std::vector<PhaseStats>& rounds, double p) {
  Dist per_round;
  for (PhaseStats& r : rounds) per_round.add(r.latency_us.percentile(p));
  return per_round.median();
}

/// Lowest over rounds of each round's latency percentile `p`.
double round_min(std::vector<PhaseStats>& rounds, double p) {
  Dist per_round;
  for (PhaseStats& r : rounds) per_round.add(r.latency_us.percentile(p));
  return per_round.percentile(0);
}

constexpr std::size_t kRounds = 12;      // light/heavy/ladder rounds
constexpr std::size_t kClimbs = 3;       // interleaved ladder climbs
/// Samples a latency window needs for its p99 to have ten beyond it.
constexpr std::uint64_t kWindowSamples = 1000;
constexpr double kLadderRatio = 1.15;     // coarse climb per step
constexpr double kLadderFineRatio = 1.04; // fine climb after the coarse fail

/// One climb of the rate ladder. From the start rate it climbs by
/// kLadderRatio until a rate fails twice in a row, then by kLadderFineRatio
/// from the last rate that passed up to the one that failed, ending at the
/// next double failure. If the start rate itself fails twice it descends by
/// kLadderRatio until a rate passes, then climbs finely the same way.
struct Ladder {
  explicit Ladder(double start) : rate(start) {}
  void record(bool pass) {
    if (pass) {
      max_rate = std::max(max_rate, rate);
      if (!fine && descending) {
        fine = true;  // the rate above this one failed
        ceiling = rate * kLadderRatio;
      }
      rate *= fine ? kLadderFineRatio : kLadderRatio;
      attempt = 0;
    } else if (++attempt == 2) {
      attempt = 0;
      if (fine) {
        climbing = false;
      } else if (max_rate == 0) {
        descending = true;
        rate /= kLadderRatio;
      } else {
        fine = true;
        ceiling = rate;
        rate = max_rate * kLadderFineRatio;
      }
    }
    if ((fine && rate >= ceiling * 0.9999) || rate < 1) climbing = false;
  }
  double rate;
  double max_rate = 0;
  double ceiling = 0;  // the coarse rate that failed
  int attempt = 0;
  bool fine = false, descending = false, climbing = true;
};

/// The generator's single non-blocking loopback connection.
class Generator {
 public:
  Generator(const Traffic& traffic, const std::vector<int>& hot_expected)
      : traffic_(traffic), hot_expected_(hot_expected) {
    if (traffic.hot())
      for (const graph::ProgramGraph& g : traffic.unique()) {
        hot_frames_.emplace_back();
        net::encode_request_into(0, serve::Request(g), hot_frames_.back());
      }
  }
  ~Generator() {
    if (fd_ >= 0) ::close(fd_);
  }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  bool connect(std::uint16_t port);
  /// Runs one open-loop phase at `rate` for `duration_s`. kWarmup on hot
  /// traffic sweeps the unique graphs in order instead of drawing them.
  /// A ladder step passes `abort_backlog` > 0: once that many requests are
  /// unanswered the step has failed, and its schedule ends early so an
  /// overloaded server is not flooded further.
  PhaseStats run(Phase phase, double rate, double duration_s,
                 double drain_cap_s, std::uint64_t seed,
                 std::uint64_t abort_backlog = 0);
  bool get_stats(net::WireStats* out);

  std::deque<Request>& requests() { return requests_; }
  std::uint64_t protocol_errors() const { return protocol_errors_; }

 private:
  void flush(std::int64_t now);
  void read_available(std::int64_t* now);
  void handle_response(const net::DecodedResponse& d, std::int64_t now);

  const Traffic& traffic_;
  const std::vector<int>& hot_expected_;
  int fd_ = -1;
  std::deque<Request> requests_;  // by tag; a deque never moves on growth
  std::uint64_t outstanding_ = 0;
  std::uint64_t protocol_errors_ = 0;
  net::FrameBytes out_;
  std::size_t out_ofs_ = 0;
  std::vector<std::pair<std::uint64_t, std::size_t>> unsent_;  // (req, end)
  std::size_t unsent_head_ = 0;
  std::vector<std::uint8_t> in_;
  std::size_t in_ofs_ = 0, in_end_ = 0;
  graph::ProgramGraph scratch_;
  bool stats_ready_ = false;
  net::WireStats stats_;
  std::vector<net::FrameBytes> hot_frames_;  // per unique graph, tag 0
};

bool Generator::connect(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0)
    return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return ::fcntl(fd_, F_SETFL, ::fcntl(fd_, F_GETFL) | O_NONBLOCK) == 0;
}

void Generator::flush(std::int64_t now) {
  while (out_ofs_ < out_.size()) {
    const ssize_t n = ::send(fd_, out_.data() + out_ofs_,
                             out_.size() - out_ofs_, MSG_NOSIGNAL);
    if (n <= 0) break;
    out_ofs_ += static_cast<std::size_t>(n);
  }
  while (unsent_head_ < unsent_.size() &&
         unsent_[unsent_head_].second <= out_ofs_) {
    requests_[unsent_[unsent_head_].first].sent_ns = now;
    ++unsent_head_;
  }
  if (out_ofs_ == out_.size()) {
    out_.clear();
    out_ofs_ = 0;
    unsent_.clear();
    unsent_head_ = 0;
  }
}

void Generator::handle_response(const net::DecodedResponse& d,
                                std::int64_t now) {
  if (d.tag >= requests_.size() || requests_[d.tag].status != 0xFF) {
    ++protocol_errors_;  // unknown or duplicate tag
    return;
  }
  Request& r = requests_[d.tag];
  r.recv_ns = now;
  r.status = net::wire_status(d.response.status);
  r.label = d.response.label;
  r.queue_us = d.response.queue_us;
  r.compute_us = d.response.compute_us;
  --outstanding_;
}

void Generator::read_available(std::int64_t* now) {
  // [in_ofs_, in_end_) holds unparsed bytes of a buffer that only grows.
  if (in_.empty()) in_.resize(1u << 20);
  if (in_ofs_ > 0) {
    std::memmove(in_.data(), in_.data() + in_ofs_, in_end_ - in_ofs_);
    in_end_ -= in_ofs_;
    in_ofs_ = 0;
  }
  for (;;) {
    if (in_end_ == in_.size()) in_.resize(2 * in_.size());
    const std::size_t space = in_.size() - in_end_;
    const ssize_t n = ::recv(fd_, in_.data() + in_end_, space, 0);
    if (n > 0) in_end_ += static_cast<std::size_t>(n);
    if (n < static_cast<ssize_t>(space)) break;
  }
  *now = Tracer::get().now_ns();
  net::DecodedResponse decoded;
  while (in_end_ - in_ofs_ >= net::kHeaderBytes) {
    net::FrameHeader header;
    if (!net::decode_header(in_.data() + in_ofs_, in_end_ - in_ofs_, &header)
             .ok()) {
      ++protocol_errors_;
      in_ofs_ = in_end_;
      break;
    }
    const std::size_t total = net::kHeaderBytes + header.payload_bytes;
    if (in_end_ - in_ofs_ < total) break;
    const std::uint8_t* payload = in_.data() + in_ofs_ + net::kHeaderBytes;
    if (header.type == net::FrameType::kResponse) {
      const Clock::time_point t0 = Clock::now();
      const bool ok =
          net::decode_response(payload, header.payload_bytes, &decoded).ok();
      const Clock::time_point t1 = Clock::now();
      if (ok) {
        if (decoded.tag < requests_.size() && requests_[decoded.tag].span != 0) {
          Tracer& tr = Tracer::get();
          tr.record("net.decode_response", requests_[decoded.tag].span,
                    decoded.tag, tr.to_ns(t0), tr.to_ns(t1));
          tr.close(requests_[decoded.tag].span);
        }
        handle_response(decoded, *now);
      } else {
        ++protocol_errors_;
      }
    } else if (header.type == net::FrameType::kStatsReply) {
      stats_ready_ = net::decode_stats_reply(payload, header.payload_bytes,
                                             &stats_).ok();
      if (!stats_ready_) ++protocol_errors_;
    } else {
      ++protocol_errors_;
    }
    in_ofs_ += total;
  }
}

PhaseStats Generator::run(Phase phase, double rate, double duration_s,
                          double drain_cap_s, std::uint64_t seed,
                          std::uint64_t abort_backlog) {
  Tracer& tr = Tracer::get();
  PhaseStats ps;
  ps.rate = rate;
  ps.duration_s = duration_s;
  Rng rng(seed);
  const std::size_t first = requests_.size();
  const std::int64_t start = tr.now_ns() + 1000000;
  const std::int64_t end = start + static_cast<std::int64_t>(duration_s * 1e9);
  const std::int64_t deadline = end + static_cast<std::int64_t>(drain_cap_s * 1e9);
  auto gap = [&] {
    return static_cast<std::int64_t>(-std::log1p(-rng.uniform()) / rate * 1e9);
  };
  std::int64_t next = start + gap();
  std::int64_t end_sched = end;  // lowered when the step aborts
  bool schedule_done = false;
  for (;;) {
    std::int64_t now = tr.now_ns();
    while (next <= now && next < end_sched) {
      const std::uint64_t idx = requests_.size();
      Request r;
      r.sched_ns = next;
      // Every light request is traced; heavy and ladder requests 1 in 16,
      // which keeps a traced run's span file to tens of megabytes.
      if (tr.enabled() && (phase == kLight || idx % 16 == 0))
        r.span = tr.record("net.request", 0, idx, next, next);
      requests_.push_back(r);
      const Clock::time_point t0 = Clock::now();
      if (traffic_.hot()) {
        // Hot graphs repeat: copy the graph's frame encoded at set-up and
        // patch in this request's tag (the payload's first 8 bytes).
        requests_.back().graph = static_cast<std::uint32_t>(
            phase == kWarmup ? (idx - first) % hot_frames_.size()
                             : traffic_.hot_index(idx));
        const net::FrameBytes& frame = hot_frames_[requests_.back().graph];
        out_.insert(out_.end(), frame.begin(), frame.end());
        std::uint8_t* tag = out_.data() + out_.size() - frame.size() + net::kHeaderBytes;
        for (int b = 0; b < 8; ++b) tag[b] = static_cast<std::uint8_t>(idx >> (8 * b));
      } else {
        net::encode_request_into(idx, serve::Request(traffic_.graph(idx, scratch_)), out_);
      }
      if (r.span != 0)
        tr.record(traffic_.hot() ? "loadgen.copy_frame" : "net.encode_request",
                  r.span, idx, tr.to_ns(t0), tr.now_ns());
      unsent_.push_back({idx, out_.size()});
      ++outstanding_;
      next += gap();
    }
    if (out_ofs_ < out_.size()) flush(tr.now_ns());
    read_available(&now);
    if (abort_backlog > 0 && !schedule_done && outstanding_ > abort_backlog) {
      ps.aborted = true;
      end_sched = now;
    }
    if (!schedule_done && next >= end_sched && now >= end_sched) {
      schedule_done = true;
      ps.backlog_end = outstanding_;
    }
    if (schedule_done && outstanding_ == 0 && out_.empty()) break;
    if (now > deadline) break;
    // The generator busy-polls its socket while the schedule runs: sleeping
    // would add the host's timer and wake-up jitter to every send time.
    if (schedule_done) {
      pollfd pfd{fd_, static_cast<short>(POLLIN | (out_.empty() ? 0 : POLLOUT)), 0};
      ::poll(&pfd, 1, 1);
    }
  }

  std::uint64_t answered = 0, k = 0;
  for (std::size_t i = first; i < requests_.size(); ++i)
    answered += requests_[i].status != 0xFF;
  ps.window_us.resize(answered >= 3 * kWindowSamples ? 3 : 1);
  for (std::size_t i = first; i < requests_.size(); ++i) {
    const Request& r = requests_[i];
    ++ps.sent;
    if (r.status == 0xFF) {
      ++ps.unanswered;
      continue;
    }
    const support::StatusCode code = static_cast<support::StatusCode>(r.status);
    if (code == support::StatusCode::kOk) {
      ++ps.ok;
      if (traffic_.hot() && r.label != hot_expected_[r.graph])
        ++ps.wrong;
    } else if (code == support::StatusCode::kOverloaded) {
      ++ps.refused;
    } else if (code == support::StatusCode::kDeadlineExceeded) {
      ++ps.deadline;
    } else {
      ++ps.other;
    }
    const double latency_us = static_cast<double>(r.recv_ns - r.sched_ns) * 1e-3;
    ps.latency_us.add(latency_us);
    ps.window_us[k++ * ps.window_us.size() / answered].add(latency_us);
    ps.lag_us.add(static_cast<double>(r.sent_ns - r.sched_ns) * 1e-3);
    if (code == support::StatusCode::kOk) {
      ps.queue_us.add(static_cast<double>(r.queue_us));
      ps.compute_us.add(static_cast<double>(r.compute_us));
      ps.overhead_us.add(static_cast<double>(r.recv_ns - r.sent_ns) * 1e-3 -
                         static_cast<double>(r.queue_us + r.compute_us));
    }
  }
  return ps;
}

bool Generator::get_stats(net::WireStats* out) {
  stats_ready_ = false;
  net::encode_stats_request_into(out_);
  const std::int64_t deadline = Tracer::get().now_ns() + 2000000000LL;
  std::int64_t now = Tracer::get().now_ns();
  while (!stats_ready_ && now < deadline) {
    flush(now);
    pollfd pfd{fd_, POLLIN, 0};
    ::poll(&pfd, 1, 10);
    read_available(&now);
  }
  if (stats_ready_) *out = stats_;
  return stats_ready_;
}

// --- Traced probes --------------------------------------------------------------

/// Median over `reps` of (time of fn() over the whole sample) / sample size.
template <typename F>
double per_call_ns(std::size_t calls, int reps, F&& fn) {
  Dist d;
  for (int rep = 0; rep < reps; ++rep) {
    const Clock::time_point t0 = Clock::now();
    fn();
    d.add(std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
          static_cast<double>(calls));
  }
  return d.median();
}

void codec_probe(const std::vector<const graph::ProgramGraph*>& graphs,
                 Result& result) {
  const std::size_t n = graphs.size();
  std::vector<net::FrameBytes> frames(n);
  for (std::size_t i = 0; i < n; ++i)
    net::encode_request_into(i, serve::Request(*graphs[i]), frames[i]);
  net::FrameBytes scratch;
  result.metric("net.encode_request_ns", per_call_ns(n, 21, [&] {
                  for (std::size_t i = 0; i < n; ++i) {
                    scratch.clear();
                    net::encode_request_into(i, serve::Request(*graphs[i]), scratch);
                  }
                }), "ns");
  graph::ProgramGraph decoded;
  net::DecodedRequest request;
  bool ok = true;
  result.metric("net.decode_request_ns", per_call_ns(n, 21, [&] {
                  for (std::size_t i = 0; i < n; ++i)
                    ok = net::decode_request(frames[i].data() + net::kHeaderBytes,
                                             frames[i].size() - net::kHeaderBytes,
                                             &request, &decoded)
                             .ok() && ok;
                }), "ns");
  result.check(ok, "codec probe: a request frame failed to decode");
  serve::Response response;
  response.label = 3;
  response.model_version = 1;
  response.queue_us = 120;
  response.compute_us = 900;
  std::vector<net::FrameBytes> replies(n);
  for (std::size_t i = 0; i < n; ++i)
    net::encode_response_into(i, response, replies[i]);
  result.metric("net.encode_response_ns", per_call_ns(n, 21, [&] {
                  for (std::size_t i = 0; i < n; ++i) {
                    scratch.clear();
                    net::encode_response_into(i, response, scratch);
                  }
                }), "ns");
  net::DecodedResponse reply;
  result.metric("net.decode_response_ns", per_call_ns(n, 21, [&] {
                  for (std::size_t i = 0; i < n; ++i)
                    ok = net::decode_response(replies[i].data() + net::kHeaderBytes,
                                              replies[i].size() - net::kHeaderBytes,
                                              &reply)
                             .ok() && ok;
                }), "ns");
  result.check(ok, "codec probe: a response frame failed to decode");
  std::uint64_t sink = 0;
  result.metric("graph.fingerprint_ns", per_call_ns(n, 21, [&] {
                  for (std::size_t i = 0; i < n; ++i)
                    sink ^= graph::fingerprint(*graphs[i]);
                }), "ns");
  result.note("fingerprint_sink", std::to_string(sink & 1));
}

/// gnn and tensor probes at the shapes of one 64-graph serving batch, on a
/// single thread like the serving loop's forward.
void model_probe(const gnn::ModelConfig& served,
                 const std::vector<const graph::ProgramGraph*>& batch64,
                 Result& result) {
  gnn::ModelConfig cfg = served;
  cfg.num_threads = 1;
  tensor::set_kernel_parallelism(1);
  const gnn::StaticModel model(cfg);
  std::vector<int> out;
  std::vector<const graph::ProgramGraph*> one(1);
  result.metric("gnn.predict_us.b1", per_call_ns(batch64.size(), 7, [&] {
                  for (const graph::ProgramGraph* g : batch64) {
                    one[0] = g;
                    model.predict_into(one, out);
                  }
                }) * 1e-3, "us");
  result.metric("gnn.predict_us.b64", per_call_ns(batch64.size(), 7, [&] {
                  model.predict_into(batch64, out);
                }) * 1e-3, "us");
  gnn::GraphBatch batch;
  result.metric("gnn.make_batch_us", per_call_ns(1, 21, [&] {
                  gnn::make_batch_into(batch, batch64, 1);
                }) * 1e-3, "us");

  // Kernel shapes: N nodes, E edges, H hidden, G graphs.
  const int N = batch.num_nodes(), H = served.hidden_dim,
            G = static_cast<int>(batch64.size());
  std::vector<int> dst;
  for (const auto& rel : batch.relations) dst.insert(dst.end(), rel.dst.begin(), rel.dst.end());
  const int E = static_cast<int>(dst.size());
  Rng rng(7);
  auto random = [&](int rows, int cols) {
    std::vector<float> v(static_cast<std::size_t>(rows) * cols);
    for (float& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
    return tensor::Tensor::from_data({rows, cols}, std::move(v));
  };
  const tensor::InferenceGuard guard;
  const tensor::Tensor x = random(N, H), w = random(H, H), xe = random(E, H);
  const std::vector<float> coeff(static_cast<std::size_t>(E), 0.5f);
  struct Kernel {
    const char* name;
    double ops, bytes;
    double ns;
  };
  const double f = 4.0;  // bytes per float / int32
  const Kernel kernels[] = {
      {"matmul", 2.0 * N * H * H, f * (2.0 * N * H + H * H),
       per_call_ns(1, 31, [&] { tensor::matmul(x, w); })},
      {"index_add_rows", 2.0 * E * H, f * (E * H + 2.0 * E + double(N) * H),
       per_call_ns(1, 31, [&] { tensor::index_add_rows(xe, dst, coeff, N); })},
      {"segment_mean", double(N) * H + double(G) * H,
       f * (double(N) * H + N + double(G) * H),
       per_call_ns(1, 31, [&] { tensor::segment_mean(x, batch.segment, G); })},
  };
  for (const Kernel& k : kernels) {
    const std::string base = std::string("tensor.") + k.name;
    result.metric(base + "_gflops", k.ops / k.ns, "GFLOP/s");
    result.metric(base + "_ops", k.ops, "count");
    result.metric(base + "_bytes", k.bytes, "bytes");
  }
  result.note("tensor_shapes", "{\"nodes\":" + std::to_string(N) +
                                   ",\"edges\":" + std::to_string(E) +
                                   ",\"hidden\":" + std::to_string(H) +
                                   ",\"graphs\":" + std::to_string(G) + "}");
}

std::string phase_json(const char* name, PhaseStats& ps) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf),
                "{\"phase\":\"%s\",\"rate_qps\":%.1f,\"seconds\":%.3f,"
                "\"sent\":%llu,\"ok\":%llu,\"refused\":%llu,\"shed\":%llu,"
                "\"deadline\":%llu,\"other\":%llu,\"wrong\":%llu,"
                "\"unanswered\":%llu,\"backlog_end\":%llu,\"samples\":%zu,"
                "\"p50_us\":%.2f,\"tail_percentile\":%.2f,\"tail_us\":%.2f,"
                "\"lag_p50_us\":%.2f,\"lag_p99_us\":%.2f}",
                name, ps.rate, ps.duration_s,
                static_cast<unsigned long long>(ps.sent),
                static_cast<unsigned long long>(ps.ok),
                static_cast<unsigned long long>(ps.refused),
                static_cast<unsigned long long>(ps.shed),
                static_cast<unsigned long long>(ps.deadline),
                static_cast<unsigned long long>(ps.other),
                static_cast<unsigned long long>(ps.wrong),
                static_cast<unsigned long long>(ps.unanswered),
                static_cast<unsigned long long>(ps.backlog_end),
                ps.latency_us.size(), ps.latency_us.median(),
                ps.tail_percentile(), ps.tail_us(),
                ps.lag_us.median(), ps.lag_us.percentile(99));
  return buf;
}

}  // namespace

int run_serve(const PhaseArgs& args, Result& result) {
  const bool hot = args.workload == "hot";
  const ServeLimits& limits = hot ? kHotLimits : kColdLimits;
  const double light_qps = limits.light_qps, heavy_qps = limits.heavy_qps;
  const double limit_us = limits.p99_limit_us, lag_limit_us = limits.lag_limit_us;

  gnn::ModelConfig cfg;  // irgnn_served's defaults
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 13;
  cfg.hidden_dim = 64;
  cfg.num_layers = 3;
  cfg.seed = 24237;
  cfg.num_threads = 0;

  // --- Set-up, three times: model construction, traffic generation (a
  // 64-sequence flag-variant dataset under a different fixed seed each
  // time, so no repetition is a dataset-memo hit) and the hot ground truth.
  // The last repetition's traffic is served.
  Dist setup;
  std::unique_ptr<Traffic> traffic;
  std::shared_ptr<const gnn::StaticModel> model;
  std::vector<int> hot_expected;
  for (std::uint64_t rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    model = std::make_shared<const gnn::StaticModel>(cfg);
    const std::shared_ptr<const core::Dataset> dataset = core::build_dataset_shared(
        {64, irgnn::hash_combine64(kTrafficDatasetSeed, rep), 0});
    std::vector<graph::ProgramGraph> unique;
    std::unordered_set<std::uint64_t> seen;
    for (const auto& row : dataset->graphs)
      for (const graph::ProgramGraph& g : row)
        if (seen.insert(graph::fingerprint(g)).second) unique.push_back(g);
    traffic = std::make_unique<Traffic>(hot, args.seed, std::move(unique));
    std::vector<const graph::ProgramGraph*> ptrs;
    for (const auto& g : traffic->unique()) ptrs.push_back(&g);
    model->predict_into(ptrs, hot_expected);
    setup.add(seconds_since(t0));
  }

  serve::RouterConfig router_config;
  router_config.max_queue = 256;
  router_config.shed_policy = serve::ShedPolicy::Reject;
  router_config.server.max_batch = 64;
  router_config.server.max_wait_us = 200;
  router_config.server.cache_capacity = 4096;
  auto router = std::make_unique<serve::Router>(router_config);
  router->publish("static", model);
  net::NetServerConfig net_config;
  net_config.port = 0;
  net_config.shed_policy = serve::ShedPolicy::Reject;
  auto server = std::make_unique<net::NetServer>(*router, net_config);
  if (!server->start().ok()) {
    std::fprintf(stderr, "perfbench: NetServer failed to start\n");
    return 3;
  }
  Generator gen(*traffic, hot_expected);
  if (!gen.connect(server->port())) {
    std::fprintf(stderr, "perfbench: cannot connect to the server\n");
    return 3;
  }

  // Warm-up (part of setup_s): hot sweeps the unique graphs at 2,000/s (with
  // 20% slack on the Poisson count, so every one is sent) so the cache holds
  // the working set; both then run half a second at the heavy rate so the
  // arena, the batch scratch and the connection buffers are warm.
  const Clock::time_point w0 = Clock::now();
  if (hot)
    gen.run(kWarmup, 2000.0, 1.2 * static_cast<double>(traffic->unique().size()) / 2000.0,
            2.0, irgnn::hash_combine64(args.seed, 1));
  gen.run(kWarmup, heavy_qps, 0.5, 2.0, irgnn::hash_combine64(args.seed, 2));
  const double warmup_s = seconds_since(w0);
  result.metric("setup_s", setup.median() + warmup_s, "s");
  net::WireStats warm_stats;
  const bool have_warm_stats = gen.get_stats(&warm_stats);

  // --- Timed: kRounds rounds, each a light slice, a heavy slice and up to
  // three ladder steps. Light and heavy statistics are medians over rounds,
  // and ladder steps are spread over the whole run, so a host-scheduling
  // episode of a second or two spoils a few slices, not a metric.
  const double round_s = args.seconds / kRounds;
  const double light_s = 0.17 * round_s, heavy_s = 0.23 * round_s,
               step_s = 0.2 * round_s;
  std::vector<PhaseStats> light_rounds, heavy_rounds;
  PhaseStats light, heavy;  // pooled over rounds
  // max_rate_qps is the median of three climbs that take steps in turn, so
  // each spans the whole run: a climb cut short by a steal episode, or one
  // carried a step too far by a lucky quiet spell, does not set the metric.
  std::string steps = "[";
  std::uint64_t ladder_wrong = 0;
  int step_count = 0;
  std::vector<Ladder> climbs(kClimbs, Ladder(limits.ladder_start_qps));
  std::size_t turn = 0;
  auto ladder_step = [&] {
    while (!climbs[turn % kClimbs].climbing) ++turn;
    Ladder& ladder = climbs[turn++ % kClimbs];
    const double rate = ladder.rate;
    // Little's law: within the limit, at most rate x limit are in flight. A
    // step four times over that has failed and stops sending early.
    const double backlog_bound = std::max(128.0, rate * limit_us * 1e-6);
    PhaseStats step = gen.run(
        kLadder, rate, step_s, 1.0,
        irgnn::hash_combine64(args.seed, 100 + gen.requests().size()),
        static_cast<std::uint64_t>(4 * backlog_bound));
    ladder_wrong += step.wrong;
    const bool pass = !step.aborted && step.failures() == 0 &&
                      step.tail_us() <= limit_us &&
                      step.lag_us.median() <= lag_limit_us &&
                      static_cast<double>(step.backlog_end) <= backlog_bound;
    result.timing("latency_us.ladder_step" + std::to_string(++step_count),
                  step.latency_us, step.tail_percentile());
    steps += (steps.size() > 1 ? "," : "") + phase_json(pass ? "pass" : "fail", step);
    ladder.record(pass);
  };
  auto climbing = [&] {
    return std::any_of(climbs.begin(), climbs.end(),
                       [](const Ladder& l) { return l.climbing; });
  };
  // A traced run traces the odd rounds only; the even rounds measure the
  // same path untraced, so the gap between the two is the tracing overhead.
  for (std::size_t r = 0; r < kRounds; ++r) {
    Tracer::get().enable(args.trace && r % 2 == 1);
    light_rounds.push_back(gen.run(kLight, light_qps, light_s, 2.0,
                                   irgnn::hash_combine64(args.seed, 10 + r)));
    heavy_rounds.push_back(gen.run(kHeavy, heavy_qps, heavy_s, 2.0,
                                   irgnn::hash_combine64(args.seed, 30 + r)));
    light.merge(light_rounds.back());
    heavy.merge(heavy_rounds.back());
    for (std::size_t k = 0; k < kClimbs && climbing(); ++k) ladder_step();
  }
  // Climbs still going after the rounds continue, for at most a tenth of
  // the run.
  const Clock::time_point l0 = Clock::now();
  while (climbing() && seconds_since(l0) < 0.1 * args.seconds) ladder_step();
  Dist climb_rates;
  for (const Ladder& l : climbs) climb_rates.add(l.max_rate);
  const double max_rate = climb_rates.median();
  steps += "]";
  Tracer::get().enable(args.trace);

  net::WireStats ws;
  const bool have_stats = gen.get_stats(&ws);
  const serve::RouterStats rs = router->stats();
  const support::BufferPool::Stats pool = support::BufferPool::global().stats();
  server->shutdown();
  server.reset();
  router->shutdown();

  // --- Correctness.
  const std::uint64_t sent = gen.requests().size();
  result.check(gen.protocol_errors() == 0, "wire protocol errors on the generator connection");
  result.check(have_stats, "no stats frame");
  result.check(ws.cache_hits + ws.cache_misses + ws.coalesced == ws.queries,
               "stats frame: hits + misses + coalesced != queries");
  // Requests refused over a full write buffer are answered but not counted
  // as requests by the net layer.
  result.check(ws.net_requests + ws.net_backpressure_shed == sent,
               "server accounted for " +
                   std::to_string(ws.net_requests + ws.net_backpressure_shed) +
                   " requests, generator sent " + std::to_string(sent));
  result.check(ws.net_decode_errors == 0 && ws.net_protocol_errors == 0,
               "server saw decode or protocol errors");
  std::uint64_t wrong = light.wrong + heavy.wrong + ladder_wrong;
  if (!hot) {
    // Regenerate every answered cold variant and predict it directly.
    std::vector<graph::ProgramGraph> chunk;
    std::vector<std::uint64_t> index;
    std::vector<int> expected;
    auto verify = [&] {
      std::vector<const graph::ProgramGraph*> ptrs;
      for (const auto& g : chunk) ptrs.push_back(&g);
      model->predict_into(ptrs, expected);
      for (std::size_t k = 0; k < index.size(); ++k)
        wrong += gen.requests()[index[k]].label != expected[k];
      chunk.clear();
      index.clear();
    };
    graph::ProgramGraph scratch;
    for (std::uint64_t i = 0; i < gen.requests().size(); ++i) {
      const Request& r = gen.requests()[i];
      if (r.status != static_cast<std::uint8_t>(support::StatusCode::kOk)) continue;
      chunk.push_back(traffic->graph(i, scratch));
      index.push_back(i);
      if (chunk.size() == 512) verify();
    }
    if (!chunk.empty()) verify();
    result.check(sent <= traffic->cold_capacity(), "cold traffic repeated a graph");
    // Every cold request after the warm-up is a graph the cache has not
    // seen, so it misses.
    const std::uint64_t hits = ws.cache_hits + ws.coalesced -
                               warm_stats.cache_hits - warm_stats.coalesced;
    result.check(have_warm_stats && hits == 0,
                 "cold traffic hit the prediction cache " + std::to_string(hits) +
                     " times after the warm-up");
    result.note("cold_hits_after_warmup", std::to_string(hits));
  }
  result.check(wrong == 0, std::to_string(wrong) +
                               " served answers differ from StaticModel::predict_into");
  // A generator that fell behind its schedule would have offered less load
  // than the rate claims: such a run is invalid, not fast.
  const bool valid = light.lag_us.median() <= lag_limit_us &&
                     heavy.lag_us.median() <= lag_limit_us;
  result.check(valid, "generator fell behind its schedule (lag p50 light " +
                          std::to_string(light.lag_us.median()) + " us, heavy " +
                          std::to_string(heavy.lag_us.median()) + " us)");
  result.attempted(light.sent + heavy.sent);
  result.failed(light.failures() + heavy.failures());

  // --- End-to-end metrics.
  // The host's steal time only ever adds latency, and it shifts whole runs
  // by 20-70%: the bounded light-rate median is the quietest round's. The
  // median over rounds, the heavy-rate latency and the tails swing too far
  // between runs to bound; they are recorded with their sample counts.
  result.metric("p50_us.light", round_min(light_rounds, 50), "us");
  result.note("latency_us",
              "{\"p50.light\":" + std::to_string(round_median(light_rounds, 50)) +
                  ",\"p50.heavy\":" + std::to_string(round_median(heavy_rounds, 50)) +
                  ",\"p90.light\":" + std::to_string(round_median(light_rounds, 90)) +
                  ",\"p99.light\":" + std::to_string(round_median(light_rounds, 99)) +
                  ",\"p90.heavy\":" + std::to_string(round_median(heavy_rounds, 90)) +
                  ",\"p99.heavy\":" + std::to_string(round_median(heavy_rounds, 99)) +
                  ",\"pooled_max_supported.light\":" +
                  std::to_string(light.latency_us.percentile(
                      light.latency_us.max_supported_percentile())) +
                  ",\"pooled_max_supported.heavy\":" +
                  std::to_string(heavy.latency_us.percentile(
                      heavy.latency_us.max_supported_percentile())) +
                  "}");
  result.metric("max_rate_qps", max_rate, "1/s");
  result.timing("latency_us.light", light.latency_us, 50);
  result.timing("latency_us.heavy", heavy.latency_us, 50);
  std::string rounds = "{\"light\":[";
  for (std::size_t r = 0; r < kRounds; ++r) {
    char item[96];
    std::snprintf(item, sizeof(item), "%s[%zu,%.1f,%.1f,%.1f]", r ? "," : "",
                  light_rounds[r].latency_us.size(),
                  light_rounds[r].latency_us.median(),
                  light_rounds[r].latency_us.percentile(90),
                  light_rounds[r].latency_us.percentile(99));
    rounds += item;
  }
  rounds += "],\"heavy\":[";
  for (std::size_t r = 0; r < kRounds; ++r) {
    char item[96];
    std::snprintf(item, sizeof(item), "%s[%zu,%.1f,%.1f,%.1f]", r ? "," : "",
                  heavy_rounds[r].latency_us.size(),
                  heavy_rounds[r].latency_us.median(),
                  heavy_rounds[r].latency_us.percentile(90),
                  heavy_rounds[r].latency_us.percentile(99));
    rounds += item;
  }
  rounds += "],\"columns\":[\"samples\",\"p50_us\",\"p90_us\",\"p99_us\"]}";
  result.note("serve_rounds", rounds);
  result.note("serve_phases", "[" + phase_json("light", light) + "," +
                                  phase_json("heavy", heavy) + "]");
  result.note("ladder", steps);
  char cfgbuf[400];
  std::snprintf(cfgbuf, sizeof(cfgbuf),
                "{\"light_qps\":%g,\"heavy_qps\":%g,\"ladder_start_qps\":%g,"
                "\"ladder_ratio\":%g,\"ladder_fine_ratio\":%g,"
                "\"p99_limit_us\":%g,\"lag_limit_us\":%g,\"step_s\":%g,"
                "\"unique_graphs\":%zu,\"climbs_qps\":[%g,%g,%g]}",
                light_qps, heavy_qps, limits.ladder_start_qps, kLadderRatio,
                kLadderFineRatio, limit_us, lag_limit_us, step_s,
                traffic->unique().size(), climbs[0].max_rate, climbs[1].max_rate,
                climbs[2].max_rate);
  result.note("serve_config", cfgbuf);

  if (args.trace) {
    const double q = static_cast<double>(std::max<std::uint64_t>(ws.queries, 1));
    result.metric("serve.queue_us.p50", heavy.queue_us.median(), "us");
    result.metric("serve.queue_us.p99", heavy.queue_us.percentile(99), "us");
    result.metric("serve.compute_us.p50", heavy.compute_us.median(), "us");
    result.metric("serve.compute_us.p99", heavy.compute_us.percentile(99), "us");
    result.metric("serve.hit_ratio", static_cast<double>(ws.cache_hits) / q, "ratio");
    result.metric("serve.batch_mean",
                  ws.batches ? static_cast<double>(ws.forwards) / ws.batches : 0, "graphs");
    result.metric("serve.coalesced_share", static_cast<double>(ws.coalesced) / q, "ratio");
    std::uint64_t evictions = 0, peak_queue = 0;
    for (const auto& m : rs.models) {
      evictions += m.stats.cache.evictions;
      peak_queue = std::max(peak_queue, m.stats.peak_queue);
    }
    result.metric("serve.evictions", static_cast<double>(evictions), "count");
    result.metric("serve.peak_queue", static_cast<double>(peak_queue), "count");
    result.metric("serve.rejected", static_cast<double>(ws.rejected), "count");
    result.metric("serve.shed", static_cast<double>(ws.shed), "count");
    result.metric("net.overhead_us.p50", light.overhead_us.median(), "us");
    result.metric("net.overhead_us.p99", light.overhead_us.percentile(99), "us");
    result.metric("net.frames_in", static_cast<double>(ws.net_frames_in), "count");
    result.metric("net.frames_out", static_cast<double>(ws.net_frames_out), "count");
    result.metric("net.backpressure_shed", static_cast<double>(ws.net_backpressure_shed), "count");
    result.metric("net.decode_errors", static_cast<double>(ws.net_decode_errors), "count");
    result.metric("loadgen.lag_us.p50", light.lag_us.median(), "us");
    result.metric("loadgen.lag_us.p99", std::max(light.lag_us.percentile(99),
                                                 heavy.lag_us.percentile(99)), "us");
    result.metric("support.pool_cached_bytes",
                  static_cast<double>(pool.malloc_bytes - pool.trimmed_bytes -
                                      std::min(pool.outstanding_bytes,
                                               pool.malloc_bytes - pool.trimmed_bytes)),
                  "bytes");
    result.metric("support.pool_high_water_bytes",
                  static_cast<double>(pool.high_water_bytes), "bytes");
    result.timing("serve.queue_us", heavy.queue_us, 99);
    result.timing("net.overhead_us", light.overhead_us, 99);
    Dist p50_traced, p50_untraced;
    for (std::size_t r = 0; r < kRounds; ++r)
      (r % 2 ? p50_traced : p50_untraced).add(light_rounds[r].latency_us.median());
    result.metric("trace.overhead.p50_us.light",
                  p50_traced.median() - p50_untraced.median(), "us");

    // Probes over the workload's own graphs: 64 requests of the stream.
    std::vector<graph::ProgramGraph> sample(64);
    std::vector<const graph::ProgramGraph*> ptrs;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      graph::ProgramGraph scratch;
      sample[i] = traffic->graph(irgnn::hash_combine64(args.seed, i) % 100000, scratch);
    }
    for (const auto& g : sample) ptrs.push_back(&g);
    codec_probe(ptrs, result);
    model_probe(cfg, ptrs, result);
    finish_trace(args, "serve", result, {});
  }
  return 0;
}

}  // namespace perfbench
