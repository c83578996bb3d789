// Shared scaffolding of the perfbench phases: the span tracer, sample
// distributions, and the result object each phase prints as its last line.
//
// The tracer records spans only around calls the benchmark itself makes
// into libirgnn's public functions; nothing inside src/ is instrumented.
// Spans live in memory and are written out when the phase ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- Spans -------------------------------------------------------------------

/// One recorded span. `name` is a string literal "<layer>.<call>"; the layer
/// is the libirgnn module (src/<layer>/) the call enters, or "loadgen" for
/// the load generator's own work. `request` groups the spans of one served
/// request (0 outside the serving phase).
struct Span {
  const char* name = "";
  std::uint32_t id = 0;      // 1-based; 0 means "no span"
  std::uint32_t parent = 0;  // 0: root
  std::uint32_t thread = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  static Tracer& get();

  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::int64_t now_ns() const;
  std::int64_t to_ns(Clock::time_point t) const;

  /// Records a finished span and returns its id (0 when disabled or full).
  std::uint32_t record(const char* name, std::uint32_t parent,
                       std::uint64_t request, std::int64_t start_ns,
                       std::int64_t end_ns);
  /// Opens a span whose end is filled in by close(); returns its id.
  std::uint32_t open(const char* name, std::uint32_t parent,
                     std::uint64_t request = 0);
  void close(std::uint32_t id);

  std::size_t size() const;
  std::uint64_t dropped() const;

  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path) const;

  /// Self time per layer in seconds: each span's duration minus the part of
  /// it covered by its children, summed by layer.
  std::map<std::string, double> self_seconds_by_layer() const;
  /// Wall-clock attribution: at every instant, the wall time is split
  /// equally among the innermost spans open at that instant (concurrent
  /// folds share it), summed by layer. Over a root span whose children
  /// cover it, the values add up to the root's duration.
  std::map<std::string, double> wall_seconds_by_layer() const;
  /// Wall seconds of `root` covered by the union of its children.
  double child_coverage(std::uint32_t root) const;
  /// Sum of durations (seconds) of every span with this exact name.
  double total_seconds(const char* name) const;

 private:
  Tracer();
  static constexpr std::size_t kMaxSpans = 4u << 20;

  bool enabled_ = false;
  Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_ and dropped_
  std::vector<Span> spans_;
  std::uint64_t dropped_ = 0;
};

/// RAII span around one library call. Costs one branch when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint32_t parent = 0,
                      std::uint64_t request = 0)
      : id_(Tracer::get().enabled()
                ? Tracer::get().open(name, parent, request)
                : 0) {}
  ~ScopedSpan() {
    if (id_ != 0) Tracer::get().close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_;
};

// --- Samples -----------------------------------------------------------------

/// A set of timing samples. Percentiles use the nearest-rank rule.
class Dist {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }
  void append(const Dist& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  std::size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// p in [0, 100]. Sorts lazily; 0 for an empty set.
  double percentile(double p);
  double median() { return percentile(50.0); }
  /// Highest percentile with at least ten samples beyond it (0 when the
  /// set has ten samples or fewer).
  double max_supported_percentile() const;

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

// --- Result ------------------------------------------------------------------

/// What one phase process reports: metrics (name -> value, unit), the
/// attempted/failed operation counts, correctness, and a free-form record
/// (sample counts, reported percentiles, digests, configuration).
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A timing distribution's record entry: sample count, the percentile a
  /// metric reports, and the highest percentile the sample supports.
  void timing(const std::string& name, Dist& dist, double reported_percentile);
  void note(const std::string& key, const std::string& json_value);
  /// Counts one failed correctness check (prints `what` to stderr).
  void check(bool ok, const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }

  bool correct() const { return checks_failed_ == 0; }
  /// Prints the result object as one JSON line on stdout.
  void print(const std::string& phase) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<std::pair<std::string, std::string>> record_;
  std::vector<std::string> timings_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_failed_ = 0;
};

// --- Phases ------------------------------------------------------------------

struct PhaseArgs {
  std::string workload;  // "hot" | "cold"
  std::uint64_t seed = 0;
  double seconds = 10;   // measurement budget of the flexible phases
  bool trace = false;
  std::string work_dir;  // per-run directory for corpus files and spans
};

int run_pipeline(const PhaseArgs& args, Result& result);
int run_serve(const PhaseArgs& args, Result& result);
int run_ingest(const PhaseArgs& args, Result& result);

/// Writes the spans file and records the per-layer self times for `phase`
/// (span duration minus the part its children cover). Each layer in
/// `share_layers` also becomes the metric "<phase>.wall_share.<layer>": its
/// share of wall time when concurrent spans split the instants they share
/// (0 when the layer recorded no span).
void finish_trace(const PhaseArgs& args, const std::string& phase,
                  Result& result, const std::vector<std::string>& share_layers);

}  // namespace perfbench
