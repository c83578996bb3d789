#include "bench.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id = next.fetch_add(1);
  return id;
}

std::string layer_of(const char* name) {
  const std::string s(name);
  const std::size_t dot = s.find('.');
  return dot == std::string::npos ? s : s.substr(0, dot);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string fmt_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {}

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

std::int64_t Tracer::to_ns(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

std::int64_t Tracer::now_ns() const { return to_ns(Clock::now()); }

std::uint32_t Tracer::record(const char* name, std::uint32_t parent,
                             std::uint64_t request, std::int64_t start_ns,
                             std::int64_t end_ns) {
  if (!enabled_) return 0;
  const std::uint32_t thread = thread_number();
  std::lock_guard<std::mutex> lock(mutex_);
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return 0;
  }
  if (spans_.capacity() == 0) spans_.reserve(1u << 16);
  Span span;
  span.name = name;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.thread = thread;
  span.request = request;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  spans_.push_back(span);
  return span.id;
}

std::uint32_t Tracer::open(const char* name, std::uint32_t parent,
                           std::uint64_t request) {
  const std::int64_t t = now_ns();
  return record(name, parent, request, t, t);
}

void Tracer::close(std::uint32_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end_ns = t;
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%u,\"parent\":%u,\"name\":\"%s\",\"layer\":\"%s\","
                 "\"request\":%llu,\"thread\":%u,\"start_ns\":%lld,"
                 "\"end_ns\":%lld}\n",
                 s.id, s.parent, s.name, layer_of(s.name).c_str(),
                 static_cast<unsigned long long>(s.request), s.thread,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

namespace {

/// Length of the union of [start, end) intervals clipped to [lo, hi).
std::int64_t union_length(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                          std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0, cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (auto [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
    } else {
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

}  // namespace

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans_.size() + 1);
  for (const Span& s : spans_)
    if (s.parent != 0 && s.parent <= spans_.size())
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const std::int64_t covered =
        union_length(children[s.id], s.start_ns, s.end_ns);
    out[layer_of(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return out;
}

std::map<std::string, double> Tracer::wall_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> times;
  for (const Span& s : spans_) {
    times.push_back(s.start_ns);
    times.push_back(s.end_ns);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::map<std::string, double> out;
  std::vector<const Span*> open;
  std::vector<bool> has_open_child(spans_.size() + 1);
  for (std::size_t i = 0; i + 1 < times.size(); ++i) {
    const std::int64_t a = times[i], b = times[i + 1];
    open.clear();
    for (const Span& s : spans_)
      if (s.start_ns <= a && s.end_ns >= b) open.push_back(&s);
    for (const Span* s : open) has_open_child[s->parent] = true;
    std::size_t leaves = 0;
    for (const Span* s : open) leaves += !has_open_child[s->id];
    for (const Span* s : open)
      if (!has_open_child[s->id])
        out[layer_of(s->name)] += static_cast<double>(b - a) * 1e-9 /
                                  static_cast<double>(leaves);
    for (const Span* s : open) has_open_child[s->parent] = false;
  }
  return out;
}

double Tracer::child_coverage(std::uint32_t root) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (root == 0 || root > spans_.size()) return 0;
  const Span& r = spans_[root - 1];
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans_)
    if (s.parent == root) iv.emplace_back(s.start_ns, s.end_ns);
  return static_cast<double>(union_length(iv, r.start_ns, r.end_ns)) * 1e-9;
}

double Tracer::total_seconds(const char* name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0;
  for (const Span& s : spans_)
    if (std::string(s.name) == name)
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return total;
}

// --- Dist --------------------------------------------------------------------

double Dist::percentile(double p) {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double n = static_cast<double>(values_.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
  rank = std::clamp<std::size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Dist::max_supported_percentile() const {
  const double n = static_cast<double>(values_.size());
  return n > 10 ? 100.0 * (1.0 - 10.0 / n) : 0.0;
}

// --- Result ------------------------------------------------------------------

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& m : metrics_)
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  metrics_.push_back({name, {value, unit}});
}

void Result::timing(const std::string& name, Dist& dist,
                    double reported_percentile) {
  timings_.push_back("{\"name\":\"" + json_escape(name) +
                     "\",\"samples\":" + std::to_string(dist.size()) +
                     ",\"reported_percentile\":" +
                     fmt_number(reported_percentile) +
                     ",\"max_supported_percentile\":" +
                     fmt_number(dist.max_supported_percentile()) + "}");
}

void Result::note(const std::string& key, const std::string& json_value) {
  record_.push_back({key, json_value});
}

void Result::check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Result::print(const std::string& phase) const {
  std::string out = "{\"phase\":\"" + json_escape(phase) + "\",\"correct\":" +
                    (correct() ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted_) +
                    ",\"failed\":" + std::to_string(failed_) +
                    ",\"checks_failed\":" + std::to_string(checks_failed_) +
                    ",\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i) out += ",";
    out += "\"" + json_escape(metrics_[i].first) + "\":{\"value\":" +
           fmt_number(metrics_[i].second.first) + ",\"unit\":\"" +
           json_escape(metrics_[i].second.second) + "\"}";
  }
  out += "},\"record\":{\"timings\":[";
  for (std::size_t i = 0; i < timings_.size(); ++i) {
    if (i) out += ",";
    out += timings_[i];
  }
  out += "]";
  for (const auto& [key, value] : record_)
    out += ",\"" + json_escape(key) + "\":" + value;
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void finish_trace(const PhaseArgs& args, const std::string& phase,
                  Result& result, const std::vector<std::string>& share_layers) {
  Tracer& tracer = Tracer::get();
  if (!tracer.enabled()) return;
  const std::string path = args.work_dir + "/trace-" + phase + ".jsonl";
  result.check(tracer.write_jsonl(path), "writing span file " + path);
  result.metric(phase + ".spans", static_cast<double>(tracer.size()), "count");
  result.check(tracer.dropped() == 0,
               "span buffer overflowed (" + std::to_string(tracer.dropped()) +
                   " spans dropped)");
  auto table = [](const std::map<std::string, double>& by_layer) {
    std::string out = "{";
    for (const auto& [layer, s] : by_layer)
      out += (out.size() > 1 ? ",\"" : "\"") + layer + "\":" + fmt_number(s);
    return out + "}";
  };
  result.note("self_seconds_by_layer", table(tracer.self_seconds_by_layer()));
  if (share_layers.empty()) return;
  // Wall-time attribution is quadratic in the span count: it is computed
  // for the phases with few, long spans (the pipeline), not per request.
  const std::map<std::string, double> wall = tracer.wall_seconds_by_layer();
  result.note("wall_seconds_by_layer", table(wall));
  double total = 0;
  for (const auto& [layer, s] : wall) total += s;
  for (const std::string& layer : share_layers) {
    const auto it = wall.find(layer);
    const double s = it == wall.end() ? 0.0 : it->second;
    result.metric(phase + ".wall_share." + layer, total > 0 ? s / total : 0,
                  "ratio");
  }
}

}  // namespace perfbench
