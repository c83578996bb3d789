// The serving layer's typed front-door vocabulary.
//
// A Request names everything the front door needs to route and admit one
// region query: the graph, the target model (for multi-model routing the
// name a model was published under, e.g. "Skylake"), a queue-time deadline
// and a priority that admission control consults when it must shed load. A
// Response answers with the predicted label plus the provenance a
// production client wants: which model version answered, whether the
// answer came from the prediction cache, a batched forward, or shedding,
// and where the time went (queue wait vs compute).
//
// Both are plain structs built on the stack: constructing a Request and
// reading a Response never allocates, which is what keeps the warm
// cache-hit path at zero heap allocations end to end.
#pragma once

#include <cstdint>
#include <string_view>

#include "graph/program_graph.h"
#include "support/status.h"

namespace irgnn::serve {

using support::Status;
using support::StatusCode;
template <typename T>
using StatusOr = support::StatusOr<T>;

/// Consulted only under overload: when a bounded admission queue must shed,
/// lower-priority requests go first (see ShedPolicy::DropOldest).
enum class Priority : std::uint8_t { Low = 0, Normal = 1, High = 2 };

/// What produced a Response.
enum class Source : std::uint8_t {
  Cache,      // fingerprint-keyed prediction cache, no forward
  Batch,      // a micro-batched model forward
  Coalesced,  // attached to an identical in-flight query and answered
              // with its leader's forward (no extra model work)
  Shed,       // not answered: dropped, rejected, past deadline, or the
              // forward failed (status Internal)
};

inline const char* source_name(Source source) {
  switch (source) {
    case Source::Cache: return "cache";
    case Source::Batch: return "batch";
    case Source::Coalesced: return "coalesced";
    case Source::Shed: return "shed";
  }
  return "unknown";
}

/// What a bounded admission queue does when it is full and one more request
/// arrives (ServerConfig::max_queue / RouterConfig::max_queue).
enum class ShedPolicy : std::uint8_t {
  /// Fail the incoming submit immediately with Status::Overloaded. The
  /// queue never exceeds its bound and nobody blocks.
  Reject,
  /// Admit the incoming request and shed the oldest queued request of the
  /// lowest priority class instead (its future resolves with an Overloaded
  /// Response, Source::Shed). If every queued request outranks the incoming
  /// one, the incoming submit is rejected — shedding never promotes load
  /// the queue already chose to carry.
  DropOldest,
};

inline const char* shed_policy_name(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::Reject: return "Reject";
    case ShedPolicy::DropOldest: return "DropOldest";
  }
  return "unknown";
}

struct Request {
  Request() = default;
  explicit Request(const graph::ProgramGraph& g, std::string_view model_name = {})
      : graph(&g), model(model_name) {}

  /// The region graph to predict for. Must stay alive until the response
  /// (or the future's resolution).
  const graph::ProgramGraph* graph = nullptr;

  /// Routing key for serve::Router: the published name of the target model
  /// (per-architecture serving publishes one model per machine name). Empty
  /// routes to the router's only model; with several models published an
  /// empty name is ModelNotFound (ambiguous). A bare InferenceServer is a
  /// single-model endpoint and ignores this field. The view must outlive
  /// the submit() call only — the router does not retain it.
  std::string_view model{};

  /// Queue-time budget in microseconds; 0 means no deadline. A request
  /// still queued when its budget expires is answered DeadlineExceeded
  /// (Source::Shed) instead of joining a batch. Cache hits are immediate
  /// and never expire.
  std::int64_t deadline_us = 0;

  /// Shedding priority (see ShedPolicy::DropOldest).
  Priority priority = Priority::Normal;
};

struct Response {
  /// Ok, or why the request was not answered: Overloaded (shed after
  /// admission), DeadlineExceeded, ShuttingDown, Internal. Errors that fail
  /// the submit itself (queue full under Reject, ModelNotFound) surface
  /// from submit()'s StatusOr instead and never build a Response.
  Status status;

  /// Predicted label; meaningful only when status.ok().
  int label = -1;

  /// Version of the publication that answered (see
  /// InferenceServer::publish); 0 when shed before any model saw the
  /// request.
  std::uint64_t model_version = 0;

  Source source = Source::Batch;

  /// Micro-timings: admission to batch pickup (or to shedding), and the
  /// answering micro-batch's forward wall time. Cache hits report 0/0.
  std::int64_t queue_us = 0;
  std::int64_t compute_us = 0;

  bool ok() const { return status.ok(); }
};

}  // namespace irgnn::serve
