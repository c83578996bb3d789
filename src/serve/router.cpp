#include "serve/router.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "graph/fingerprint.h"
#include "support/failpoint.h"
#include "support/rng.h"

namespace irgnn::serve {

Router::Router(const RouterConfig& config) : config_(config) {}

Router::~Router() { shutdown(); }

std::uint64_t Router::publish(const std::string& name, ModelPtr model) {
  // Fault injection: a slow publish (model load, weight transfer). Before
  // the writer lock so injected latency stalls only writers that would
  // serialize behind this publish anyway — readers stay lock-free.
  IRGNN_FAILPOINT("router.publish", (void)0);
  // The registry publish and the map update happen under one writer lock —
  // and the registry publish comes first, so the slot holds a model before
  // any server attaches to it (the server constructor requires a
  // publication). A retire() of the same name serializes behind us (or we
  // behind it), so we can never attach a server to a slot a racing retire
  // just emptied.
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t version = registry_.publish(name, std::move(model));
  if (stopped_.load(std::memory_order_relaxed))
    return version;  // name stays published but is never routed
  const std::shared_ptr<const ServerMap> current =
      std::atomic_load(&servers_);
  if (current->find(name) == current->end()) {
    ServerConfig server_config = config_.server;
    server_config.max_queue = config_.max_queue;
    server_config.shed_policy = config_.shed_policy;
    auto next = std::make_shared<ServerMap>(*current);
    next->emplace(name, std::make_shared<InferenceServer>(
                            registry_.slot(name), server_config));
    std::atomic_store(&servers_,
                      std::shared_ptr<const ServerMap>(std::move(next)));
  }
  return version;
}

bool Router::retire(const std::string& name) {
  // Fault injection: a slow retire — widens the window in which in-flight
  // leaders and client queries race the drain (tests/router_test.cpp and
  // the chaos harness lean on this).
  IRGNN_FAILPOINT("router.retire", (void)0);
  std::shared_ptr<InferenceServer> server;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::shared_ptr<const ServerMap> current =
        std::atomic_load(&servers_);
    auto it = current->find(name);
    if (it == current->end()) return false;
    server = it->second;
    auto next = std::make_shared<ServerMap>(*current);
    next->erase(name);
    std::atomic_store(&servers_,
                      std::shared_ptr<const ServerMap>(std::move(next)));
    // Inside the writer lock, like publish(): a concurrent publish of the
    // same name must observe map and registry changing together.
    registry_.retire(name);
  }
  // Drain outside the router lock: admitted queries are answered (their
  // waiters pump), new submits race to ShuttingDown; in-flight routes that
  // snapshotted the old map keep the server alive through their shared_ptr.
  drain_and_fold(*server);
  return true;
}

void Router::drain_and_fold(InferenceServer& server) {
  server.shutdown();
  const ServerStats last = server.stats();
  std::lock_guard<std::mutex> lock(mutex_);
  fold(last, retired_);
}

std::shared_ptr<InferenceServer> Router::route(std::string_view model,
                                               Status* status) {
  if (stopped_.load(std::memory_order_acquire)) {
    // Shutdown rejections are not routing failures: model_not_found_ stays
    // an honest count of unknown/ambiguous names.
    *status = Status::ShuttingDown("router is shutting down");
    return nullptr;
  }
  const std::shared_ptr<const ServerMap> servers =
      std::atomic_load(&servers_);
  if (model.empty()) {
    // An unnamed request routes to the only model; with several published
    // it is ambiguous, and guessing would silently cross architectures.
    if (servers->size() == 1) {
      routed_.fetch_add(1, std::memory_order_relaxed);
      return servers->begin()->second;
    }
    *status = Status::ModelNotFound(
        servers->empty() ? "no model published"
                         : "request names no model and several are served");
    model_not_found_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  auto it = servers->find(model);
  if (it == servers->end()) {
    *status = Status::ModelNotFound();
    model_not_found_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  routed_.fetch_add(1, std::memory_order_relaxed);
  return it->second;
}

StatusOr<InferenceServer::Future> Router::submit(const Request& request) {
  Status status;
  std::shared_ptr<InferenceServer> server = route(request.model, &status);
  if (!server) return status;
  return server->submit(request);
}

Response Router::predict(const Request& request) {
  Status status;
  std::shared_ptr<InferenceServer> server = route(request.model, &status);
  if (!server) {
    Response response;
    response.status = status;
    response.source = Source::Shed;
    return response;
  }
  return server->predict(request);
}

namespace {

bool retryable(support::StatusCode code) {
  // Internal: a transient forward failure. Unavailable: the breaker may
  // close (a probe may restore service) before the next attempt. Nothing
  // else — in particular never Overloaded: a shed is backpressure, and
  // retrying it would convert the overload signal into more overload.
  return code == support::StatusCode::kInternal ||
         code == support::StatusCode::kUnavailable;
}

}  // namespace

Response Router::predict(const Request& request, const RetryPolicy& policy) {
  retry_requests_.fetch_add(1, std::memory_order_relaxed);
  Response response = predict(request);
  if (policy.max_attempts <= 1) return response;
  std::uint64_t fp = 0;  // computed lazily: the happy path never needs it
  std::int64_t backoff = std::max<std::int64_t>(policy.base_backoff_us, 0);
  for (int attempt = 1; attempt < policy.max_attempts; ++attempt) {
    if (!retryable(response.status.code())) return response;
    // Claim a retry from the shared budget: optimistically take one, give
    // it back if that overdraws. Approximate under concurrency (two
    // atomics, not a transaction) but never grows the overdraft beyond the
    // momentary race — the amplification bound stays 1 + budget_ratio.
    const std::uint64_t denom =
        retry_requests_.load(std::memory_order_relaxed);
    const std::uint64_t claimed =
        retries_.fetch_add(1, std::memory_order_relaxed) + 1;
    const double allowance =
        std::max(static_cast<double>(policy.budget_floor),
                 policy.budget_ratio * static_cast<double>(denom));
    if (static_cast<double>(claimed) > allowance) {
      retries_.fetch_sub(1, std::memory_order_relaxed);
      retry_budget_exhausted_.fetch_add(1, std::memory_order_relaxed);
      return response;
    }
    if (backoff > 0) {
      // Deterministic jitter in [backoff/2, backoff]: a pure function of
      // (seed, graph, attempt), so runs reproduce, while concurrent
      // clients (different graphs) spread instead of stampeding.
      if (fp == 0) fp = graph::fingerprint(*request.graph);
      const std::uint64_t draw = hash_combine64(
          policy.jitter_seed,
          hash_combine64(fp, static_cast<std::uint64_t>(attempt)));
      const std::int64_t half = backoff / 2;
      const std::int64_t sleep_us =
          half + static_cast<std::int64_t>(
                     draw % static_cast<std::uint64_t>(backoff - half + 1));
      std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
      backoff = std::min(backoff * 2, policy.max_backoff_us > 0
                                          ? policy.max_backoff_us
                                          : backoff * 2);
    }
    response = predict(request);
    if (response.status.ok()) {
      retry_successes_.fetch_add(1, std::memory_order_relaxed);
      return response;
    }
  }
  return response;
}

std::vector<std::string> Router::models() const {
  const std::shared_ptr<const ServerMap> servers =
      std::atomic_load(&servers_);
  std::vector<std::string> out;
  out.reserve(servers->size());
  for (const auto& [name, server] : *servers) {
    (void)server;
    out.push_back(name);
  }
  return out;
}

void Router::fold(const ServerStats& in, RouterStats& out) {
  out.queries += in.queries;
  out.forwards += in.forwards;
  out.batches += in.batches;
  out.cache_hits += in.cache.hits;
  out.cache_misses += in.cache.misses;
  out.coalesced += in.coalesced;
  out.shed += in.shed;
  out.rejected += in.rejected;
  out.deadline_exceeded += in.deadline_exceeded;
  out.internal_errors += in.internal_errors;
  out.invalid_arguments += in.invalid_arguments;
  out.breaker_trips += in.breaker_trips;
  out.breaker_probes += in.breaker_probes;
  out.breaker_short_circuits += in.breaker_short_circuits;
  out.source_cache += in.source_cache;
  out.source_batch += in.source_batch;
  out.source_coalesced += in.source_coalesced;
  out.source_shed += in.source_shed;
}

RouterStats Router::stats() const {
  // Snapshot-then-fold: a retire() completing between the snapshot and the
  // retired_ read can transiently count that server's traffic twice. Stats
  // are monitoring data, not invariants — the totals are exact whenever no
  // retire is mid-flight.
  const std::shared_ptr<const ServerMap> servers =
      std::atomic_load(&servers_);
  RouterStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out = retired_;  // totals only: retired_ holds no routing or models
  }
  out.routed = routed_.load(std::memory_order_relaxed);
  out.model_not_found = model_not_found_.load(std::memory_order_relaxed);
  out.retry_requests = retry_requests_.load(std::memory_order_relaxed);
  out.retries = retries_.load(std::memory_order_relaxed);
  out.retry_successes = retry_successes_.load(std::memory_order_relaxed);
  out.retry_budget_exhausted =
      retry_budget_exhausted_.load(std::memory_order_relaxed);
  out.models.reserve(servers->size());
  for (const auto& [name, server] : *servers) {
    RouterModelStats entry;
    entry.model = name;
    entry.version = registry_.version(name);
    entry.stats = server->stats();
    fold(entry.stats, out);
    out.models.push_back(std::move(entry));
  }
  return out;
}

void Router::shutdown() {
  std::shared_ptr<const ServerMap> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
    live = std::atomic_load(&servers_);
    std::atomic_store(&servers_, std::make_shared<const ServerMap>());
  }
  for (const auto& [name, server] : *live) {
    (void)name;
    drain_and_fold(*server);
  }
}

}  // namespace irgnn::serve
