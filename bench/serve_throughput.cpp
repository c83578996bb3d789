// Load generator for serve::InferenceServer: closed-loop latency/throughput
// at 1 and 4 client threads, an open-loop burst showing micro-batch
// amortization, a cache hit-vs-miss section, a flash-crowd section gating
// in-flight coalescing, a Zipf-distributed fingerprint workload, the buffer
// arena's outstanding bytes and high-water mark, and (--overload) an
// admission-control section that slams a bounded queue with a burst and
// gates the shedding contract.
// Results also land in a machine-readable JSON file (--json, uploaded as a
// CI artifact) with qps, p99 and hit-rate per section.
//
// Like microbench_kernels, contract violations are a nonzero exit so the CI
// smoke runs (--quick, --quick --overload) are real gates:
//   - every served label must equal the pinned model's serial predict
//     (determinism under batching/caching/coalescing/shedding),
//   - a warm single-client pass must pull zero bytes from malloc through
//     the pool,
//   - a warm cache hit must be at least 10x faster than a miss,
//   - a flash crowd of N clients on one cold fingerprint performs exactly
//     one model forward (everyone else coalesces or hits),
//   - coalescing conservation: cache hits + misses + coalesced == queries,
//     on the flash-crowd and Zipf sections,
//   - under --overload: the bounded queue actually sheds (Overloaded within
//     the bound, conservation of answered+shed+rejected), the admitted
//     queue depth never exceeds max_queue, admitted answers stay
//     bit-identical, and p99 latency of admitted requests stays bounded.
//   - under --faults (needs a library built with -DIRGNN_FAILPOINTS=ON;
//     skipped, not failed, otherwise): a scripted outage — healthy window,
//     100% forward-failure window, recovery window — must trip the circuit
//     breaker exactly once, short-circuit misses without spending a single
//     forward on the failing model, keep answering whatever the cache
//     holds, close the breaker on the first half-open probe after the
//     fault clears, and return to a zero-error healthy state; p99 and
//     error rate per window land in the JSON artifact.
//
//   ./serve_throughput --threads 1 --queries 5000
//   ./serve_throughput --quick              (CI smoke)
//   ./serve_throughput --quick --overload   (CI admission-control smoke)
//   ./serve_throughput --quick --faults     (CI failure-containment smoke)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "gnn/model.h"
#include "gnn/quantize.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"
#include "serve/router.h"
#include "serve/server.h"
#include "support/arena.h"
#include "support/argparse.h"
#include "support/failpoint.h"
#include "support/rng.h"
#include "support/table.h"

using namespace irgnn;
using Clock = std::chrono::steady_clock;

namespace {

using bench::Percentiles;
using bench::percentiles;
using bench::to_us;

std::string fmt_bytes(std::uint64_t bytes) {
  return Table::fmt(static_cast<double>(bytes) / 1024.0, 1) + " KiB";
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("serve_throughput",
                   "open/closed-loop load generator for the inference "
                   "server (latency percentiles, qps, cache hit rate, "
                   "malloc bytes per query, admission control)");
  parser.add("queries", "5000", "closed-loop queries per client thread")
      .add("hidden", "64", "served model hidden dimension")
      .add("layers", "3", "served model RGCN layers")
      .add("max-batch", "64", "micro-batch flush size")
      .add("wait-us", "200", "micro-batch window in microseconds")
      .add("cache", "4096", "prediction cache entries (0 disables)")
      .add("max-queue", "32", "admission bound for the --overload section")
      .add("overload", "false",
           "also slam a bounded queue with an async burst and gate the "
           "load-shedding contract")
      .add("faults", "false",
           "also run a scripted fault window (healthy -> total forward "
           "failure -> recovery) and gate the circuit-breaker contract; "
           "needs a build with -DIRGNN_FAILPOINTS=ON, skipped otherwise")
      .add("shadow", "false",
           "also quantize the served model to int8 on the bench graphs, "
           "publish float and int8 side by side behind a Router, mirror "
           "the same traffic to both versions and gate speedup/agreement/"
           "per-model conservation")
      .add("json", "BENCH_serve.json",
           "write machine-readable results here (empty disables)")
      .add("quick", "false", "CI smoke: fewer queries, same contract gates");
  bench::add_runtime_flags(parser, /*default_threads=*/"1");
  bench::add_corpus_flags(parser);
  if (!parser.parse(argc, argv)) return 1;

  const bool quick = parser.get_bool("quick");
  const bool overload = parser.get_bool("overload");
  const bool faults = parser.get_bool("faults");
  const bool shadow = parser.get_bool("shadow");
  const int threads = bench::apply_threads(parser);
  const int queries_per_client =
      quick ? 500 : static_cast<int>(parser.get_int("queries"));
  const std::uint64_t seed = 0x5E12E;

  serve::ServerConfig server_config;
  server_config.max_batch =
      std::max<std::int64_t>(1, parser.get_int("max-batch"));
  server_config.max_wait_us = static_cast<int>(parser.get_int("wait-us"));
  server_config.cache_capacity =
      static_cast<std::size_t>(parser.get_int("cache"));

  // --- The served model and its graphs -------------------------------------
  // Default traffic is the synthetic suite; --corpus/--dataset-cache swap in
  // an ingested corpus (bench_common.h) without changing any gate below.
  std::vector<graph::ProgramGraph> owned;
  std::vector<const graph::ProgramGraph*> graphs;
  {
    const support::Status corpus_status =
        bench::corpus_traffic(parser, &owned);
    if (!corpus_status.ok()) {
      std::fprintf(stderr, "corpus traffic source failed: %s\n",
                   corpus_status.message());
      return 1;
    }
  }
  if (owned.empty()) owned = bench::suite_graphs();
  for (const auto& g : owned) graphs.push_back(&g);

  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 13;
  cfg.hidden_dim = static_cast<int>(parser.get_int("hidden"));
  cfg.num_layers = static_cast<int>(parser.get_int("layers"));
  cfg.seed = 0x5EED;
  cfg.num_threads = threads;
  auto model = std::make_shared<const gnn::StaticModel>(cfg);

  // Ground truth for the determinism gate: the same model, queried the
  // plain serial way.
  const std::vector<int> expected = model->predict(graphs);

  // Unique-fingerprint subset for the clean hit-vs-miss measurement
  // (structurally identical suite regions would turn a "miss" pass into
  // partial hits).
  std::vector<std::size_t> unique;
  {
    std::vector<std::uint64_t> seen;
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const std::uint64_t fp = graph::fingerprint(*graphs[g]);
      if (std::find(seen.begin(), seen.end(), fp) == seen.end()) {
        seen.push_back(fp);
        unique.push_back(g);
      }
    }
  }

  int failures = 0;
  // Per-section results for the machine-readable JSON artifact.
  double closed_qps = 0, closed_p99 = 0, closed_hit_rate = 0;
  double zipf_qps = 0, zipf_p99 = 0, zipf_hit_rate = 0;
  std::uint64_t zipf_coalesced = 0;
  std::uint64_t flash_forwards = 0, flash_coalesced = 0, flash_hits = 0;
  std::printf("=== serve_throughput (hidden=%d, layers=%d, threads=%d, "
              "max_batch=%d, wait=%dus, cache=%zu) ===\n",
              cfg.hidden_dim, cfg.num_layers, threads,
              server_config.max_batch, server_config.max_wait_us,
              server_config.cache_capacity);

  // --- Cache hit vs miss ----------------------------------------------------
  double miss_p50 = 0, hit_p50 = 0;
  {
    serve::InferenceServer server(model, server_config);
    std::vector<double> miss_lat, hit_lat;
    for (std::size_t g : unique) {
      const auto t0 = Clock::now();
      const serve::Response r = server.predict(*graphs[g]);
      miss_lat.push_back(to_us(Clock::now() - t0));
      if (!r.ok() || r.label != expected[g]) ++failures;
      if (r.source != serve::Source::Batch) ++failures;
    }
    const int hit_reps = quick ? 5 : 20;
    const support::BufferPool::Stats pool_before =
        support::BufferPool::global().stats();
    for (int rep = 0; rep < hit_reps; ++rep) {
      for (std::size_t g : unique) {
        const auto t0 = Clock::now();
        const serve::Response r = server.predict(*graphs[g]);
        hit_lat.push_back(to_us(Clock::now() - t0));
        if (!r.ok() || r.label != expected[g]) ++failures;
        if (server_config.cache_capacity != 0 &&
            r.source != serve::Source::Cache)
          ++failures;
      }
    }
    const support::BufferPool::Stats pool_after =
        support::BufferPool::global().stats();
    const std::uint64_t warm_malloc =
        pool_after.malloc_bytes - pool_before.malloc_bytes;
    miss_p50 = percentiles(miss_lat).p50;
    hit_p50 = percentiles(hit_lat).p50;
    serve::ServerStats stats = server.stats();
    std::printf("\ncache: %zu unique graphs, miss p50 %.1f us, hit p50 "
                "%.2f us (%.0fx), warm malloc %llu B, hit rate %.3f\n",
                unique.size(), miss_p50, hit_p50,
                hit_p50 > 0 ? miss_p50 / hit_p50 : 0.0,
                static_cast<unsigned long long>(warm_malloc),
                stats.cache.hit_rate());
    if (server_config.cache_capacity != 0) {
      if (hit_p50 * 10.0 > miss_p50) {
        ++failures;
        std::printf("FAILED: warm cache hits are not 10x faster than "
                    "misses\n");
      }
      if (warm_malloc != 0) {
        ++failures;
        std::printf("FAILED: warm cache-hit pass pulled bytes from malloc "
                    "through the pool\n");
      }
    }
  }

  // --- Closed loop: 1 and 4 client threads ---------------------------------
  Table closed({"clients", "queries", "p50 [us]", "p95 [us]", "p99 [us]",
                "queries/sec", "src cache", "src batch", "src shed",
                "malloc B/query"});
  for (int clients : {1, 4}) {
    serve::InferenceServer server(model, server_config);
    // Warm pass: every fingerprint cached, arena filled.
    std::vector<serve::Response> warm;
    server.predict_batch(graphs, warm);
    for (std::size_t g = 0; g < graphs.size(); ++g)
      if (!warm[g].ok() || warm[g].label != expected[g]) ++failures;

    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(clients));
    std::atomic<int> wrong{0};
    const support::BufferPool::Stats pool_before =
        support::BufferPool::global().stats();
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < clients; ++c) {
      workers.emplace_back([&, c] {
        Rng rng(hash_combine64(seed, static_cast<std::uint64_t>(c)));
        auto& lat = latencies[static_cast<std::size_t>(c)];
        lat.reserve(static_cast<std::size_t>(queries_per_client));
        for (int q = 0; q < queries_per_client; ++q) {
          const std::size_t g = rng.next_below(graphs.size());
          const auto s0 = Clock::now();
          const serve::Response r = server.predict(*graphs[g]);
          lat.push_back(to_us(Clock::now() - s0));
          if (!r.ok() || r.label != expected[g]) wrong.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const support::BufferPool::Stats pool_after =
        support::BufferPool::global().stats();
    failures += wrong.load();

    std::vector<double> all;
    for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
    const Percentiles p = percentiles(all);
    const double total_queries =
        static_cast<double>(clients) * queries_per_client;
    serve::ServerStats stats = server.stats();
    closed.add_row(
        {std::to_string(clients), std::to_string(static_cast<int>(total_queries)),
         Table::fmt(p.p50, 2), Table::fmt(p.p95, 2), Table::fmt(p.p99, 2),
         Table::fmt(total_queries / wall_s, 0),
         std::to_string(stats.source_cache),
         std::to_string(stats.source_batch),
         std::to_string(stats.source_shed),
         std::to_string(static_cast<std::uint64_t>(
             static_cast<double>(pool_after.malloc_bytes -
                                 pool_before.malloc_bytes) /
             total_queries))});
    if (clients == 4) {
      closed_qps = total_queries / wall_s;
      closed_p99 = p.p99;
      closed_hit_rate = stats.cache.hit_rate();
    }
  }
  std::printf("\n=== Closed loop (every client waits for its answer; warm "
              "cache; unbounded queue, so src shed must read 0) ===\n");
  closed.print();

  // --- Open loop: async burst, micro-batch amortization --------------------
  {
    serve::ServerConfig cold = server_config;
    cold.cache_capacity = 0;  // every query runs a forward: batching visible
    serve::InferenceServer server(model, cold);
    const int burst = quick ? 200 : 1000;
    Rng rng(hash_combine64(seed, 0xB025));
    std::vector<std::size_t> stream;
    std::vector<serve::InferenceServer::Future> futures;
    stream.reserve(burst);
    futures.reserve(burst);
    const auto t0 = Clock::now();
    for (int q = 0; q < burst; ++q) {
      stream.push_back(rng.next_below(graphs.size()));
      serve::StatusOr<serve::InferenceServer::Future> submitted =
          server.submit(serve::Request(*graphs[stream.back()]));
      if (!submitted.ok()) {
        ++failures;  // unbounded queue: every submit must be admitted
        std::printf("FAILED: unbounded submit returned %s\n",
                    submitted.status().code_name());
        break;
      }
      futures.push_back(std::move(submitted).value());
    }
    for (std::size_t q = 0; q < futures.size(); ++q) {
      const serve::Response r = futures[q].get();
      if (!r.ok() || r.label != expected[stream[q]]) ++failures;
    }
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    serve::ServerStats stats = server.stats();
    std::printf("\n=== Open loop (async burst of %d, cache off) ===\n"
                "%.0f queries/sec, %llu micro-batches, avg batch %.1f, "
                "max batch %llu\n",
                burst, burst / wall_s,
                static_cast<unsigned long long>(stats.batches),
                stats.batches ? static_cast<double>(stats.forwards) /
                                    static_cast<double>(stats.batches)
                              : 0.0,
                static_cast<unsigned long long>(stats.max_batch));
  }

  // --- Flash crowd: N clients, one cold fingerprint -------------------------
  {
    serve::InferenceServer server(model, server_config);
    constexpr int kCrowd = 8;
    std::atomic<int> wrong{0};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    const std::size_t target = unique[0];
    std::vector<std::thread> crowd;
    for (int c = 0; c < kCrowd; ++c) {
      crowd.emplace_back([&] {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const serve::Response r = server.predict(*graphs[target]);
        if (!r.ok() || r.label != expected[target]) wrong.fetch_add(1);
      });
    }
    while (ready.load() < kCrowd) std::this_thread::yield();
    go.store(true, std::memory_order_release);
    for (auto& t : crowd) t.join();
    failures += wrong.load();
    const serve::ServerStats stats = server.stats();
    flash_forwards = stats.forwards;
    flash_coalesced = stats.coalesced;
    flash_hits = stats.cache.hits;
    std::printf("\n=== Flash crowd (%d clients, one cold fingerprint) ===\n"
                "forwards %llu, coalesced %llu, cache hits %llu, misses "
                "%llu\n",
                kCrowd, static_cast<unsigned long long>(stats.forwards),
                static_cast<unsigned long long>(stats.coalesced),
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.misses));
    if (stats.forwards != 1) {
      ++failures;
      std::printf("FAILED: a flash crowd on one cold fingerprint ran %llu "
                  "forwards (want exactly 1)\n",
                  static_cast<unsigned long long>(stats.forwards));
    }
    if (!stats.conserved()) {
      ++failures;
      std::printf("FAILED: coalescing conservation (hits %llu + misses %llu "
                  "+ coalesced %llu != queries %llu)\n",
                  static_cast<unsigned long long>(stats.cache.hits),
                  static_cast<unsigned long long>(stats.cache.misses),
                  static_cast<unsigned long long>(stats.coalesced),
                  static_cast<unsigned long long>(stats.queries));
    }
  }

  // --- Zipf fingerprint workload --------------------------------------------
  {
    // Skewed popularity (Zipf s=1 over the unique fingerprints, rank by
    // index): the realistic serving regime where a hot head coalesces and
    // caches while a long tail keeps missing.
    std::vector<double> cdf(unique.size());
    double mass = 0;
    for (std::size_t i = 0; i < unique.size(); ++i) {
      mass += 1.0 / static_cast<double>(i + 1);
      cdf[i] = mass;
    }
    for (double& c : cdf) c /= mass;
    serve::InferenceServer server(model, server_config);
    const int zipf_queries = quick ? 1000 : 10000;
    constexpr int kZipfClients = 4;
    std::atomic<int> wrong{0};
    std::vector<std::vector<double>> latencies(kZipfClients);
    const auto t0 = Clock::now();
    std::vector<std::thread> workers;
    for (int c = 0; c < kZipfClients; ++c) {
      workers.emplace_back([&, c] {
        Rng rng(hash_combine64(seed, 0x21FF + static_cast<std::uint64_t>(c)));
        auto& lat = latencies[static_cast<std::size_t>(c)];
        lat.reserve(static_cast<std::size_t>(zipf_queries));
        for (int q = 0; q < zipf_queries; ++q) {
          const double u = rng.uniform();
          const std::size_t rank = static_cast<std::size_t>(
              std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
          const std::size_t g = unique[std::min(rank, unique.size() - 1)];
          const auto s0 = Clock::now();
          const serve::Response r = server.predict(*graphs[g]);
          lat.push_back(to_us(Clock::now() - s0));
          if (!r.ok() || r.label != expected[g]) wrong.fetch_add(1);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double wall_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    failures += wrong.load();
    std::vector<double> all;
    for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
    const Percentiles p = percentiles(all);
    const serve::ServerStats stats = server.stats();
    zipf_qps = static_cast<double>(kZipfClients * zipf_queries) / wall_s;
    zipf_p99 = p.p99;
    zipf_hit_rate = stats.cache.hit_rate();
    zipf_coalesced = stats.coalesced;
    std::printf("\n=== Zipf workload (s=1, %zu fingerprints, %d clients x %d "
                "queries) ===\n"
                "%.0f queries/sec, p50 %.1f us, p99 %.1f us | hit rate %.3f, "
                "coalesced %llu\n",
                unique.size(), kZipfClients, zipf_queries, zipf_qps, p.p50,
                p.p99, zipf_hit_rate,
                static_cast<unsigned long long>(stats.coalesced));
    if (!stats.conserved()) {
      ++failures;
      std::printf("FAILED: coalescing conservation on the Zipf workload "
                  "(hits %llu + misses %llu + coalesced %llu != queries "
                  "%llu)\n",
                  static_cast<unsigned long long>(stats.cache.hits),
                  static_cast<unsigned long long>(stats.cache.misses),
                  static_cast<unsigned long long>(stats.coalesced),
                  static_cast<unsigned long long>(stats.queries));
    }
    if (p.p99 > 1e6) {
      ++failures;
      std::printf("FAILED: Zipf closed-loop p99 (%.0f us) blew past 1s\n",
                  p.p99);
    }
  }

  // --- Overload: bounded queue + load shedding ------------------------------
  if (overload) {
    const std::size_t max_queue =
        static_cast<std::size_t>(std::max<std::int64_t>(
            1, parser.get_int("max-queue")));
    const int burst = quick ? 1500 : 5000;
    for (serve::ShedPolicy policy :
         {serve::ShedPolicy::Reject, serve::ShedPolicy::DropOldest}) {
      serve::ServerConfig oc = server_config;
      // Every admitted query costs a forward: no cache, and no coalescing
      // (duplicate draws would attach to in-flight leaders and never fill
      // the queue).
      oc.cache_capacity = 0;
      oc.coalesce = false;
      oc.max_queue = max_queue;
      oc.shed_policy = policy;
      serve::InferenceServer server(model, oc);
      if (!server.config().background_loop) {
        // A worker-less pool falls back to client-driven pumping; an async
        // burst with nobody waiting would never drain. Not a contract
        // violation — report and skip.
        std::printf("\n(no background loop available: overload gate "
                    "skipped)\n");
        break;
      }
      std::atomic<int> resolved{0}, answered{0}, shed_after_admit{0},
          wrong{0};
      int rejected_at_submit = 0;
      std::vector<double> admitted_lat(static_cast<std::size_t>(burst),
                                       -1.0);
      Rng rng(hash_combine64(seed, 0x10AD));
      for (int q = 0; q < burst; ++q) {
        const std::size_t g = rng.next_below(graphs.size());
        const auto t0 = Clock::now();
        serve::StatusOr<serve::InferenceServer::Future> submitted =
            server.submit(serve::Request(*graphs[g]));
        if (!submitted.ok()) {
          if (submitted.status().code() != serve::StatusCode::kOverloaded)
            ++failures;
          ++rejected_at_submit;
          continue;
        }
        // Async continuation instead of a blocking get(): the callback
        // runs on whichever thread pumps (or sheds) the request.
        submitted.value().then(
            [&, t0, q, g](const serve::Response& r) {
              if (r.ok()) {
                admitted_lat[static_cast<std::size_t>(q)] =
                    to_us(Clock::now() - t0);
                if (r.label != expected[g]) wrong.fetch_add(1);
                answered.fetch_add(1);
              } else {
                shed_after_admit.fetch_add(1);
              }
              resolved.fetch_add(1);
            });
      }
      const int admitted = burst - rejected_at_submit;
      while (resolved.load() < admitted)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));

      std::vector<double> lat;
      for (double l : admitted_lat)
        if (l >= 0) lat.push_back(l);
      const Percentiles p = percentiles(lat);
      serve::ServerStats stats = server.stats();
      const double p99_bound_us = 1e6;  // bounded queue => tens of ms; an
                                        // unbounded regression queues the
                                        // whole burst and blows well past 1s
      std::printf("\n=== Overload (%s, burst %d, max_queue %zu, cache off) "
                  "===\n"
                  "answered %d, shed-after-admit %d, rejected %d | peak "
                  "queue %llu | admitted p50 %.0f us, p99 %.0f us\n"
                  "sources: cache %llu, batch %llu, shed %llu | counters: "
                  "shed %llu, rejected %llu, deadline %llu\n",
                  serve::shed_policy_name(policy), burst, max_queue,
                  answered.load(), shed_after_admit.load(),
                  rejected_at_submit,
                  static_cast<unsigned long long>(stats.peak_queue), p.p50,
                  p.p99,
                  static_cast<unsigned long long>(stats.source_cache),
                  static_cast<unsigned long long>(stats.source_batch),
                  static_cast<unsigned long long>(stats.source_shed),
                  static_cast<unsigned long long>(stats.shed),
                  static_cast<unsigned long long>(stats.rejected),
                  static_cast<unsigned long long>(stats.deadline_exceeded));
      if (wrong.load() != 0) {
        ++failures;
        std::printf("FAILED: an admitted answer differed from serial "
                    "predict under shedding\n");
      }
      if (answered.load() + shed_after_admit.load() + rejected_at_submit !=
          burst) {
        ++failures;
        std::printf("FAILED: answered + shed + rejected != submitted "
                    "(queries lost)\n");
      }
      if (stats.rejected + stats.shed == 0) {
        ++failures;
        std::printf("FAILED: the overload burst did not shed at all\n");
      }
      if (stats.peak_queue > max_queue) {
        ++failures;
        std::printf("FAILED: admitted queue depth %llu exceeded the bound "
                    "%zu\n",
                    static_cast<unsigned long long>(stats.peak_queue),
                    max_queue);
      }
      if (!lat.empty() && p.p99 > p99_bound_us) {
        ++failures;
        std::printf("FAILED: p99 of admitted requests (%.0f us) not "
                    "bounded by %.0f us\n",
                    p.p99, p99_bound_us);
      }
      if (policy == serve::ShedPolicy::DropOldest &&
          stats.shed == 0) {
        ++failures;
        std::printf("FAILED: DropOldest shed nothing after admission\n");
      }
    }
  }

  // --- Scripted fault window (--faults) ------------------------------------
  double fault_p99_healthy = 0, fault_p99_degraded = 0, fault_p99_recovered = 0;
  int fault_err_healthy = 0, fault_err_degraded = 0, fault_err_recovered = 0;
  std::uint64_t fault_trips = 0, fault_short_circuits = 0;
  bool faults_ran = false;
  if (faults && !support::failpoints::enabled()) {
    std::printf("\n=== Fault window ===\n(library built without "
                "IRGNN_FAILPOINTS: fault section skipped)\n");
  } else if (faults) {
    faults_ran = true;
    support::failpoints::set_seed(seed);
    serve::ServerConfig fc = server_config;
    // A small cache keeps both traffic classes alive through the outage:
    // some queries stay warm (degraded mode must keep answering them),
    // the long tail keeps missing (degraded mode must refuse them fast).
    fc.cache_capacity = 8;
    fc.breaker_trip_threshold = 3;
    fc.breaker_probe_interval_us = 2000;
    serve::InferenceServer server(model, fc);
    const std::size_t hot = std::min<std::size_t>(4, unique.size());
    Rng rng(hash_combine64(seed, 0xFA17));
    auto window = [&](int queries, std::vector<double>& lat, int& errors) {
      for (int q = 0; q < queries; ++q) {
        // Even queries cycle a fixed hot set, odd queries draw from the
        // whole fingerprint population.
        const std::size_t g =
            (q % 2 == 0) ? unique[static_cast<std::size_t>(q) / 2 % hot]
                         : unique[rng.next_below(unique.size())];
        const auto t0 = Clock::now();
        const serve::Response r = server.predict(*graphs[g]);
        lat.push_back(to_us(Clock::now() - t0));
        if (!r.ok())
          ++errors;
        else if (r.label != expected[g])
          ++failures;
      }
    };
    const int per_window = quick ? 200 : 800;
    std::vector<double> lat_healthy, lat_degraded, lat_recovered;

    window(per_window, lat_healthy, fault_err_healthy);
    const serve::ServerStats pre_fault = server.stats();

    support::failpoints::FailpointSpec dead;
    dead.every_nth = 1;  // 100% forward failure
    support::failpoints::configure("serve.forward", dead);
    window(per_window, lat_degraded, fault_err_degraded);
    const serve::ServerStats during = server.stats();
    support::failpoints::disable("serve.forward");

    // Let the half-open probe timer expire, then drive the recovery
    // window: its first miss is admitted as the probe, succeeds, and
    // restores full service.
    std::this_thread::sleep_for(
        std::chrono::microseconds(3 * fc.breaker_probe_interval_us));
    window(per_window, lat_recovered, fault_err_recovered);
    const serve::ServerStats after = server.stats();
    support::failpoints::disable_all();

    fault_p99_healthy = percentiles(lat_healthy).p99;
    fault_p99_degraded = percentiles(lat_degraded).p99;
    fault_p99_recovered = percentiles(lat_recovered).p99;
    fault_trips = after.breaker_trips;
    fault_short_circuits = after.breaker_short_circuits;
    std::printf(
        "\n=== Fault window (%d queries/window, breaker threshold %d, probe "
        "every %lld us) ===\n"
        "healthy:   p99 %8.1f us, errors %4d\n"
        "degraded:  p99 %8.1f us, errors %4d (internal %llu, "
        "short-circuited %llu, trips %llu)\n"
        "recovered: p99 %8.1f us, errors %4d (probes %llu, breaker %s)\n",
        per_window, fc.breaker_trip_threshold,
        static_cast<long long>(fc.breaker_probe_interval_us),
        fault_p99_healthy, fault_err_healthy, fault_p99_degraded,
        fault_err_degraded,
        static_cast<unsigned long long>(after.internal_errors),
        static_cast<unsigned long long>(fault_short_circuits),
        static_cast<unsigned long long>(fault_trips), fault_p99_recovered,
        fault_err_recovered,
        static_cast<unsigned long long>(after.breaker_probes),
        after.breaker_open ? "OPEN" : "closed");
    if (fault_err_healthy != 0) {
      ++failures;
      std::printf("FAILED: errors before any fault was armed\n");
    }
    if (fault_trips != 1) {
      ++failures;
      std::printf("FAILED: breaker tripped %llu times (the script trips it "
                  "exactly once)\n",
                  static_cast<unsigned long long>(fault_trips));
    }
    if (fault_short_circuits == 0) {
      ++failures;
      std::printf("FAILED: no miss was short-circuited during the outage\n");
    }
    if (during.forwards != pre_fault.forwards) {
      ++failures;
      std::printf("FAILED: the outage window completed %llu forwards on a "
                  "100%%-failing model (short-circuits must cost zero)\n",
                  static_cast<unsigned long long>(during.forwards -
                                                  pre_fault.forwards));
    }
    if (fault_err_recovered != 0 || after.breaker_open) {
      ++failures;
      std::printf("FAILED: service did not fully recover after the fault "
                  "cleared (%d errors, breaker %s)\n",
                  fault_err_recovered, after.breaker_open ? "OPEN" : "closed");
    }
    if (!after.conserved()) {
      ++failures;
      std::printf("FAILED: coalescing conservation broke under the fault "
                  "window\n");
    }
  }

  // --- Shadow serving: float vs int8 side by side (--shadow) ----------------
  // Quantizes the served model on the bench graphs (they double as the
  // calibration fold), publishes both versions behind one Router and
  // mirrors identical traffic to each. Gates: every answer bit-equal to the
  // named version's own serial predict, per-model conservation
  // (hits + misses + coalesced == queries), and agreement between versions
  // above a floor. The timing slice runs with the cache off so the speedup
  // is compute, not cache topology. The (version, fingerprint) cache key
  // keeps mixed serving stale-proof — a cross-version hit would surface
  // here as a wrong-label failure.
  bool shadow_ran = false;
  double shadow_speedup = 0, shadow_agreement = 0, shadow_accuracy_delta = 0;
  double shadow_float_us = 0, shadow_int8_us = 0;
  if (shadow) {
    auto quantized_or = model->quantize(graphs);
    if (!quantized_or.ok()) {
      ++failures;
      std::printf("\n=== Shadow serving ===\nFAILED: quantization: %s\n",
                  std::string(quantized_or.status().message()).c_str());
    } else {
      shadow_ran = true;
      const std::shared_ptr<const gnn::QuantizedModel> quantized =
          std::move(quantized_or).value();
      // Each version's own serial predictions are its ground truth; the
      // float model's double as the reference labels for the delta.
      const std::vector<int> qexpected = quantized->predict(graphs);
      std::size_t agree = 0;
      for (std::size_t g = 0; g < graphs.size(); ++g)
        if (qexpected[g] == expected[g]) ++agree;
      shadow_agreement = static_cast<double>(agree) /
                         static_cast<double>(graphs.size());
      // Fold-accuracy delta with the float predictions as reference
      // labels: float scores 1 by construction, so the delta is the
      // disagreement rate.
      shadow_accuracy_delta = 1.0 - shadow_agreement;

      // Phase 1 — mirrored serving with the cache ON: two passes over both
      // versions; the second pass must be answered from each model's own
      // cache, and per-model accounting must conserve (a capacity-0 cache
      // counts nothing, so this gate needs the cache live).
      {
        serve::RouterConfig mc;
        mc.server = server_config;
        mc.server.background_loop = false;
        serve::Router mirror(mc);
        mirror.publish("static", model);
        mirror.publish("static.int8", quantized);
        for (int pass = 0; pass < 2; ++pass)
          for (std::size_t g = 0; g < graphs.size(); ++g) {
            if (mirror.predict(serve::Request(*graphs[g], "static")).label !=
                expected[g])
              ++failures;
            if (mirror.predict(serve::Request(*graphs[g], "static.int8"))
                    .label != qexpected[g])
              ++failures;
          }
        for (const serve::RouterModelStats& m : mirror.stats().models) {
          const serve::ServerStats& s = m.stats;
          if (!s.conserved()) {
            ++failures;
            std::printf("FAILED: conservation broke for shadow model %s\n",
                        m.model.c_str());
          }
          if (s.queries != 2 * graphs.size() || s.cache.hits < unique.size()) {
            ++failures;
            std::printf("FAILED: shadow model %s: %llu queries, %llu hits\n",
                        m.model.c_str(),
                        static_cast<unsigned long long>(s.queries),
                        static_cast<unsigned long long>(s.cache.hits));
          }
        }
      }

      // Phase 2 — timing with the cache OFF, so the speedup is compute.
      serve::RouterConfig rc;
      rc.server = server_config;
      rc.server.background_loop = false;
      rc.server.cache_capacity = 0;
      serve::Router router(rc);
      router.publish("static", model);
      router.publish("static.int8", quantized);

      const int passes = quick ? 3 : 10;
      auto drive = [&](const char* name,
                       const std::vector<int>& truth) -> double {
        const auto t0 = Clock::now();
        for (int p = 0; p < passes; ++p)
          for (std::size_t g = 0; g < graphs.size(); ++g) {
            const serve::Response r =
                router.predict(serve::Request(*graphs[g], name));
            if (!r.ok() || r.label != truth[g]) ++failures;
          }
        return to_us(Clock::now() - t0) /
               (passes * static_cast<double>(graphs.size()));
      };
      // One untimed warm pass each, so both versions' shard scratch and
      // the router's steady-state containers are warm before the clock.
      for (std::size_t g = 0; g < graphs.size(); ++g) {
        if (router.predict(serve::Request(*graphs[g], "static")).label !=
            expected[g])
          ++failures;
        if (router.predict(serve::Request(*graphs[g], "static.int8")).label !=
            qexpected[g])
          ++failures;
      }
      shadow_float_us = drive("static", expected);
      shadow_int8_us = drive("static.int8", qexpected);
      shadow_speedup = shadow_float_us / shadow_int8_us;

      if (shadow_agreement < 0.85) {
        ++failures;
        std::printf("FAILED: float/int8 agreement %.3f below 0.85\n",
                    shadow_agreement);
      }

      std::printf("\n=== Shadow serving: float vs int8 (%d passes x %zu "
                  "graphs each, cache off) ===\n",
                  passes, graphs.size());
      Table shadow_table({"version", "us/query", "speedup", "agreement",
                          "accuracy delta"});
      shadow_table.add_row({"static (float)", Table::fmt(shadow_float_us, 1),
                            "1.00", "-", "-"});
      shadow_table.add_row(
          {"static.int8", Table::fmt(shadow_int8_us, 1),
           Table::fmt(shadow_speedup, 2), Table::fmt(shadow_agreement, 3),
           Table::fmt(shadow_accuracy_delta, 3)});
      shadow_table.print();
    }
  }

  // --- Arena footprint -----------------------------------------------------
  {
    const support::BufferPool::Stats pool =
        support::BufferPool::global().stats();
    std::printf("\n=== Arena ===\noutstanding %s, high-water %s\n",
                fmt_bytes(pool.outstanding_bytes).c_str(),
                fmt_bytes(pool.high_water_bytes).c_str());
  }

  // --- Machine-readable results (CI artifact) -------------------------------
  const std::string json_path = parser.get_string("json");
  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (!f) {
      std::printf("\nWARNING: could not open %s for writing\n",
                  json_path.c_str());
    } else {
      std::fprintf(
          f,
          "{\n"
          "  \"bench\": \"serve_throughput\",\n"
          "  \"config\": {\"hidden\": %d, \"layers\": %d, \"threads\": %d,\n"
          "             \"max_batch\": %d, \"cache\": %zu, \"quick\": %s},\n"
          "  \"closed_loop_4_clients\": {\"qps\": %.1f, \"p99_us\": %.1f, "
          "\"hit_rate\": %.4f},\n"
          "  \"zipf\": {\"qps\": %.1f, \"p99_us\": %.1f, \"hit_rate\": "
          "%.4f, \"coalesced\": %llu},\n"
          "  \"flash_crowd\": {\"clients\": 8, \"forwards\": %llu, "
          "\"coalesced\": %llu, \"cache_hits\": %llu},\n"
          "  \"hit_vs_miss\": {\"miss_p50_us\": %.2f, \"hit_p50_us\": "
          "%.2f},\n"
          "  \"faults\": {\"ran\": %s, \"p99_healthy_us\": %.1f, "
          "\"p99_degraded_us\": %.1f, \"p99_recovered_us\": %.1f,\n"
          "            \"errors_healthy\": %d, \"errors_degraded\": %d, "
          "\"errors_recovered\": %d,\n"
          "            \"breaker_trips\": %llu, \"short_circuits\": %llu},\n"
          "  \"shadow\": {\"ran\": %s, \"speedup\": %.3f, \"agreement\": "
          "%.4f, \"accuracy_delta\": %.4f,\n"
          "            \"float_us_per_query\": %.2f, "
          "\"int8_us_per_query\": %.2f},\n"
          "  \"failures\": %d\n"
          "}\n",
          cfg.hidden_dim, cfg.num_layers, threads, server_config.max_batch,
          server_config.cache_capacity, quick ? "true" : "false", closed_qps,
          closed_p99, closed_hit_rate, zipf_qps, zipf_p99, zipf_hit_rate,
          static_cast<unsigned long long>(zipf_coalesced),
          static_cast<unsigned long long>(flash_forwards),
          static_cast<unsigned long long>(flash_coalesced),
          static_cast<unsigned long long>(flash_hits), miss_p50, hit_p50,
          faults_ran ? "true" : "false",
          fault_p99_healthy, fault_p99_degraded, fault_p99_recovered,
          fault_err_healthy, fault_err_degraded, fault_err_recovered,
          static_cast<unsigned long long>(fault_trips),
          static_cast<unsigned long long>(fault_short_circuits),
          shadow_ran ? "true" : "false", shadow_speedup, shadow_agreement,
          shadow_accuracy_delta, shadow_float_us, shadow_int8_us, failures);
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path.c_str());
    }
  }

  if (failures != 0) {
    std::printf("\nFAILED: %d serving contract violation(s) (see above)\n",
                failures);
    return 1;
  }
  std::printf("\nall serving contracts held (determinism, zero-alloc warm "
              "hits, 10x cache advantage, one-forward flash crowds, "
              "coalescing conservation%s%s)\n",
              overload ? ", bounded-queue shedding" : "",
              faults_ran ? ", breaker containment" : "");
  return 0;
}
