// serve::Router tests: the determinism contract under the typed front door
// — every *admitted* response is bit-identical to a serial
// StaticModel::predict of the named model, for every shed policy, queue
// bound, model mix and client count — plus routing failures
// (ModelNotFound), shedding under overload never corrupting admitted
// results, hot-swap during shedding, retire with leaders in flight, and
// queue-time deadlines. Runs under TSan in CI with the other serve
// binaries.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "serve/router.h"
#include "support/rng.h"
#include "workloads/suite.h"

namespace irgnn {
namespace {

/// A dozen structurally distinct suite regions, built once.
const std::vector<graph::ProgramGraph>& test_graphs() {
  static const std::vector<graph::ProgramGraph> owned = [] {
    std::vector<graph::ProgramGraph> graphs;
    for (int r : {0, 3, 7, 12, 18, 23, 29, 34, 40, 45, 51, 55}) {
      auto module =
          workloads::build_region_module(workloads::benchmark_suite()[r]);
      graphs.push_back(graph::build_graph(*module));
    }
    return graphs;
  }();
  return owned;
}

gnn::ModelConfig small_config(std::uint64_t seed) {
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 5;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = seed;
  cfg.num_threads = 1;
  return cfg;
}

serve::ModelPtr make_model(std::uint64_t seed) {
  return std::make_shared<const gnn::StaticModel>(small_config(seed));
}

std::vector<int> serial_predict(const gnn::InferenceModel& model) {
  std::vector<const graph::ProgramGraph*> ptrs;
  for (const auto& g : test_graphs()) ptrs.push_back(&g);
  return model.predict(ptrs);
}

TEST(RouterTest, RoutesByNameAndReportsModelNotFound) {
  auto model_a = make_model(0xA);
  auto model_b = make_model(0xB);
  const std::vector<int> expected_a = serial_predict(*model_a);
  const std::vector<int> expected_b = serial_predict(*model_b);
  ASSERT_NE(expected_a, expected_b);  // nudge the seeds if this ever flakes
  const auto& graphs = test_graphs();

  serve::Router router;

  // Nothing published yet: everything is ModelNotFound, never a throw.
  serve::Response none = router.predict(serve::Request(graphs[0], "snb"));
  EXPECT_EQ(none.status.code(), serve::StatusCode::kModelNotFound);
  EXPECT_EQ(none.source, serve::Source::Shed);
  EXPECT_EQ(router.version("snb"), 0u);

  EXPECT_EQ(router.publish("snb", model_a), 1u);
  EXPECT_EQ(router.version("snb"), 1u);
  // One model: an unnamed request routes to it.
  EXPECT_TRUE(router.predict(serve::Request(graphs[0])).ok());
  // Republishing a name hot-swaps its server and bumps its version.
  const std::uint64_t snb_version = router.publish("snb", model_a);
  EXPECT_EQ(snb_version, 2u);
  EXPECT_EQ(router.version("snb"), 2u);

  const std::uint64_t skl_version = router.publish("skl", model_b);
  EXPECT_EQ(skl_version, 1u);
  EXPECT_EQ(router.models(), (std::vector<std::string>{"skl", "snb"}));

  // Two models: each name gets its own model's serial bits, for every
  // graph, including repeats from each model's own version-keyed cache.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const serve::Response a =
          router.predict(serve::Request(graphs[g], "snb"));
      const serve::Response b =
          router.predict(serve::Request(graphs[g], "skl"));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a.label, expected_a[g]);
      EXPECT_EQ(b.label, expected_b[g]);
    }
  }

  // Unknown and ambiguous names are typed failures; submit() reports them
  // before a Future ever exists.
  EXPECT_EQ(router.predict(serve::Request(graphs[0], "haswell")).status.code(),
            serve::StatusCode::kModelNotFound);
  EXPECT_EQ(router.predict(serve::Request(graphs[0])).status.code(),
            serve::StatusCode::kModelNotFound);
  serve::StatusOr<serve::InferenceServer::Future> submitted =
      router.submit(serve::Request(graphs[0], "haswell"));
  EXPECT_FALSE(submitted.ok());
  EXPECT_EQ(submitted.status().code(), serve::StatusCode::kModelNotFound);

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.model_not_found, 4u);
  ASSERT_EQ(stats.models.size(), 2u);
  EXPECT_EQ(stats.models[0].model, "skl");
  EXPECT_EQ(stats.models[0].version, skl_version);
  EXPECT_EQ(stats.models[1].model, "snb");
  EXPECT_EQ(stats.models[1].version, snb_version);
  EXPECT_EQ(stats.total.shed + stats.total.rejected +
                stats.total.deadline_exceeded,
            0u);

  // Retire stops routing; the other model keeps serving.
  EXPECT_TRUE(router.retire("snb"));
  EXPECT_FALSE(router.retire("snb"));
  EXPECT_EQ(router.version("snb"), 0u);
  EXPECT_EQ(router.predict(serve::Request(graphs[0], "snb")).status.code(),
            serve::StatusCode::kModelNotFound);
  EXPECT_EQ(router.predict(serve::Request(graphs[0], "skl")).label,
            expected_b[0]);
  // Retired traffic stays in the totals.
  EXPECT_GE(router.stats().total.queries, 4 * graphs.size());

  // After shutdown a publish creates no server and reports no version.
  router.shutdown();
  EXPECT_EQ(router.publish("snb", model_a), 0u);
  EXPECT_TRUE(router.models().empty());
}

TEST(RouterTest, AdmittedResponsesBitIdenticalForEveryPolicyAndBound) {
  // The pinned determinism contract: N concurrent clients over two models
  // behind one router, for every shed policy and several queue bounds —
  // every response that comes back Ok must equal the named model's serial
  // predict of that graph. Shedding may remove answers, never change them.
  auto model_a = make_model(0x1A);
  auto model_b = make_model(0x1B);
  const std::vector<int> expected_a = serial_predict(*model_a);
  const std::vector<int> expected_b = serial_predict(*model_b);
  const auto& graphs = test_graphs();

  for (serve::ShedPolicy policy :
       {serve::ShedPolicy::Reject, serve::ShedPolicy::DropOldest}) {
    for (std::size_t max_queue : {std::size_t{0}, std::size_t{2},
                                  std::size_t{16}}) {
      serve::RouterConfig config;
      config.max_queue = max_queue;
      config.shed_policy = policy;
      config.server.max_batch = 4;
      config.server.cache_capacity = 16;
      serve::Router router(config);
      router.publish("a", model_a);
      router.publish("b", model_b);

      constexpr int kClients = 4;
      constexpr int kQueriesPerClient = 64;
      std::atomic<int> wrong{0};
      std::atomic<int> ok_answers{0};
      std::atomic<int> shed_answers{0};
      std::vector<std::thread> clients;
      for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          Rng rng(hash_combine64(0x2071E, static_cast<std::uint64_t>(c)));
          for (int q = 0; q < kQueriesPerClient; ++q) {
            const std::size_t g = rng.next_below(graphs.size());
            const bool use_a = (rng.next_below(2) == 0);
            const serve::Response r = router.predict(
                serve::Request(graphs[g], use_a ? "a" : "b"));
            if (r.ok()) {
              ok_answers.fetch_add(1);
              const int want = use_a ? expected_a[g] : expected_b[g];
              if (r.label != want) wrong.fetch_add(1);
            } else {
              shed_answers.fetch_add(1);
              if (r.status.code() != serve::StatusCode::kOverloaded)
                wrong.fetch_add(1);
            }
          }
        });
      }
      for (auto& t : clients) t.join();
      EXPECT_EQ(wrong.load(), 0)
          << "policy=" << serve::shed_policy_name(policy)
          << " max_queue=" << max_queue;
      EXPECT_EQ(ok_answers.load() + shed_answers.load(),
                kClients * kQueriesPerClient);
      if (max_queue == 0) {
        // Unbounded admission: nothing may be shed.
        EXPECT_EQ(shed_answers.load(), 0)
            << "policy=" << serve::shed_policy_name(policy)
            << " max_queue=" << max_queue;
      }
      const serve::RouterStats stats = router.stats();
      EXPECT_EQ(stats.total.shed + stats.total.rejected,
                static_cast<std::uint64_t>(shed_answers.load()));
    }
  }
}

TEST(RouterTest, SheddingUnderOverloadNeverCorruptsAdmittedResults) {
  // An async burst far beyond the bound: admitted answers must stay serial-
  // predict bits, everything must resolve (answered or shed), and the
  // admitted queue depth must never exceed the bound.
  auto model = make_model(0x2A);
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  for (serve::ShedPolicy policy :
       {serve::ShedPolicy::Reject, serve::ShedPolicy::DropOldest}) {
    serve::RouterConfig config;
    config.max_queue = 4;
    config.shed_policy = policy;
    config.server.max_batch = 2;
    config.server.cache_capacity = 0;  // every admitted query = a forward
    config.server.background_loop = false;  // this thread drives the pump
    serve::Router router(config);
    router.publish("m", model);

    constexpr int kBurst = 96;
    int rejected = 0;
    std::vector<std::pair<std::size_t, serve::InferenceServer::Future>>
        admitted;
    for (int q = 0; q < kBurst; ++q) {
      const std::size_t g =
          static_cast<std::size_t>(q) % graphs.size();
      serve::StatusOr<serve::InferenceServer::Future> submitted =
          router.submit(serve::Request(graphs[g], "m"));
      if (!submitted.ok()) {
        EXPECT_EQ(submitted.status().code(),
                  serve::StatusCode::kOverloaded);
        ++rejected;
        continue;
      }
      admitted.emplace_back(g, std::move(submitted).value());
    }
    int answered = 0, shed = 0, corrupted = 0;
    for (auto& [g, future] : admitted) {
      const serve::Response r = future.get();
      if (r.ok()) {
        ++answered;
        if (r.label != expected[g]) ++corrupted;
      } else {
        EXPECT_EQ(r.status.code(), serve::StatusCode::kOverloaded);
        EXPECT_EQ(r.source, serve::Source::Shed);
        ++shed;
      }
    }
    EXPECT_EQ(corrupted, 0) << serve::shed_policy_name(policy);
    EXPECT_EQ(answered + shed + rejected, kBurst);
    EXPECT_GT(answered, 0);
    // With nobody pumping during the burst, a bound of 4 must have shed
    // (DropOldest admits the newcomer and drops a victim) or rejected
    // (Reject refuses the newcomer) most of it.
    if (policy == serve::ShedPolicy::Reject) {
      EXPECT_EQ(shed, 0);
      EXPECT_GT(rejected, 0);
    }
    if (policy == serve::ShedPolicy::DropOldest) {
      EXPECT_EQ(rejected, 0);
      EXPECT_GT(shed, 0);
    }
    const serve::RouterStats stats = router.stats();
    EXPECT_LE(stats.models[0].stats.peak_queue, config.max_queue);
    EXPECT_EQ(stats.total.shed, static_cast<std::uint64_t>(shed));
    EXPECT_EQ(stats.total.rejected, static_cast<std::uint64_t>(rejected));
  }
}

TEST(RouterTest, HotSwapDuringSheddingKeepsEveryAnswerOnePublication) {
  auto model_a = make_model(0x3A);
  auto model_b = make_model(0x3B);
  const std::vector<int> expected_a = serial_predict(*model_a);
  const std::vector<int> expected_b = serial_predict(*model_b);
  ASSERT_NE(expected_a, expected_b);
  const auto& graphs = test_graphs();

  serve::RouterConfig config;
  config.max_queue = 3;
  config.shed_policy = serve::ShedPolicy::DropOldest;
  config.server.max_batch = 4;
  config.server.cache_capacity = 64;
  serve::Router router(config);
  router.publish("m", model_a);

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 150;
  std::atomic<int> wrong{0};
  std::atomic<int> resolved{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(hash_combine64(0x50AB, static_cast<std::uint64_t>(c)));
      for (int q = 0; q < kQueriesPerClient; ++q) {
        const std::size_t g = rng.next_below(graphs.size());
        const serve::Response r =
            router.predict(serve::Request(graphs[g], "m"));
        if (r.ok()) {
          // Exactly one publication's serial bits — never a mix, even
          // while the queue is shedding around the swap.
          if (r.label != expected_a[g] && r.label != expected_b[g])
            wrong.fetch_add(1);
        } else if (r.status.code() != serve::StatusCode::kOverloaded) {
          wrong.fetch_add(1);
        }
        resolved.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const std::uint64_t v2 = router.publish("m", model_b);
  EXPECT_EQ(v2, 2u);
  for (auto& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(resolved.load(), kClients * kQueriesPerClient);

  // Quiesced: the new model answers, never the retired publication's cache.
  for (std::size_t g = 0; g < graphs.size(); ++g) {
    serve::Response r = router.predict(serve::Request(graphs[g], "m"));
    // Drain any shedding backwash: retry the rare Overloaded result.
    while (!r.ok()) r = router.predict(serve::Request(graphs[g], "m"));
    EXPECT_EQ(r.label, expected_b[g]);
    EXPECT_EQ(r.model_version, v2);
  }
}

TEST(RouterTest, DropOldestShedsLowestPriorityAndRejectsOutrankedNewcomers) {
  // Deterministic single-threaded shedding: background_loop off and nobody
  // pumping, so the queue evolves exactly as admission control dictates.
  auto model = make_model(0x6A);
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.background_loop = false;
  config.cache_capacity = 0;
  config.max_queue = 3;
  config.shed_policy = serve::ShedPolicy::DropOldest;
  serve::InferenceServer server(model, config);

  auto submit_with = [&](std::size_t g, serve::Priority priority) {
    serve::Request request(graphs[g]);
    request.priority = priority;
    return server.submit(request);
  };

  // Fill the queue: [High(0), Low(1), High(2)].
  auto high1 = submit_with(0, serve::Priority::High);
  auto low1 = submit_with(1, serve::Priority::Low);
  auto high2 = submit_with(2, serve::Priority::High);
  ASSERT_TRUE(high1.ok());
  ASSERT_TRUE(low1.ok());
  ASSERT_TRUE(high2.ok());

  // A Normal newcomer sheds the oldest of the LOWEST priority class — the
  // Low request, not the older High one.
  auto normal1 = submit_with(3, serve::Priority::Normal);
  ASSERT_TRUE(normal1.ok());
  const serve::Response dropped = low1.value().get();
  EXPECT_EQ(dropped.status.code(), serve::StatusCode::kOverloaded);
  EXPECT_EQ(dropped.source, serve::Source::Shed);

  // A Low newcomer is outranked by everything queued (High, High, Normal):
  // it is rejected instead of promoting itself over admitted work.
  auto low2 = submit_with(4, serve::Priority::Low);
  EXPECT_FALSE(low2.ok());
  EXPECT_EQ(low2.status().code(), serve::StatusCode::kOverloaded);

  // The survivors answer with their serial bits.
  EXPECT_EQ(high1.value().get().label, expected[0]);
  EXPECT_EQ(high2.value().get().label, expected[2]);
  EXPECT_EQ(normal1.value().get().label, expected[3]);

  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.forwards, 3u);
  EXPECT_EQ(stats.peak_queue, 3u);
  EXPECT_EQ(stats.source_shed, 2u);
}

/// Field-by-field equality of two router totals: every counter and every
/// additive CacheStats field (the gauges are not part of a total).
void expect_same_totals(const serve::ServerStats& got,
                        const serve::ServerStats& want) {
  EXPECT_EQ(got.queries, want.queries);
  EXPECT_EQ(got.forwards, want.forwards);
  EXPECT_EQ(got.batches, want.batches);
  EXPECT_EQ(got.max_batch, want.max_batch);
  EXPECT_EQ(got.model_swaps, want.model_swaps);
  EXPECT_EQ(got.coalesced, want.coalesced);
  EXPECT_EQ(got.shed, want.shed);
  EXPECT_EQ(got.rejected, want.rejected);
  EXPECT_EQ(got.deadline_exceeded, want.deadline_exceeded);
  EXPECT_EQ(got.internal_errors, want.internal_errors);
  EXPECT_EQ(got.peak_queue, want.peak_queue);
  EXPECT_EQ(got.invalid_arguments, want.invalid_arguments);
  EXPECT_EQ(got.breaker_trips, want.breaker_trips);
  EXPECT_EQ(got.breaker_probes, want.breaker_probes);
  EXPECT_EQ(got.breaker_short_circuits, want.breaker_short_circuits);
  EXPECT_EQ(got.source_cache, want.source_cache);
  EXPECT_EQ(got.source_batch, want.source_batch);
  EXPECT_EQ(got.source_coalesced, want.source_coalesced);
  EXPECT_EQ(got.source_shed, want.source_shed);
  EXPECT_EQ(got.cache.hits, want.cache.hits);
  EXPECT_EQ(got.cache.misses, want.cache.misses);
  EXPECT_EQ(got.cache.insertions, want.cache.insertions);
  EXPECT_EQ(got.cache.refreshes, want.cache.refreshes);
  EXPECT_EQ(got.cache.evictions, want.cache.evictions);
}

TEST(RouterTest, CoalescingFoldsIntoRouterStatsAndSurvivesRetire) {
  auto model = make_model(0x7A);
  auto other = make_model(0x7B);
  const std::vector<int> expected = serial_predict(*model);
  const std::vector<int> expected_other = serial_predict(*other);
  const auto& graphs = test_graphs();

  serve::RouterConfig config;
  config.max_queue = 0;  // nothing is shed for lack of room in this test
  config.server.background_loop = false;
  config.server.cache_capacity = 64;
  serve::Router router(config);
  router.publish("m", model);
  router.publish("n", other);

  // Duplicate in-flight submits through the router coalesce on the routed
  // server: one forward answers both.
  auto leader = router.submit(serve::Request(graphs[2], "m"));
  auto waiter = router.submit(serve::Request(graphs[2], "m"));
  ASSERT_TRUE(leader.ok() && waiter.ok());
  const serve::Response rw = waiter.value().get();
  EXPECT_EQ(rw.label, expected[2]);
  EXPECT_EQ(rw.source, serve::Source::Coalesced);
  EXPECT_EQ(leader.value().get().label, expected[2]);

  // The forward filled the cache: a repeat hits.
  const serve::Response hit = router.predict(serve::Request(graphs[2], "m"));
  EXPECT_EQ(hit.label, expected[2]);
  EXPECT_EQ(hit.source, serve::Source::Cache);

  // Two distinct misses queued together: m's largest batch is 2.
  auto a = router.submit(serve::Request(graphs[0], "m"));
  auto b = router.submit(serve::Request(graphs[1], "m"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().get().label, expected[0]);
  EXPECT_EQ(b.value().get().label, expected[1]);

  // Different traffic on n: three queries expire in the queue before a
  // fourth is pumped, so n's queue peaks at 4 while its largest batch is 1
  // — the high-water marks of the two servers peak on different fields.
  std::vector<serve::InferenceServer::Future> expiring;
  for (std::size_t g = 0; g < 3; ++g) {
    serve::Request hurried(graphs[g], "n");
    hurried.deadline_us = 1;
    auto f = router.submit(hurried);
    ASSERT_TRUE(f.ok());
    expiring.push_back(std::move(f).value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  auto patient = router.submit(serve::Request(graphs[3], "n"));
  ASSERT_TRUE(patient.ok());
  EXPECT_EQ(patient.value().get().label, expected_other[3]);
  for (auto& f : expiring)
    EXPECT_EQ(f.get().status.code(), serve::StatusCode::kDeadlineExceeded);

  const serve::RouterStats live = router.stats();
  ASSERT_EQ(live.models.size(), 2u);
  const serve::ServerStats m = live.models[0].stats;  // name order: m, n
  const serve::ServerStats& n = live.models[1].stats;
  EXPECT_EQ(m.queries, 5u);
  EXPECT_EQ(m.forwards, 3u);
  EXPECT_EQ(m.coalesced, 1u);
  EXPECT_EQ(m.source_coalesced, 1u);
  EXPECT_EQ(m.cache.hits, 1u);
  EXPECT_EQ(m.cache.misses, 3u);
  EXPECT_EQ(m.max_batch, 2u);
  EXPECT_EQ(m.peak_queue, 2u);
  EXPECT_EQ(n.queries, 4u);
  EXPECT_EQ(n.forwards, 1u);
  EXPECT_EQ(n.deadline_exceeded, 3u);
  EXPECT_EQ(n.max_batch, 1u);
  EXPECT_EQ(n.peak_queue, 4u);

  serve::ServerStats both = m;
  both.merge(n);
  expect_same_totals(live.total, both);
  EXPECT_EQ(live.total.max_batch, 2u) << "high-water marks take the max";
  EXPECT_EQ(live.total.peak_queue, 4u) << "high-water marks take the max";
  EXPECT_TRUE(live.total.conserved());

  // Retiring m merges its final traffic into the retained totals — router
  // stats survive the server they came from, counter for counter, and the
  // high-water marks keep their max across live and retired servers.
  ASSERT_TRUE(router.retire("m"));
  const serve::RouterStats after = router.stats();
  ASSERT_EQ(after.models.size(), 1u);
  EXPECT_EQ(after.models[0].model, "n");
  serve::ServerStats want = m;
  want.merge(after.models[0].stats);
  expect_same_totals(after.total, want);
  EXPECT_EQ(after.total.max_batch, 2u);
  EXPECT_EQ(after.total.peak_queue, 4u);
  // Gauges describe one server; a total leaves them at zero.
  EXPECT_EQ(after.total.cache.entries, 0u);
  EXPECT_FALSE(after.total.breaker_open);
  // Routing counters are the router's own, not merged from servers.
  EXPECT_EQ(after.routed, live.routed);
}

TEST(RouterTest, QueueTimeDeadlineExpiresToDeadlineExceeded) {
  auto model = make_model(0x5A);
  const std::vector<int> expected = serial_predict(*model);
  const auto& graphs = test_graphs();

  serve::ServerConfig config;
  config.background_loop = false;  // nothing pumps until we ask
  config.cache_capacity = 0;
  serve::InferenceServer server(model, config);

  serve::Request patient(graphs[0]);
  serve::Request hurried(graphs[1]);
  hurried.deadline_us = 1;  // expires while nobody is pumping
  serve::StatusOr<serve::InferenceServer::Future> first =
      server.submit(patient);
  serve::StatusOr<serve::InferenceServer::Future> second =
      server.submit(hurried);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  // Collecting the patient request pumps the queue; the hurried one is
  // picked up by the same pump, found expired, and shed instead of
  // forwarded.
  const serve::Response r1 = first.value().get();
  const serve::Response r2 = second.value().get();
  EXPECT_TRUE(r1.ok());
  EXPECT_EQ(r1.label, expected[0]);
  EXPECT_EQ(r2.status.code(), serve::StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r2.source, serve::Source::Shed);
  EXPECT_GE(r2.queue_us, 1);
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.forwards, 1u);
}

TEST(RouterTest, RetireWithLeadersInFlightNeverResurrectsTheOldModel) {
  // Concurrent client misses keep leaders (and their coalesced waiters)
  // queued on the background loop; a retire() racing them must drain them
  // with the dying server — answered with the old model's bits — and a
  // fresh publish under the SAME name must answer with the new model's
  // bits and version, never a leftover of the old one.
  auto old_model = make_model(0x01D);
  auto new_model = make_model(0x2E11);
  const std::vector<int> expected_old = serial_predict(*old_model);
  const std::vector<int> expected_new = serial_predict(*new_model);
  ASSERT_NE(expected_old, expected_new);  // nudge the seeds if this flakes
  const auto& graphs = test_graphs();

  for (int round = 0; round < 8; ++round) {
    serve::RouterConfig config;
    config.max_queue = 0;
    // A long batch window holds the burst in flight until retire drains it.
    config.server.max_wait_us = 20000;
    config.server.cache_capacity = 64;
    serve::Router router(config);
    const std::uint64_t v_old = router.publish("m", old_model);

    constexpr int kClients = 2;
    std::atomic<int> submitted{0};
    std::atomic<int> answered{0};
    std::atomic<int> wrong{0};
    std::atomic<int> clients_ready{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        // Every client misses on every graph: the first to submit leads,
        // the other coalesces onto it. Continuations, not futures, because
        // retire() destroys the server a future would point into.
        for (std::size_t g = 0; g < graphs.size(); ++g) {
          auto f = router.submit(serve::Request(graphs[g], "m"));
          if (!f.ok()) continue;
          submitted.fetch_add(1);
          const int want = expected_old[g];
          f.value().then([&answered, &wrong, want,
                          v_old](const serve::Response& r) {
            if (!r.ok() || r.label != want || r.model_version != v_old)
              wrong.fetch_add(1);
            answered.fetch_add(1);
          });
        }
        clients_ready.fetch_add(1);
        // Keep racing the retire with synchronous misses and hits.
        for (std::size_t g = 0; g < graphs.size(); ++g) {
          const serve::Response r = router.predict(serve::Request(graphs[g]));
          if (r.ok() && r.label != expected_old[g]) wrong.fetch_add(1);
        }
      });
    }
    while (clients_ready.load() < kClients) std::this_thread::yield();
    ASSERT_TRUE(router.retire("m"));  // leaders still inside the window
    for (auto& t : clients) t.join();
    EXPECT_EQ(answered.load(), submitted.load()) << "round " << round;
    EXPECT_EQ(wrong.load(), 0) << "round " << round;

    const std::uint64_t v = router.publish("m", new_model);
    for (std::size_t g = 0; g < graphs.size(); ++g) {
      const serve::Response r = router.predict(serve::Request(graphs[g]));
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.label, expected_new[g]) << "stale answer, round " << round;
      EXPECT_EQ(r.model_version, v);
    }
    router.shutdown();
  }
}

TEST(RouterTest, RetryPolicyNeverRetriesDeterministicFailures) {
  // The retry layer in the default build (no fault injection): failures
  // that retrying cannot fix must come back immediately, with zero retries
  // spent — Overloaded above all (retrying a shed amplifies the overload
  // the shed was shedding), and ModelNotFound (deterministic).
  auto model = make_model(0x0F);
  const auto& graphs = test_graphs();

  serve::RouterConfig config;
  config.max_queue = 1;
  config.shed_policy = serve::ShedPolicy::Reject;
  config.server.background_loop = false;
  config.server.max_wait_us = 0;
  config.server.cache_capacity = 0;
  config.server.coalesce = false;
  serve::Router router(config);
  router.publish("m", model);

  serve::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.base_backoff_us = 0;  // a retry would be instant — and visible

  // Unknown model: one attempt, ModelNotFound, no retries.
  const serve::Response missing =
      router.predict(serve::Request(graphs[0], "nope"), policy);
  EXPECT_EQ(missing.status.code(), serve::StatusCode::kModelNotFound);
  EXPECT_EQ(router.stats().retries, 0u);

  // Fill the 1-deep queue with an unpumped future (background_loop off:
  // nothing drains until we collect it), then predict with retries armed:
  // the Overloaded shed must NOT be retried.
  serve::StatusOr<serve::InferenceServer::Future> parked =
      router.submit(serve::Request(graphs[1]));
  ASSERT_TRUE(parked.ok());
  const serve::Response shed =
      router.predict(serve::Request(graphs[2]), policy);
  EXPECT_EQ(shed.status.code(), serve::StatusCode::kOverloaded);
  EXPECT_EQ(shed.source, serve::Source::Shed);

  const serve::Response parked_answer = parked.value().get();
  EXPECT_TRUE(parked_answer.ok());

  const serve::RouterStats stats = router.stats();
  EXPECT_EQ(stats.retry_requests, 2u);
  EXPECT_EQ(stats.retries, 0u)
      << "a deterministic failure was retried — wasted forwards";
  EXPECT_EQ(stats.retry_successes, 0u);
  EXPECT_EQ(stats.total.rejected, 1u)
      << "exactly one admission attempt was made";
}

}  // namespace
}  // namespace irgnn
