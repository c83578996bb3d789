// Load generator and contract gate for the wire protocol (net/*).
//
// Two modes, both of which exit nonzero on any contract violation so the CI
// runs are real gates:
//
//   In-process sections (always). The loadgen hosts its own
//   Router + NetServer on an ephemeral loopback port and drives it through
//   real sockets, sweeping shed policy x connection count, plus a pipelined
//   open-loop burst and a drain-under-load leg. Gates:
//     - bit-identity: every TCP answer equals the serial
//       StaticModel::predict AND the in-process Router::predict of the same
//       graph — for every shed policy, connection count and model thread
//       count (models built at different num_threads must already agree,
//       which is gated first);
//     - conservation folded through the server, read back over the wire via
//       a kStatsRequest: cache hits + misses + coalesced == queries, and
//       the net layer answered every request it admitted;
//     - pipelined out-of-order completions match by tag;
//     - graceful drain answers every admitted query, then closes every
//       connection and frees every slot (open_slots == 0).
//
//   Remote mode (--port != 0). The same closed-loop and pipelined traffic
//   against an external irgnn_served (CI runs one over loopback), with the
//   reference model rebuilt locally from the SAME flags — deterministic
//   construction replaces weight shipping (bench/bench_common.h). The
//   bit-identity and wire-stats conservation gates apply across the process
//   boundary.
//
// Results land in BENCH_net.json (--json).
//
//   ./net_loadgen --quick                          (in-process gates only)
//   ./net_loadgen --quick --port 9157              (plus remote gates)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "gnn/model.h"
#include "net/client.h"
#include "net/server.h"
#include "serve/router.h"
#include "support/argparse.h"
#include "support/rng.h"
#include "support/table.h"

using namespace irgnn;
using Clock = std::chrono::steady_clock;

namespace {

using bench::Percentiles;
using bench::percentiles;
using bench::to_us;

/// Closed loop: `connections` client threads, each its own TCP connection
/// and `queries` synchronous predicts. Returns wrong-answer count; fills
/// latencies and wall seconds.
int closed_loop(const std::string& host, std::uint16_t port, int connections,
                int queries, const std::vector<graph::ProgramGraph>& graphs,
                const std::vector<int>& expected, std::uint64_t seed,
                std::vector<double>* latencies_us, double* wall_s) {
  std::atomic<int> wrong{0};
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(connections));
  const auto t0 = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      net::NetClient client;
      if (!client.connect(host, port).ok()) {
        wrong.fetch_add(queries);  // a dead client fails its whole share
        return;
      }
      Rng rng(hash_combine64(seed, static_cast<std::uint64_t>(c)));
      auto& my_lat = lat[static_cast<std::size_t>(c)];
      my_lat.reserve(static_cast<std::size_t>(queries));
      for (int q = 0; q < queries; ++q) {
        const std::size_t g = rng.next_below(graphs.size());
        const auto s0 = Clock::now();
        auto response = client.predict(serve::Request(graphs[g]));
        my_lat.push_back(to_us(Clock::now() - s0));
        if (!response.ok() || !response->ok() ||
            response->label != expected[g])
          wrong.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();
  *wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& l : lat)
    latencies_us->insert(latencies_us->end(), l.begin(), l.end());
  return wrong.load();
}

/// Conservation gates over a kStatsRequest reply. `expected_requests` < 0
/// skips the request-accounting gate (remote servers may carry traffic from
/// other clients).
int gate_wire_stats(const net::WireStats& ws, long long expected_requests) {
  int failures = 0;
  if (ws.cache_hits + ws.cache_misses + ws.coalesced != ws.queries) {
    ++failures;
    std::printf("FAILED: conservation through the server (hits %llu + "
                "misses %llu + coalesced %llu != queries %llu)\n",
                static_cast<unsigned long long>(ws.cache_hits),
                static_cast<unsigned long long>(ws.cache_misses),
                static_cast<unsigned long long>(ws.coalesced),
                static_cast<unsigned long long>(ws.queries));
  }
  if (expected_requests >= 0 &&
      ws.net_requests != static_cast<std::uint64_t>(expected_requests)) {
    ++failures;
    std::printf("FAILED: the server parsed %llu requests, clients sent "
                "%lld\n",
                static_cast<unsigned long long>(ws.net_requests),
                expected_requests);
  }
  if (ws.net_decode_errors != 0 || ws.net_protocol_errors != 0) {
    ++failures;
    std::printf("FAILED: well-formed traffic produced %llu decode / %llu "
                "protocol errors\n",
                static_cast<unsigned long long>(ws.net_decode_errors),
                static_cast<unsigned long long>(ws.net_protocol_errors));
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("net_loadgen",
                   "many-connection load generator for irgnn_served: gates "
                   "bit-identity of TCP answers against the in-process "
                   "router, conservation through the wire stats frame, "
                   "pipelined tag matching and graceful drain");
  bench::add_model_flags(parser);
  parser.add("queries", "2000", "closed-loop queries per connection")
      .add("json", "BENCH_net.json",
           "write machine-readable results here (empty disables)")
      .add("quick", "false", "CI smoke: fewer queries, same contract gates");
  bench::add_runtime_flags(parser, /*default_threads=*/"1");
  bench::add_net_flags(parser, /*default_port=*/"0",
                       /*default_connections=*/"4");
  bench::add_corpus_flags(parser);
  if (!parser.parse(argc, argv)) return 1;

  const bool quick = parser.get_bool("quick");
  const int threads = bench::apply_threads(parser);
  const int queries =
      quick ? 200 : static_cast<int>(parser.get_int("queries"));
  const int connections =
      std::max(1, static_cast<int>(parser.get_int("connections")));
  const std::string host = parser.get_string("host");
  const std::uint16_t remote_port =
      static_cast<std::uint16_t>(parser.get_int("port"));
  const std::uint64_t seed = 0x9E7C0DE;

  int failures = 0;

  // --- Ground truth + cross-thread model determinism ------------------------
  // Suite graphs by default; --corpus/--dataset-cache swap in an ingested
  // corpus as the traffic source (bench_common.h).
  std::vector<graph::ProgramGraph> graphs;
  {
    const support::Status corpus_status =
        bench::corpus_traffic(parser, &graphs);
    if (!corpus_status.ok()) {
      std::fprintf(stderr, "corpus traffic source failed: %s\n",
                   corpus_status.message());
      return 1;
    }
  }
  if (graphs.empty()) graphs = bench::suite_graphs();
  std::vector<const graph::ProgramGraph*> graph_ptrs;
  for (const auto& g : graphs) graph_ptrs.push_back(&g);
  gnn::ModelConfig cfg = bench::model_config_from(parser, threads);
  auto model = std::make_shared<const gnn::StaticModel>(cfg);
  const std::vector<int> expected = model->predict(graph_ptrs);
  for (int other_threads : {1, 4}) {
    gnn::ModelConfig alt = cfg;
    alt.num_threads = other_threads;
    const gnn::StaticModel other(alt);
    if (other.predict(graph_ptrs) != expected) {
      ++failures;
      std::printf("FAILED: model predictions differ between %d and %d "
                  "threads — the cross-process identity premise is broken\n",
                  threads, other_threads);
    }
  }

  std::printf("=== net_loadgen (hidden=%d layers=%d seed=%llu, %zu graphs, "
              "%d queries x %d connections, threads=%d) ===\n",
              cfg.hidden_dim, cfg.num_layers,
              static_cast<unsigned long long>(cfg.seed), graphs.size(),
              queries, connections, threads);

  // --- In-process sweep: shed policy x connection count ---------------------
  Table sweep({"policy", "connections", "queries", "p50 [us]", "p99 [us]",
               "queries/sec", "hits", "misses", "coalesced"});
  double inproc_qps = 0, inproc_p99 = 0;
  std::vector<int> conn_counts{1};
  if (connections != 1) conn_counts.push_back(connections);
  for (serve::ShedPolicy policy :
       {serve::ShedPolicy::Reject, serve::ShedPolicy::DropOldest}) {
    for (int conns : conn_counts) {
      serve::RouterConfig router_config;
      router_config.shed_policy = policy;
      serve::Router router(router_config);
      router.publish("static", model);

      // In-process reference: the router's own answers define the bits the
      // TCP path must reproduce (they are themselves gated against serial
      // predict here).
      for (std::size_t g = 0; g < graphs.size(); ++g) {
        const serve::Response r = router.predict(graphs[g]);
        if (!r.ok() || r.label != expected[g]) {
          ++failures;
          std::printf("FAILED: in-process router disagrees with serial "
                      "predict on graph %zu\n", g);
        }
      }

      net::NetServer server(router, {});
      support::Status status = server.start();
      if (!status.ok()) {
        ++failures;
        std::printf("FAILED: NetServer::start: %s\n", status.message());
        continue;
      }

      std::vector<double> lat;
      double wall_s = 0;
      const int wrong =
          closed_loop("127.0.0.1", server.port(), conns, queries, graphs,
                      expected, hash_combine64(seed, conns), &lat, &wall_s);
      if (wrong != 0) {
        ++failures;
        std::printf("FAILED: %d TCP answers differed from serial predict "
                    "(%s, %d connections)\n",
                    wrong, serve::shed_policy_name(policy), conns);
      }

      // Conservation, read back over the wire.
      net::WireStats ws{};
      {
        net::NetClient stats_client;
        if (!stats_client.connect("127.0.0.1", server.port()).ok() ||
            !stats_client.get_stats(&ws).ok()) {
          ++failures;
          std::printf("FAILED: kStatsRequest round trip\n");
        } else {
          failures += gate_wire_stats(
              ws, static_cast<long long>(conns) * queries);
        }
      }

      server.shutdown();
      const net::NetServerStats net_stats = server.stats();
      if (!net_stats.finished || net_stats.open_slots != 0) {
        ++failures;
        std::printf("FAILED: drain leaked %llu slots (%s, %d conns)\n",
                    static_cast<unsigned long long>(net_stats.open_slots),
                    serve::shed_policy_name(policy), conns);
      }

      const Percentiles p = percentiles(lat);
      const double qps = static_cast<double>(conns) * queries / wall_s;
      sweep.add_row({serve::shed_policy_name(policy), std::to_string(conns),
                     std::to_string(conns * queries), Table::fmt(p.p50, 1),
                     Table::fmt(p.p99, 1), Table::fmt(qps, 0),
                     std::to_string(ws.cache_hits),
                     std::to_string(ws.cache_misses),
                     std::to_string(ws.coalesced)});
      if (policy == serve::ShedPolicy::Reject && conns == connections) {
        inproc_qps = qps;
        inproc_p99 = p.p99;
      }
    }
  }
  std::printf("\n=== In-process sweep (loopback TCP, closed loop) ===\n");
  sweep.print();

  // --- Pipelined open loop: one connection, many in flight ------------------
  std::uint64_t pipeline_out_of_order = 0;
  {
    serve::RouterConfig router_config;
    router_config.max_queue = 0;  // unbounded: the burst must all be admitted
    serve::Router router(router_config);
    router.publish("static", model);
    net::NetServer server(router, {});
    if (!server.start().ok()) {
      ++failures;
      std::printf("FAILED: NetServer::start (pipeline leg)\n");
    } else {
      const int burst = quick ? 300 : 2000;
      net::NetClient client;
      if (!client.connect("127.0.0.1", server.port()).ok()) {
        ++failures;
        std::printf("FAILED: pipeline client connect\n");
      } else {
        Rng rng(hash_combine64(seed, 0x9199));
        std::vector<std::size_t> stream;
        stream.reserve(static_cast<std::size_t>(burst));
        bool send_failed = false;
        for (int q = 0; q < burst && !send_failed; ++q) {
          stream.push_back(rng.next_below(graphs.size()));
          // The tag encodes the send index: recv() proves tag matching by
          // checking the label against the graph that index named.
          if (!client
                   .send(serve::Request(graphs[stream.back()]),
                         static_cast<std::uint64_t>(q))
                   .ok()) {
            ++failures;
            std::printf("FAILED: pipelined send %d\n", q);
            send_failed = true;
          }
        }
        std::uint64_t last_tag = 0;
        bool first = true;
        for (int q = 0; q < burst && !send_failed; ++q) {
          auto decoded = client.recv();
          if (!decoded.ok()) {
            ++failures;
            std::printf("FAILED: pipelined recv %d: %s\n", q,
                        decoded.status().message());
            break;
          }
          if (decoded->tag >= static_cast<std::uint64_t>(burst)) {
            ++failures;
            std::printf("FAILED: unknown tag %llu\n",
                        static_cast<unsigned long long>(decoded->tag));
            continue;
          }
          if (!first && decoded->tag < last_tag) ++pipeline_out_of_order;
          first = false;
          last_tag = decoded->tag;
          const std::size_t g = stream[decoded->tag];
          if (!decoded->response.ok() ||
              decoded->response.label != expected[g]) {
            ++failures;
            std::printf("FAILED: pipelined answer for tag %llu wrong\n",
                        static_cast<unsigned long long>(decoded->tag));
          }
        }
      }
      server.shutdown();
      const net::NetServerStats net_stats = server.stats();
      if (net_stats.open_slots != 0) {
        ++failures;
        std::printf("FAILED: pipeline leg leaked %llu slots\n",
                    static_cast<unsigned long long>(net_stats.open_slots));
      }
      std::printf("\n=== Pipelined open loop (1 connection, burst %d) ===\n"
                  "out-of-order completions observed: %llu (cache hits "
                  "overtaking misses; matched by tag)\n",
                  burst,
                  static_cast<unsigned long long>(pipeline_out_of_order));
    }
  }

  // --- Drain under load: SIGTERM semantics without the signal ---------------
  {
    serve::Router router;
    router.publish("static", model);
    net::NetServer server(router, {});
    if (!server.start().ok()) {
      ++failures;
      std::printf("FAILED: NetServer::start (drain leg)\n");
    } else {
      const int burst = quick ? 100 : 500;
      net::NetClient client;
      if (!client.connect("127.0.0.1", server.port()).ok()) {
        ++failures;
      } else {
        Rng rng(hash_combine64(seed, 0xD12A));
        std::vector<std::size_t> stream;
        for (int q = 0; q < burst; ++q) {
          stream.push_back(rng.next_below(graphs.size()));
          if (!client
                   .send(serve::Request(graphs[stream.back()]),
                         static_cast<std::uint64_t>(q))
                   .ok())
            break;
        }
        // Drain mid-stream: everything admitted must still be answered
        // correctly; everything not yet parsed is dropped (we see EOF). The
        // brief sleep lets the server parse part of the burst so the leg
        // exercises answer-then-close rather than instant close; how MUCH
        // was admitted stays timing-dependent and is deliberately ungated.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        server.request_drain();
        int received = 0;
        for (;;) {
          auto decoded = client.recv();
          if (!decoded.ok()) break;  // EOF: the server closed after flushing
          ++received;
          const std::size_t g = stream[decoded->tag];
          if (!decoded->response.ok() ||
              decoded->response.label != expected[g]) {
            ++failures;
            std::printf("FAILED: drain answered tag %llu wrongly\n",
                        static_cast<unsigned long long>(decoded->tag));
          }
        }
        server.wait();
        const net::NetServerStats net_stats = server.stats();
        if (!net_stats.finished || net_stats.open_slots != 0) {
          ++failures;
          std::printf("FAILED: drain under load leaked %llu slots\n",
                      static_cast<unsigned long long>(net_stats.open_slots));
        }
        std::printf("\n=== Drain under load (burst %d, drain mid-stream) "
                    "===\nanswered %d before close; every answer correct, "
                    "every slot freed\n",
                    burst, received);
      }
    }
  }

  // --- Remote mode: an external irgnn_served --------------------------------
  double remote_qps = 0, remote_p50 = 0, remote_p99 = 0;
  bool remote_ran = false;
  if (remote_port != 0) {
    remote_ran = true;
    std::vector<double> lat;
    double wall_s = 0;
    const int wrong = closed_loop(host, remote_port, connections, queries,
                                  graphs, expected,
                                  hash_combine64(seed, 0x2E307E), &lat,
                                  &wall_s);
    if (wrong != 0) {
      ++failures;
      std::printf("FAILED: %d remote answers differed from the locally "
                  "rebuilt model (flag mismatch between the processes?)\n",
                  wrong);
    }
    net::WireStats ws{};
    net::NetClient stats_client;
    if (!stats_client.connect(host, remote_port).ok() ||
        !stats_client.get_stats(&ws).ok()) {
      ++failures;
      std::printf("FAILED: remote kStatsRequest round trip\n");
    } else {
      // -1: the remote server may have served other clients; only the
      // conservation law must hold, not our private request count.
      failures += gate_wire_stats(ws, -1);
    }
    const Percentiles p = percentiles(lat);
    remote_qps = static_cast<double>(connections) * queries / wall_s;
    remote_p50 = p.p50;
    remote_p99 = p.p99;
    std::printf("\n=== Remote (%s:%u, %d connections x %d queries) ===\n"
                "%.0f queries/sec, p50 %.1f us, p99 %.1f us | server: %llu "
                "queries, %llu hits, %llu misses, %llu coalesced\n",
                host.c_str(), static_cast<unsigned>(remote_port), connections,
                queries, remote_qps, remote_p50, remote_p99,
                static_cast<unsigned long long>(ws.queries),
                static_cast<unsigned long long>(ws.cache_hits),
                static_cast<unsigned long long>(ws.cache_misses),
                static_cast<unsigned long long>(ws.coalesced));
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
          "  \"bench\": \"net_loadgen\",\n"
          "  \"config\": {\"hidden\": %d, \"layers\": %d, \"threads\": %d, "
          "\"connections\": %d, \"queries\": %d, \"quick\": %s},\n"
          "  \"in_process\": {\"qps\": %.1f, \"p99_us\": %.1f, "
          "\"pipeline_out_of_order\": %llu},\n"
          "  \"remote\": {\"ran\": %s, \"qps\": %.1f, \"p50_us\": %.1f, "
          "\"p99_us\": %.1f},\n"
          "  \"failures\": %d\n"
          "}\n",
          cfg.hidden_dim, cfg.num_layers, threads, connections, queries,
          quick ? "true" : "false", inproc_qps, inproc_p99,
          static_cast<unsigned long long>(pipeline_out_of_order),
          remote_ran ? "true" : "false", remote_qps, remote_p50, remote_p99,
          failures);
      std::fclose(f);
      std::printf("\nwrote %s\n", json_path.c_str());
    }
  }

  if (failures != 0) {
    std::printf("\nFAILED: %d wire-protocol contract violation(s) (see "
                "above)\n",
                failures);
    return 1;
  }
  std::printf("\nall wire-protocol contracts held (TCP bit-identity across "
              "policies/connections, conservation through the stats frame, "
              "tag-matched pipelining, leak-free graceful drain%s)\n",
              remote_ran ? ", remote irgnn_served" : "");
  return 0;
}
