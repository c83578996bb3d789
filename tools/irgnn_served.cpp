// irgnn_served: the out-of-process serving daemon.
//
// Builds a deterministic StaticModel from the shared model flags (see
// bench/bench_common.h — clients rebuild the identical model from the same
// flags instead of receiving weights), publishes it as "static" behind a
// serve::Router, and serves the net/codec wire protocol over TCP through
// net::NetServer until SIGTERM/SIGINT, then drains gracefully: stop
// accepting, answer every admitted query, flush every connection, exit 0.
// CI's net job gates that exit code.
//
//   ./irgnn_served --port 9157 --threads 2
//   ./irgnn_served --port 0          (ephemeral; the bound port is printed)
//   kill -TERM <pid>                 (graceful drain)
#include <csignal>
#include <cstdio>
#include <memory>

#include "bench/bench_common.h"
#include "gnn/model.h"
#include "net/server.h"
#include "serve/router.h"
#include "support/argparse.h"

using namespace irgnn;

namespace {

net::NetServer* g_server = nullptr;

// Async-signal-safe by construction: request_drain is one atomic store and
// one eventfd write.
void handle_signal(int) {
  if (g_server != nullptr) g_server->request_drain();
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser parser("irgnn_served",
                   "TCP serving daemon for the wire protocol (net/codec): "
                   "deterministic model, router admission control, graceful "
                   "drain on SIGTERM");
  bench::add_model_flags(parser);
  parser
      .add("max-queue", "256",
           "admission bound per model (0: unbounded)")
      .add("shed", "Reject",
           "admission shed policy: Reject | DropOldest")
      .add("max-batch", "64", "micro-batch flush size")
      .add("wait-us", "200", "micro-batch window in microseconds")
      .add("cache", "4096", "prediction cache entries (0 disables)")
      .add("write-buffer", "1048576",
           "per-connection cap on unsent response bytes; over it, new "
           "requests on that connection answer Overloaded");
  bench::add_runtime_flags(parser, /*default_threads=*/"0");
  bench::add_net_flags(parser, /*default_port=*/"9157",
                       /*default_connections=*/"4096");
  if (!parser.parse(argc, argv)) return 1;
  const int threads = bench::apply_threads(parser);

  serve::ShedPolicy policy;
  if (!bench::parse_shed_policy(parser.get_string("shed"), &policy)) {
    std::fprintf(stderr,
                 "error: flag '--shed' expects Reject or DropOldest, got "
                 "'%s'\n%s",
                 parser.get_string("shed").c_str(), parser.usage().c_str());
    return 1;
  }

  gnn::ModelConfig cfg = bench::model_config_from(parser, threads);
  auto model = std::make_shared<const gnn::StaticModel>(cfg);

  serve::RouterConfig router_config;
  router_config.max_queue =
      static_cast<std::size_t>(parser.get_int("max-queue"));
  router_config.shed_policy = policy;
  router_config.server.max_batch =
      static_cast<int>(parser.get_int("max-batch"));
  router_config.server.max_wait_us =
      static_cast<int>(parser.get_int("wait-us"));
  router_config.server.cache_capacity =
      static_cast<std::size_t>(parser.get_int("cache"));
  serve::Router router(router_config);
  router.publish("static", model);

  net::NetServerConfig net_config;
  net_config.host = parser.get_string("host");
  net_config.port = static_cast<std::uint16_t>(parser.get_int("port"));
  net_config.max_connections =
      static_cast<std::size_t>(parser.get_int("connections"));
  net_config.max_write_buffer =
      static_cast<std::size_t>(parser.get_int("write-buffer"));
  net::NetServer server(router, net_config);

  support::Status status = server.start();
  if (!status.ok()) {
    std::fprintf(stderr, "irgnn_served: start failed: %s (%s)\n",
                 status.code_name(), status.message());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  std::printf("irgnn_served listening on %s:%u (model static: hidden=%d "
              "layers=%d labels=%d seed=%llu, shed=%s, max_queue=%zu, "
              "threads=%d)\n",
              net_config.host.c_str(), static_cast<unsigned>(server.port()),
              cfg.hidden_dim, cfg.num_layers, cfg.num_labels,
              static_cast<unsigned long long>(cfg.seed),
              serve::shed_policy_name(policy), router_config.max_queue,
              threads);
  std::fflush(stdout);

  server.wait();  // returns when a signal triggered the drain and it finished

  const net::NetServerStats net_stats = server.stats();
  const serve::ServerStats totals = router.stats().total;
  router.shutdown();
  std::printf("irgnn_served drained: %llu connections served, %llu requests, "
              "%llu responses, %llu queries (%llu hits, %llu misses, %llu "
              "coalesced), open slots %llu\n",
              static_cast<unsigned long long>(net_stats.accepted),
              static_cast<unsigned long long>(net_stats.requests),
              static_cast<unsigned long long>(net_stats.responses),
              static_cast<unsigned long long>(totals.queries),
              static_cast<unsigned long long>(totals.cache.hits),
              static_cast<unsigned long long>(totals.cache.misses),
              static_cast<unsigned long long>(totals.coalesced),
              static_cast<unsigned long long>(net_stats.open_slots));
  // A leaked slot after a full drain is a bug worth a nonzero exit.
  return net_stats.open_slots == 0 ? 0 : 2;
}
