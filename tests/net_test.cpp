// Wire codec and TCP server tests (src/net/).
//
// This binary replaces the global operator new/delete with counting
// wrappers (same scheme as arena_test) so the steady-state test can pin the
// codec's zero-allocation contract: once buffers are warm, encoding and
// decoding the same frame shapes touches the heap exactly zero times.
//
// The other codec contract — malformed input is a Status, never a crash —
// is driven by a seeded mutation fuzz: every truncation of every frame type
// must come back InvalidArgument, and random bit flips may change meaning
// but must never crash, read out of bounds, or produce an out-of-limits
// graph.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "gnn/model.h"
#include "graph/fingerprint.h"
#include "graph/graph_builder.h"
#include "net/client.h"
#include "net/codec.h"
#include "net/server.h"
#include "serve/router.h"
#include "support/rng.h"
#include "workloads/suite.h"

// --- Global allocation counter ---------------------------------------------

static std::atomic<std::uint64_t> g_heap_allocations{0};

static void* counted_alloc(std::size_t size) {
  ++g_heap_allocations;
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace irgnn {
namespace {

using net::DecodedRequest;
using net::DecodedResponse;
using net::FrameBytes;
using net::FrameHeader;
using net::FrameType;
using net::WireStats;
using support::Status;
using support::StatusCode;

graph::ProgramGraph suite_graph(int region) {
  auto module =
      workloads::build_region_module(workloads::benchmark_suite()[region]);
  return graph::build_graph(*module);
}

/// A synthetic graph larger than any suite region, with every node/edge
/// kind and position values exercised.
graph::ProgramGraph big_graph(int nodes, std::uint64_t seed) {
  graph::ProgramGraph g;
  g.name = "synthetic";  // must NOT survive the wire
  Rng rng(seed);
  const int vocab = graph::vocabulary_size();
  for (int i = 0; i < nodes; ++i) {
    graph::Node node;
    node.kind = static_cast<graph::NodeKind>(rng.next_below(3));
    node.feature = static_cast<int>(rng.next_below(vocab));
    node.text = "dropped-on-the-wire";
    g.nodes.push_back(node);
  }
  for (int i = 0; i < nodes * 3; ++i) {
    graph::Edge e;
    e.src = static_cast<std::int32_t>(rng.next_below(nodes));
    e.dst = static_cast<std::int32_t>(rng.next_below(nodes));
    e.kind = static_cast<graph::EdgeKind>(rng.next_below(3));
    e.position = static_cast<std::int32_t>(rng.next_below(8));
    g.edges.push_back(e);
  }
  return g;
}

void expect_same_structure(const graph::ProgramGraph& a,
                           const graph::ProgramGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].kind, b.nodes[i].kind);
    EXPECT_EQ(a.nodes[i].feature, b.nodes[i].feature);
  }
  for (std::size_t i = 0; i < a.edges.size(); ++i) {
    EXPECT_EQ(a.edges[i].src, b.edges[i].src);
    EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    EXPECT_EQ(a.edges[i].kind, b.edges[i].kind);
    EXPECT_EQ(a.edges[i].position, b.edges[i].position);
  }
  EXPECT_EQ(graph::fingerprint(a), graph::fingerprint(b));
}

// --- Codec round trips ------------------------------------------------------

TEST(NetCodecTest, GraphRoundTripEmptySingleAndLarge) {
  std::vector<graph::ProgramGraph> cases;
  cases.emplace_back();  // empty: 0 nodes, 0 edges
  {
    graph::ProgramGraph one;
    one.nodes.push_back({graph::NodeKind::Instruction, 7, "add"});
    cases.push_back(std::move(one));
  }
  cases.push_back(suite_graph(0));
  cases.push_back(big_graph(5000, 0xB16));

  for (const auto& original : cases) {
    FrameBytes frame;
    net::encode_graph_into(original, frame);
    FrameHeader header;
    ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());
    EXPECT_EQ(header.type, FrameType::kGraph);
    ASSERT_EQ(net::kHeaderBytes + header.payload_bytes, frame.size());

    graph::ProgramGraph decoded;
    decoded.name = "stale";  // decode must fully overwrite reused storage
    ASSERT_TRUE(net::decode_graph(frame.data() + net::kHeaderBytes,
                                  header.payload_bytes, &decoded)
                    .ok());
    expect_same_structure(original, decoded);
    // Debug strings deliberately do not cross the wire.
    EXPECT_TRUE(decoded.name.empty());
    for (const auto& node : decoded.nodes) EXPECT_TRUE(node.text.empty());
  }
}

TEST(NetCodecTest, RequestRoundTripCarriesEveryField) {
  const graph::ProgramGraph g = suite_graph(3);
  serve::Request request(g, "Skylake");
  request.deadline_us = 12345678;
  request.priority = serve::Priority::High;

  FrameBytes frame;
  net::encode_request_into(0xDEADBEEFCAFEull, request, frame);
  FrameHeader header;
  ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());
  EXPECT_EQ(header.type, FrameType::kRequest);

  DecodedRequest decoded;
  graph::ProgramGraph storage;
  ASSERT_TRUE(net::decode_request(frame.data() + net::kHeaderBytes,
                                  header.payload_bytes, &decoded, &storage)
                  .ok());
  EXPECT_EQ(decoded.tag, 0xDEADBEEFCAFEull);
  EXPECT_EQ(decoded.deadline_us, 12345678);
  EXPECT_EQ(decoded.priority, serve::Priority::High);
  EXPECT_EQ(decoded.model, "Skylake");
  expect_same_structure(g, storage);

  std::uint64_t tag = 0;
  ASSERT_TRUE(net::peek_request_tag(frame.data() + net::kHeaderBytes,
                                    header.payload_bytes, &tag));
  EXPECT_EQ(tag, 0xDEADBEEFCAFEull);
}

TEST(NetCodecTest, ResponseRoundTripEveryStatusCode) {
  for (std::uint8_t code = 0; code < support::kNumStatusCodes; ++code) {
    bool valid = false;
    serve::Response response;
    response.status = net::status_from_wire(code, &valid);
    ASSERT_TRUE(valid) << "pinned code " << int(code);
    response.label = 3 + code;
    response.model_version = 40 + code;
    response.source = serve::Source::Coalesced;
    response.queue_us = 17;
    response.compute_us = 23;

    FrameBytes frame;
    net::encode_response_into(0x7A6ull + code, response, frame);
    FrameHeader header;
    ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());
    EXPECT_EQ(header.type, FrameType::kResponse);

    DecodedResponse decoded;
    ASSERT_TRUE(net::decode_response(frame.data() + net::kHeaderBytes,
                                     header.payload_bytes, &decoded)
                    .ok());
    EXPECT_EQ(decoded.tag, 0x7A6ull + code);
    EXPECT_EQ(static_cast<std::uint8_t>(decoded.response.status.code()), code);
    EXPECT_EQ(decoded.response.label, 3 + code);
    EXPECT_EQ(decoded.response.model_version, 40u + code);
    EXPECT_EQ(decoded.response.source, serve::Source::Coalesced);
    EXPECT_EQ(decoded.response.queue_us, 17);
    EXPECT_EQ(decoded.response.compute_us, 23);
  }
  bool valid = true;
  net::status_from_wire(support::kNumStatusCodes, &valid);
  EXPECT_FALSE(valid) << "bytes beyond the pinned range must flag invalid";
}

TEST(NetCodecTest, StatsRoundTripEveryField) {
  WireStats stats;
  // The static_assert in codec.h pins WireStats as a flat u64 array; fill
  // every field with a distinct value through that layout so a field the
  // codec forgets cannot hide.
  auto* fields = reinterpret_cast<std::uint64_t*>(&stats);
  for (std::size_t i = 0; i < net::kWireStatsFields; ++i)
    fields[i] = 1000 + i;

  FrameBytes frame;
  net::encode_stats_reply_into(stats, frame);
  FrameHeader header;
  ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());
  EXPECT_EQ(header.type, FrameType::kStatsReply);

  WireStats decoded;
  ASSERT_TRUE(net::decode_stats_reply(frame.data() + net::kHeaderBytes,
                                      header.payload_bytes, &decoded)
                  .ok());
  const auto* out = reinterpret_cast<const std::uint64_t*>(&decoded);
  for (std::size_t i = 0; i < net::kWireStatsFields; ++i)
    EXPECT_EQ(out[i], 1000 + i) << "WireStats field " << i;

  FrameBytes stats_request;
  net::encode_stats_request_into(stats_request);
  ASSERT_TRUE(
      net::decode_header(stats_request.data(), stats_request.size(), &header)
          .ok());
  EXPECT_EQ(header.type, FrameType::kStatsRequest);
  EXPECT_EQ(header.payload_bytes, 0u);
}

// --- Malformed input --------------------------------------------------------

TEST(NetCodecTest, HeaderRejectsEveryCorruption) {
  FrameBytes frame;
  net::encode_graph_into(suite_graph(0), frame);
  FrameHeader header;
  ASSERT_TRUE(net::decode_header(frame.data(), frame.size(), &header).ok());

  auto corrupted = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> copy(frame.data(), frame.data() + frame.size());
    copy[offset] = value;
    return copy;
  };
  // Bad magic (both bytes), unknown version, unknown frame type.
  for (const auto& bad :
       {corrupted(0, 0x00), corrupted(1, 0xFF), corrupted(2, 99),
        corrupted(3, 0), corrupted(3, 200)}) {
    const Status status = net::decode_header(bad.data(), bad.size(), &header);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  }
  // Oversized length field: rejected before any allocation happens.
  {
    std::vector<std::uint8_t> bad(frame.data(), frame.data() + frame.size());
    const std::uint32_t huge = net::kMaxPayloadBytes + 1;
    std::memcpy(bad.data() + 4, &huge, sizeof(huge));
    EXPECT_EQ(net::decode_header(bad.data(), bad.size(), &header).code(),
              StatusCode::kInvalidArgument);
  }
  // Short buffer.
  EXPECT_FALSE(net::decode_header(frame.data(), 3, &header).ok());
}

TEST(NetCodecTest, EveryTruncationIsInvalidArgumentNeverACrash) {
  // Truncating a payload at ANY byte boundary must produce a clean
  // InvalidArgument from every decoder. This sweeps all of them.
  const graph::ProgramGraph g = suite_graph(7);

  FrameBytes graph_frame;
  net::encode_graph_into(g, graph_frame);
  FrameBytes request_frame;
  net::encode_request_into(42, serve::Request(g, "m"), request_frame);
  FrameBytes response_frame;
  serve::Response response;
  response.label = 4;
  net::encode_response_into(42, response, response_frame);
  FrameBytes stats_frame;
  net::encode_stats_reply_into(WireStats{}, stats_frame);

  auto sweep = [&](const FrameBytes& frame, auto decode) {
    const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
    const std::size_t full = frame.size() - net::kHeaderBytes;
    for (std::size_t cut = 0; cut < full; ++cut) {
      const Status status = decode(payload, cut);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << "truncation at " << cut << "/" << full;
    }
    EXPECT_TRUE(decode(payload, full).ok());
  };

  graph::ProgramGraph graph_storage;
  sweep(graph_frame, [&](const std::uint8_t* p, std::size_t n) {
    return net::decode_graph(p, n, &graph_storage);
  });
  DecodedRequest request_storage;
  sweep(request_frame, [&](const std::uint8_t* p, std::size_t n) {
    return net::decode_request(p, n, &request_storage, &graph_storage);
  });
  DecodedResponse response_storage;
  sweep(response_frame, [&](const std::uint8_t* p, std::size_t n) {
    return net::decode_response(p, n, &response_storage);
  });
  WireStats stats_storage;
  sweep(stats_frame, [&](const std::uint8_t* p, std::size_t n) {
    return net::decode_stats_reply(p, n, &stats_storage);
  });
}

TEST(NetCodecTest, SeededMutationFuzzNeverCrashes) {
  // Random bit flips and size lies against the request decoder (the one
  // facing untrusted bytes in production). A flip may legitimately still
  // decode — to a different graph — so the gate is: never crash, and
  // whatever decodes respects DecodeLimits.
  const graph::ProgramGraph g = suite_graph(12);
  FrameBytes frame;
  net::encode_request_into(7, serve::Request(g), frame);
  const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
  const std::size_t size = frame.size() - net::kHeaderBytes;

  net::DecodeLimits limits;
  limits.max_feature = graph::vocabulary_size() - 1;
  limits.max_nodes = 1u << 20;
  limits.max_edges = 1u << 20;

  Rng rng(0xF022);
  std::vector<std::uint8_t> mutant(payload, payload + size);
  graph::ProgramGraph storage;
  for (int round = 0; round < 3000; ++round) {
    mutant.assign(payload, payload + size);
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f)
      mutant[rng.next_below(mutant.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
    // Also lie about the size sometimes (the stream layer can deliver any
    // length the header claimed).
    std::size_t claimed = mutant.size();
    if (rng.next_below(4) == 0) claimed = rng.next_below(mutant.size() + 1);

    DecodedRequest decoded;
    const Status status =
        net::decode_request(mutant.data(), claimed, &decoded, &storage, limits);
    if (status.ok()) {
      for (const auto& node : storage.nodes) {
        ASSERT_GE(node.feature, 0);
        ASSERT_LE(node.feature, limits.max_feature);
      }
      for (const auto& edge : storage.edges) {
        ASSERT_GE(edge.src, 0);
        ASSERT_LT(static_cast<std::size_t>(edge.src), storage.num_nodes());
        ASSERT_GE(edge.dst, 0);
        ASSERT_LT(static_cast<std::size_t>(edge.dst), storage.num_nodes());
      }
    } else {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetCodecTest, DecodeLimitsBoundHostileGraphs) {
  graph::ProgramGraph g;
  g.nodes.push_back({graph::NodeKind::Instruction, 5, ""});
  g.nodes.push_back({graph::NodeKind::Variable, 2, ""});
  g.edges.push_back({0, 1, graph::EdgeKind::Data, 0});

  FrameBytes frame;
  net::encode_graph_into(g, frame);
  const std::uint8_t* payload = frame.data() + net::kHeaderBytes;
  const std::size_t size = frame.size() - net::kHeaderBytes;
  graph::ProgramGraph storage;

  net::DecodeLimits tight;
  tight.max_feature = 4;  // node 0 carries feature 5
  EXPECT_EQ(net::decode_graph(payload, size, &storage, tight).code(),
            StatusCode::kInvalidArgument);
  tight = {};
  tight.max_nodes = 1;
  EXPECT_EQ(net::decode_graph(payload, size, &storage, tight).code(),
            StatusCode::kInvalidArgument);
  tight = {};
  tight.max_edges = 0;
  EXPECT_EQ(net::decode_graph(payload, size, &storage, tight).code(),
            StatusCode::kInvalidArgument);
}

// --- Zero allocation in steady state ----------------------------------------

TEST(NetCodecTest, SteadyStateEncodeDecodeIsAllocationFree) {
  const graph::ProgramGraph g = suite_graph(18);
  serve::Response response;
  response.label = 9;

  FrameBytes request_frame;
  FrameBytes response_frame;
  graph::ProgramGraph storage;
  DecodedRequest decoded_request;
  DecodedResponse decoded_response;
  FrameHeader header;

  auto round_trip = [&](std::uint64_t tag) {
    request_frame.clear();
    net::encode_request_into(tag, serve::Request(g), request_frame);
    ASSERT_TRUE(net::decode_header(request_frame.data(), request_frame.size(),
                                   &header)
                    .ok());
    ASSERT_TRUE(net::decode_request(request_frame.data() + net::kHeaderBytes,
                                    header.payload_bytes, &decoded_request,
                                    &storage)
                    .ok());
    response_frame.clear();
    net::encode_response_into(tag, response, response_frame);
    ASSERT_TRUE(net::decode_response(response_frame.data() + net::kHeaderBytes,
                                     response_frame.size() - net::kHeaderBytes,
                                     &decoded_response)
                    .ok());
  };

  for (std::uint64_t warm = 0; warm < 4; ++warm) round_trip(warm);

  const std::uint64_t before = g_heap_allocations.load();
  for (std::uint64_t hot = 0; hot < 64; ++hot) round_trip(100 + hot);
  const std::uint64_t after = g_heap_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "warm encode/decode round trips must never touch the heap";
}

// --- Loopback end to end ----------------------------------------------------

gnn::ModelConfig small_config() {
  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 5;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = 913;
  cfg.num_threads = 1;
  return cfg;
}

/// A raw loopback connection to `port` (-1 on failure), for tests that
/// need byte-level control NetClient does not give: garbage, truncated
/// frames, many frames in one write.
int raw_connect(std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool raw_send(int fd, const std::uint8_t* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool raw_recv(int fd, std::uint8_t* dst, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    ssize_t n = ::recv(fd, dst + got, size - got, 0);
    if (n <= 0) return false;
    got += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one kResponse frame off a raw connection.
bool raw_recv_response(int fd, DecodedResponse* out) {
  std::uint8_t head[net::kHeaderBytes];
  FrameHeader header;
  if (!raw_recv(fd, head, sizeof(head)) ||
      !net::decode_header(head, sizeof(head), &header).ok() ||
      header.type != FrameType::kResponse)
    return false;
  std::vector<std::uint8_t> payload(header.payload_bytes);
  return raw_recv(fd, payload.data(), payload.size()) &&
         net::decode_response(payload.data(), payload.size(), out).ok();
}

TEST(NetServerTest, LoopbackAnswersAreBitIdenticalToTheRouter) {
  serve::Router router;
  router.publish("static", std::make_shared<const gnn::StaticModel>(
                               small_config()));
  net::NetServer server(router, {});
  ASSERT_TRUE(server.start().ok());
  ASSERT_NE(server.port(), 0);

  std::vector<graph::ProgramGraph> graphs;
  for (int r : {0, 3, 7, 12, 18, 23}) graphs.push_back(suite_graph(r));

  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  for (int pass = 0; pass < 3; ++pass) {  // pass 1 misses, later passes hit
    for (const auto& g : graphs) {
      const serve::Response reference = router.predict(g);
      auto wire = client.predict(serve::Request(g));
      ASSERT_TRUE(wire.ok());
      ASSERT_TRUE(wire->ok());
      EXPECT_EQ(wire->label, reference.label);
      EXPECT_EQ(wire->model_version, reference.model_version);
    }
  }

  net::WireStats stats{};
  ASSERT_TRUE(client.get_stats(&stats).ok());
  EXPECT_EQ(stats.cache_hits + stats.cache_misses + stats.coalesced,
            stats.queries);
  EXPECT_EQ(stats.net_requests, graphs.size() * 3);
  EXPECT_EQ(stats.net_decode_errors, 0u);
  EXPECT_EQ(stats.net_protocol_errors, 0u);

  client.close();
  server.shutdown();
  const net::NetServerStats net_stats = server.stats();
  EXPECT_TRUE(net_stats.finished);
  EXPECT_EQ(net_stats.open_slots, 0u);
  router.shutdown();
}

TEST(NetServerTest, PipelinedTagsMatchOutOfOrderCompletions) {
  serve::Router router;
  router.publish("static", std::make_shared<const gnn::StaticModel>(
                               small_config()));
  net::NetServer server(router, {});
  ASSERT_TRUE(server.start().ok());

  std::vector<graph::ProgramGraph> graphs;
  for (int r : {0, 3, 7, 12}) graphs.push_back(suite_graph(r));
  std::vector<int> expected;
  for (const auto& g : graphs) expected.push_back(router.predict(g).label);

  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  const int kBurst = 40;
  for (int q = 0; q < kBurst; ++q)
    ASSERT_TRUE(client
                    .send(serve::Request(graphs[q % graphs.size()]),
                          static_cast<std::uint64_t>(q))
                    .ok());
  std::vector<bool> seen(kBurst, false);
  for (int q = 0; q < kBurst; ++q) {
    auto decoded = client.recv();
    ASSERT_TRUE(decoded.ok());
    ASSERT_LT(decoded->tag, static_cast<std::uint64_t>(kBurst));
    EXPECT_FALSE(seen[decoded->tag]) << "tag answered twice";
    seen[decoded->tag] = true;
    ASSERT_TRUE(decoded->response.ok());
    EXPECT_EQ(decoded->response.label, expected[decoded->tag % graphs.size()]);
  }

  client.close();
  server.shutdown();
  EXPECT_EQ(server.stats().open_slots, 0u);
  router.shutdown();
}

TEST(NetServerTest, GarbageBytesCloseOnlyTheGuiltyConnection) {
  serve::Router router;
  router.publish("static", std::make_shared<const gnn::StaticModel>(
                               small_config()));
  net::NetServer server(router, {});
  ASSERT_TRUE(server.start().ok());
  const graph::ProgramGraph g = suite_graph(0);
  const int expected = router.predict(g).label;

  // An innocent connection with a query in flight on either side of the
  // garbage must be unaffected.
  net::NetClient innocent;
  ASSERT_TRUE(innocent.connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(innocent.predict(serve::Request(g)).ok());

  {
    const int fd = raw_connect(server.port());
    ASSERT_GE(fd, 0);
    const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
    ASSERT_GT(::send(fd, garbage, sizeof(garbage), MSG_NOSIGNAL), 0);
    // The server must close us (bad magic = unrecoverable stream) — read
    // blocks until EOF rather than data, because no reply is owed.
    char buf[16];
    EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);
    ::close(fd);
  }

  auto after = innocent.predict(serve::Request(g));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->label, expected);

  innocent.close();
  server.shutdown();
  const net::NetServerStats stats = server.stats();
  EXPECT_GE(stats.protocol_errors, 1u);
  EXPECT_EQ(stats.open_slots, 0u);
  router.shutdown();
}

TEST(NetServerTest, WellFramedMalformedPayloadAnswersInvalidArgument) {
  serve::Router router;
  router.publish("static", std::make_shared<const gnn::StaticModel>(
                               small_config()));
  net::NetServer server(router, {});
  ASSERT_TRUE(server.start().ok());

  // A request frame whose graph body is truncated, but whose header and tag
  // are intact: the server must answer InvalidArgument to that tag and keep
  // the connection (framing is still sound).
  FrameBytes frame;
  const graph::ProgramGraph g = suite_graph(3);
  net::encode_request_into(77, serve::Request(g), frame);
  std::vector<std::uint8_t> cut(frame.data(), frame.data() + frame.size());
  const std::uint32_t shorter =
      static_cast<std::uint32_t>(cut.size() - net::kHeaderBytes - 4);
  std::memcpy(cut.data() + 4, &shorter, sizeof(shorter));
  cut.resize(net::kHeaderBytes + shorter);

  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, cut.data(), cut.size()));
  DecodedResponse decoded;
  ASSERT_TRUE(raw_recv_response(fd, &decoded));
  EXPECT_EQ(decoded.tag, 77u);
  EXPECT_EQ(decoded.response.status.code(), StatusCode::kInvalidArgument);
  ::close(fd);

  server.shutdown();
  const net::NetServerStats stats = server.stats();
  EXPECT_GE(stats.decode_errors, 1u);
  EXPECT_EQ(stats.open_slots, 0u);
  router.shutdown();
}

TEST(NetServerTest, FullWriteBufferShedsNewRequestsOnThatConnectionOnly) {
  auto model = std::make_shared<const gnn::StaticModel>(small_config());
  serve::Router router;
  router.publish("static", model);
  net::NetServerConfig config;
  config.max_write_buffer = 128;  // fewer than three 46-byte answers
  net::NetServer server(router, config);
  ASSERT_TRUE(server.start().ok());

  // Tiny graphs, so the whole burst fits in one segment and one read. Each
  // is cached first: an admitted request then answers inline, and its
  // response sits in the outbox until the loop flushes after the read.
  std::vector<graph::ProgramGraph> graphs;
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    graphs.push_back(big_graph(4, seed));
  std::vector<const graph::ProgramGraph*> ptrs;
  for (const auto& g : graphs) ptrs.push_back(&g);
  const std::vector<int> expected = model->predict(ptrs);
  for (const auto& g : graphs) ASSERT_TRUE(router.predict(g).ok());

  // Back-to-back requests in ONE write, replies left unread.
  constexpr int kBurst = 64;
  FrameBytes burst;
  for (int q = 0; q < kBurst; ++q)
    net::encode_request_into(static_cast<std::uint64_t>(q),
                             serve::Request(graphs[q % graphs.size()]), burst);
  const int fd = raw_connect(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, burst.data(), burst.size()));

  // Another connection is answered while the first one's replies pile up.
  net::NetClient other;
  ASSERT_TRUE(other.connect("127.0.0.1", server.port()).ok());
  auto answer = other.predict(serve::Request(graphs[1]));
  ASSERT_TRUE(answer.ok());
  ASSERT_TRUE(answer->ok());
  EXPECT_EQ(answer->label, expected[1]);

  // Every request gets exactly one reply: an answer or a shed.
  std::vector<bool> seen(kBurst, false);
  std::uint64_t ok_answers = 0, shed_answers = 0;
  for (int q = 0; q < kBurst; ++q) {
    DecodedResponse decoded;
    ASSERT_TRUE(raw_recv_response(fd, &decoded));
    ASSERT_LT(decoded.tag, static_cast<std::uint64_t>(kBurst));
    EXPECT_FALSE(seen[decoded.tag]) << "tag answered twice";
    seen[decoded.tag] = true;
    const serve::Response& r = decoded.response;
    if (r.ok()) {
      ++ok_answers;
      EXPECT_EQ(r.label, expected[decoded.tag % graphs.size()]);
    } else {
      ++shed_answers;
      EXPECT_EQ(r.status.code(), StatusCode::kOverloaded);
      EXPECT_EQ(r.source, serve::Source::Shed);
    }
  }
  EXPECT_GE(ok_answers, 1u);
  EXPECT_GE(shed_answers, 1u);

  net::WireStats stats{};
  ASSERT_TRUE(other.get_stats(&stats).ok());
  EXPECT_EQ(stats.net_backpressure_shed, shed_answers);
  // Shed requests were never admitted: only the answered ones, plus the
  // other connection's query, count as net requests.
  EXPECT_EQ(stats.net_requests, ok_answers + 1);

  ::close(fd);
  other.close();
  server.shutdown();
  EXPECT_EQ(server.stats().backpressure_shed, shed_answers);
  EXPECT_EQ(server.stats().open_slots, 0u);
  router.shutdown();
}

TEST(NetServerTest, DrainAnswersInFlightThenExitsCleanly) {
  serve::Router router;
  router.publish("static", std::make_shared<const gnn::StaticModel>(
                               small_config()));
  net::NetServer server(router, {});
  ASSERT_TRUE(server.start().ok());

  const graph::ProgramGraph g = suite_graph(7);
  const int expected = router.predict(g).label;
  net::NetClient client;
  ASSERT_TRUE(client.connect("127.0.0.1", server.port()).ok());
  const int kBurst = 16;
  for (int q = 0; q < kBurst; ++q)
    ASSERT_TRUE(
        client.send(serve::Request(g), static_cast<std::uint64_t>(q)).ok());

  server.request_drain();
  // Everything admitted before the drain saw it must come back correct;
  // then the server closes the connection (clean EOF on recv).
  int received = 0;
  for (;;) {
    auto decoded = client.recv();
    if (!decoded.ok()) break;
    ++received;
    ASSERT_TRUE(decoded->response.ok());
    EXPECT_EQ(decoded->response.label, expected);
  }
  EXPECT_LE(received, kBurst);
  server.wait();
  const net::NetServerStats stats = server.stats();
  EXPECT_TRUE(stats.draining);
  EXPECT_TRUE(stats.finished);
  EXPECT_EQ(stats.open_slots, 0u);
  // Double drain is idempotent and wait() after finish returns immediately.
  server.request_drain();
  server.wait();
  router.shutdown();
}

TEST(NetServerTest, StartFailsCleanlyOnABadHost) {
  serve::Router router;
  net::NetServerConfig config;
  config.host = "not-an-ipv4-address";
  net::NetServer server(router, config);
  const Status status = server.start();
  EXPECT_FALSE(status.ok());
  server.shutdown();  // must be safe after a failed start
  router.shutdown();
}

}  // namespace
}  // namespace irgnn
