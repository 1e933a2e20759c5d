// Tests for the ipool::net serving layer: frame codec + CRC integrity,
// router semantics, and live loopback server/client behavior (retry,
// backoff, load shedding, graceful drain, corruption rejection). All
// sockets are loopback with ephemeral ports; every test is deterministic
// and ctest/sanitizer-safe.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "exec/thread_pool.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/router.h"
#include "net/server.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/sharded_document_store.h"
#include "service/sharded_telemetry_store.h"

namespace ipool::net {
namespace {

bool Contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// ---- CRC and frame codec ----------------------------------------------------

TEST(Crc32Test, MatchesKnownVectors) {
  // The standard IEEE CRC-32 check value.
  EXPECT_EQ(Crc32("123456789", 9), 0xcbf43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(FrameTest, RoundTripsThroughDecoder) {
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.method = Method::kGetRecommendation;
  frame.request_id = 42;
  frame.payload = "east-medium";
  const std::string wire = EncodeFrame(frame);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + frame.payload.size());

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size()).ok());
  ASSERT_TRUE(decoder.HasFrame());
  Frame out = decoder.Next();
  EXPECT_EQ(out.type, FrameType::kRequest);
  EXPECT_EQ(out.method, Method::kGetRecommendation);
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.payload, "east-medium");
  EXPECT_FALSE(decoder.HasFrame());
}

TEST(FrameTest, DecodesByteByByteAndBackToBack) {
  Frame a;
  a.method = Method::kHealth;
  a.request_id = 1;
  Frame b;
  b.method = Method::kPublishTelemetry;
  b.request_id = 2;
  b.payload = "m,0,1\n";
  const std::string wire = EncodeFrame(a) + EncodeFrame(b);

  FrameDecoder decoder;
  for (char c : wire) ASSERT_TRUE(decoder.Feed(&c, 1).ok());
  ASSERT_TRUE(decoder.HasFrame());
  EXPECT_EQ(decoder.Next().request_id, 1u);
  ASSERT_TRUE(decoder.HasFrame());
  EXPECT_EQ(decoder.Next().payload, "m,0,1\n");
  EXPECT_EQ(decoder.PendingBytes(), 0u);
}

TEST(FrameTest, RejectsCorruptPayloadByCrc) {
  Frame frame;
  frame.payload = "intelligent pooling";
  std::string wire = EncodeFrame(frame);
  wire[kFrameHeaderBytes + 3] ^= 0x20;  // flip one payload bit

  FrameDecoder decoder;
  Status fed = decoder.Feed(wire.data(), wire.size());
  EXPECT_FALSE(fed.ok());
  EXPECT_TRUE(Contains(fed.message(), "CRC"));
  // The decoder is poisoned: even a pristine frame is refused now.
  const std::string good = EncodeFrame(Frame{});
  EXPECT_FALSE(decoder.Feed(good.data(), good.size()).ok());
}

TEST(FrameTest, TraceIdRoundTripsThroughDecoder) {
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.method = Method::kTrace;
  frame.trace_id = 0xDEADBEEFCAFEF00DULL;
  frame.request_id = 7;
  frame.payload = "32";
  const std::string wire = EncodeFrame(frame);

  FrameDecoder decoder;
  ASSERT_TRUE(decoder.Feed(wire.data(), wire.size()).ok());
  ASSERT_TRUE(decoder.HasFrame());
  Frame out = decoder.Next();
  EXPECT_EQ(out.method, Method::kTrace);
  EXPECT_EQ(out.trace_id, 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(out.request_id, 7u);
}

TEST(FrameTest, CorruptTraceIdPoisonsDecoderByCrc) {
  // The CRC covers the trace-id field: a flipped bit anywhere in the id must
  // poison the stream, never deliver a frame attributed to the wrong trace.
  Frame frame;
  frame.trace_id = 0x0123456789ABCDEFULL;
  frame.payload = "payload";
  for (size_t byte = 8; byte < 16; ++byte) {  // the 8 trace-id header bytes
    std::string wire = EncodeFrame(frame);
    wire[byte] ^= 0x01;
    FrameDecoder decoder;
    Status fed = decoder.Feed(wire.data(), wire.size());
    EXPECT_FALSE(fed.ok()) << "trace-id byte " << byte << " not covered";
    EXPECT_TRUE(Contains(fed.message(), "CRC"));
    // Poisoned: a pristine follow-up frame is refused too.
    const std::string good = EncodeFrame(Frame{});
    EXPECT_FALSE(decoder.Feed(good.data(), good.size()).ok());
  }
}

TEST(FrameTest, RejectsBadMagicAndReservedByte) {
  std::string wire = EncodeFrame(Frame{});
  wire[0] = 'X';
  FrameDecoder decoder;
  EXPECT_FALSE(decoder.Feed(wire.data(), wire.size()).ok());

  std::string reserved = EncodeFrame(Frame{});
  reserved[7] = 1;
  FrameDecoder decoder2;
  EXPECT_FALSE(decoder2.Feed(reserved.data(), reserved.size()).ok());
}

TEST(FrameTest, RejectsOversizedLengthWithoutBuffering) {
  Frame frame;
  frame.payload = std::string(128, 'x');
  const std::string wire = EncodeFrame(frame);
  FrameDecoder decoder(/*max_payload_bytes=*/64);
  Status fed = decoder.Feed(wire.data(), wire.size());
  EXPECT_FALSE(fed.ok());
  EXPECT_TRUE(Contains(fed.message(), "exceeds cap"));
}

TEST(FrameTest, StatusMappingsRoundTrip) {
  EXPECT_EQ(StatusToWireStatus(Status::NotFound("x")), WireStatus::kNotFound);
  EXPECT_EQ(WireStatusToStatus(WireStatus::kNotFound, "x").code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(WireStatusToStatus(WireStatus::kOk, "").ok());
  // RETRY_AFTER surfaces as Unavailable to callers that run out of retries.
  EXPECT_EQ(WireStatusToStatus(WireStatus::kRetryAfter, "x").code(),
            StatusCode::kUnavailable);
}

// ---- router -----------------------------------------------------------------

Frame MakeRequest(Method method, std::string payload) {
  Frame frame;
  frame.type = FrameType::kRequest;
  frame.method = method;
  frame.request_id = 7;
  frame.payload = std::move(payload);
  return frame;
}

TEST(RouterTest, ServesDocumentsAndHealth) {
  ShardedDocumentStore documents;
  documents.Put("east-medium", "v1\npool=1,2,3\n", 0.0);
  obs::MetricsRegistry registry;
  Router router(RouterConfig{&documents, nullptr, &registry});

  Frame ok = router.Handle(MakeRequest(Method::kGetRecommendation,
                                       "east-medium"));
  EXPECT_EQ(ok.type, FrameType::kResponse);
  EXPECT_EQ(ok.status, WireStatus::kOk);
  EXPECT_EQ(ok.request_id, 7u);
  EXPECT_EQ(ok.payload, "v1\npool=1,2,3\n");

  EXPECT_EQ(router.Handle(MakeRequest(Method::kGetRecommendation, "nope"))
                .status,
            WireStatus::kNotFound);
  EXPECT_EQ(router.Handle(MakeRequest(Method::kGetRecommendation, ""))
                .status,
            WireStatus::kInvalidArgument);
  EXPECT_EQ(router.Handle(MakeRequest(Method::kHealth, "")).payload, "ok");
}

TEST(RouterTest, HealthRejectsPayload) {
  // A Health probe carries no arguments: a payload means the client sent
  // the wrong method byte (or a corrupted frame slipped through), and
  // serving it anyway would mask that bug.
  Router router(RouterConfig{});
  Frame bad = router.Handle(MakeRequest(Method::kHealth, "x"));
  EXPECT_EQ(bad.status, WireStatus::kInvalidArgument);
  EXPECT_TRUE(Contains(bad.payload, "no payload"));
  EXPECT_EQ(router.Handle(MakeRequest(Method::kHealth, "")).status,
            WireStatus::kOk);
}

TEST(RouterTest, PublishesTelemetryAtomically) {
  ShardedTelemetryStore telemetry;
  Router router(RouterConfig{nullptr, &telemetry, nullptr});

  Frame ok = router.Handle(
      MakeRequest(Method::kPublishTelemetry, "m,1.0,2.0\nm,2.0,3.0\n"));
  EXPECT_EQ(ok.status, WireStatus::kOk) << ok.payload;
  EXPECT_EQ(telemetry.PointCount("m"), 2u);

  // A batch with a malformed tail must not be half-applied.
  Frame bad = router.Handle(
      MakeRequest(Method::kPublishTelemetry, "m,3.0,1.0\nm,notanumber,1\n"));
  EXPECT_EQ(bad.status, WireStatus::kInvalidArgument);
  EXPECT_EQ(telemetry.PointCount("m"), 2u);

  EXPECT_EQ(router.Handle(MakeRequest(Method::kPublishTelemetry, "")).status,
            WireStatus::kInvalidArgument);
  EXPECT_EQ(router.Handle(MakeRequest(Method::kPublishTelemetry,
                                      "a,b,c,d\n"))
                .status,
            WireStatus::kInvalidArgument);
}

TEST(RouterTest, ScrapesPrometheusText) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ipool_pipeline_runs_total")->Add(3);
  Router router(RouterConfig{nullptr, nullptr, &registry});
  Frame scrape = router.Handle(MakeRequest(Method::kMetrics, ""));
  EXPECT_EQ(scrape.status, WireStatus::kOk);
  EXPECT_TRUE(Contains(scrape.payload, "ipool_pipeline_runs_total 3"));
}

TEST(RouterTest, UnwiredBackendsAnswerUnavailable) {
  Router router(RouterConfig{});
  EXPECT_EQ(router.Handle(MakeRequest(Method::kGetRecommendation, "k"))
                .status,
            WireStatus::kUnavailable);
  EXPECT_EQ(router.Handle(MakeRequest(Method::kMetrics, "")).status,
            WireStatus::kUnavailable);
  EXPECT_EQ(router.Handle(MakeRequest(Method::kHealth, "")).status,
            WireStatus::kOk);
}

TEST(TelemetryLineTest, ParsesStrictly) {
  double time = 0.0, value = 0.0;
  auto metric = ParseTelemetryLine("cpu,1.5,0.25", &time, &value);
  ASSERT_TRUE(metric.ok());
  EXPECT_EQ(*metric, "cpu");
  EXPECT_DOUBLE_EQ(time, 1.5);
  EXPECT_DOUBLE_EQ(value, 0.25);
  EXPECT_FALSE(ParseTelemetryLine("cpu,1.5", &time, &value).ok());
  EXPECT_FALSE(ParseTelemetryLine(",1,2", &time, &value).ok());
  EXPECT_FALSE(ParseTelemetryLine("cpu,1x,2", &time, &value).ok());
  EXPECT_FALSE(ParseTelemetryLine("cpu,1,2,3", &time, &value).ok());
}

// ---- live server/client -----------------------------------------------------

struct TestService {
  ShardedDocumentStore documents;
  ShardedTelemetryStore telemetry;
  obs::MetricsRegistry registry;
  obs::Tracer tracer;
  std::unique_ptr<Router> router;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<Server> server;

  explicit TestService(size_t threads = 2, ServerConfig config = {}) {
    documents.Put("east-medium", "v1\npool=4,5,6\n", 0.0);
    router = std::make_unique<Router>(
        RouterConfig{&documents, &telemetry, &registry, &tracer});
    if (threads > 0) pool = std::make_unique<exec::ThreadPool>(threads);
    config.pool = pool.get();
    config.metrics = &registry;
    config.tracer = &tracer;
    auto started = Server::Start(config, [this](const Frame& request) {
      return router->Handle(request);
    });
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    server = std::move(started).value();
  }

  ClientConfig ClientCfg() const {
    ClientConfig config;
    config.port = server->port();
    return config;
  }
};

TEST(ServerTest, EndToEndRoundTrips) {
  TestService service;
  Client client(service.ClientCfg());

  auto doc = client.GetRecommendation("east-medium");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(*doc, "v1\npool=4,5,6\n");

  auto missing = client.GetRecommendation("west-large");
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  EXPECT_TRUE(client.PublishTelemetry("requests", 10.0, 3.0).ok());
  EXPECT_TRUE(client.PublishTelemetry("requests", 20.0, 4.0).ok());
  // Out-of-order appends surface the store's error over the wire.
  EXPECT_FALSE(client.PublishTelemetry("requests", 5.0, 1.0).ok());

  auto health = client.Health();
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(*health, "ok");

  auto scrape = client.ScrapeMetrics();
  ASSERT_TRUE(scrape.ok());
  EXPECT_TRUE(Contains(*scrape, "ipool_net_requests_total{"
                                "method=\"GetRecommendation\","
                                "status=\"OK\"} 1"));
  EXPECT_TRUE(Contains(*scrape, "ipool_net_connections"));
  EXPECT_TRUE(Contains(
      *scrape, "ipool_net_request_seconds_count{method=\"Health\"} 1"));

  service.server->Shutdown(1.0);
  EXPECT_EQ(service.server->protocol_errors(), 0u);
  EXPECT_EQ(service.server->requests_shed(), 0u);
}

TEST(ServerTest, ManyConcurrentClients) {
  TestService service(/*threads=*/4);
  constexpr int kClients = 8;
  constexpr int kPerClient = 50;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&service, &ok] {
      Client client(service.ClientCfg());
      for (int i = 0; i < kPerClient; ++i) {
        auto doc = client.GetRecommendation("east-medium");
        if (doc.ok() && *doc == "v1\npool=4,5,6\n") {
          ok.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kPerClient);
  service.server->Shutdown(1.0);
  EXPECT_EQ(service.server->requests_handled(),
            static_cast<uint64_t>(kClients * kPerClient));
  EXPECT_EQ(service.server->protocol_errors(), 0u);
}

TEST(ServerTest, InlineHandlersWorkWithoutPool) {
  TestService service(/*threads=*/0);
  Client client(service.ClientCfg());
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
}

// Tentpole acceptance: one client Call produces a coherent cross-process
// trace — the client's spans and the server's spans share the trace id the
// client stamped into the frame, and nothing is dropped on either side.
TEST(ServerTest, TraceIdPropagatesEndToEndThroughLoopback) {
  TestService service;
  obs::Tracer client_tracer;
  ClientConfig config = service.ClientCfg();
  config.tracer = &client_tracer;
  Client client(config);

  auto doc = client.GetRecommendation("east-medium");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const uint64_t trace_id = client.stats().last_trace_id;
  ASSERT_NE(trace_id, 0u);

  // Client half: call + attempt spans rooted at the stamped trace id.
  const auto client_spans = client_tracer.FinishedSpans();
  EXPECT_EQ(client_tracer.dropped(), 0u);
  bool saw_call = false;
  for (const auto& span : client_spans) {
    EXPECT_EQ(span.trace_id, trace_id);
    if (span.name == std::string("client.call")) saw_call = true;
  }
  EXPECT_TRUE(saw_call);

  // Server half: the request's handler + router spans carry the same id.
  // Poll briefly — FinishRequest runs on the event loop after the response.
  bool saw_net = false;
  bool saw_router = false;
  for (int attempt = 0; attempt < 100 && !(saw_net && saw_router);
       ++attempt) {
    saw_net = saw_router = false;
    for (const auto& span : service.tracer.FinishedSpans()) {
      if (span.trace_id != trace_id) continue;
      if (span.name == std::string("net.GetRecommendation")) saw_net = true;
      if (span.name == std::string("router.GetRecommendation")) {
        saw_router = true;
      }
    }
    if (!(saw_net && saw_router)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(saw_net) << "server request span missing for trace";
  EXPECT_TRUE(saw_router) << "router child span missing for trace";
  EXPECT_EQ(service.tracer.dropped(), 0u);

  // The Trace method serves those spans over the wire, JSONL-encoded.
  auto fetched = client.FetchTrace();
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_TRUE(Contains(*fetched, StrFormat("\"trace\":%llu,",
                                           static_cast<unsigned long long>(
                                               trace_id))));

  // Metrics half: the dispatch-queue histogram saw the request and the
  // request-latency histogram carries a trace-id exemplar linking a bucket
  // back to a trace.
  auto scrape = client.ScrapeMetrics();
  ASSERT_TRUE(scrape.ok());
  EXPECT_TRUE(
      Contains(*scrape, "ipool_net_dispatch_queue_seconds_count{"
                        "method=\"GetRecommendation\"} 1"));
  EXPECT_TRUE(Contains(*scrape, "# {trace_id=\""));
  // The satellite-1 gauge: zero dropped spans over the whole exchange.
  EXPECT_TRUE(Contains(*scrape, "ipool_obs_dropped_spans 0\n"));

  service.server->Shutdown(1.0);
}

TEST(ServerTest, TraceMethodHonorsSpanLimit) {
  TestService service;
  Client client(service.ClientCfg());
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.Health().ok());
  }
  auto limited = client.FetchTrace(/*limit=*/2);
  ASSERT_TRUE(limited.ok()) << limited.status().ToString();
  // 2 spans per line-pair: each Health request leaves net.Health +
  // router.Health; a limit of 2 returns exactly 2 JSONL lines.
  EXPECT_EQ(std::count(limited->begin(), limited->end(), '\n'), 2);
  // The limit is a whole number >= 1: anything else is refused, never
  // truncated or cast out of range.
  for (const char* bad : {"0", "-3", "2.5", "1e30", "abc"}) {
    auto response = client.Call(Method::kTrace, bad);
    ASSERT_TRUE(response.ok()) << bad;
    EXPECT_EQ(response->status, WireStatus::kInvalidArgument) << bad;
  }
  service.server->Shutdown(1.0);
}

// A handler that fails the first N requests with UNAVAILABLE, then
// delegates — the "server that fails first N requests" retry fixture.
TEST(ClientRetryTest, RetriesUntilServerRecovers) {
  std::atomic<int> failures_left{3};
  obs::MetricsRegistry registry;
  ServerConfig config;
  config.metrics = &registry;
  auto server = Server::Start(config, [&](const Frame& request) {
    Frame response;
    response.method = request.method;
    if (failures_left.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      response.status = WireStatus::kUnavailable;
      response.payload = "warming up";
    } else {
      response.status = WireStatus::kOk;
      response.payload = "ok";
    }
    return response;
  });
  ASSERT_TRUE(server.ok());

  ClientConfig client_config;
  client_config.port = (*server)->port();
  client_config.max_attempts = 5;
  client_config.backoff_initial_seconds = 0.001;
  Client client(client_config);
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(client.stats().retries, 3u);
  EXPECT_EQ(client.stats().attempts, 4u);

  // With the budget exhausted before recovery, the last error surfaces.
  failures_left.store(10);
  ClientConfig small = client_config;
  small.max_attempts = 2;
  Client impatient(small);
  auto failed = impatient.Health();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(impatient.stats().attempts, 2u);
}

TEST(ClientRetryTest, BackoffGrowsAndIsJittered) {
  // Connect against a port nothing listens on: every attempt fails fast
  // (loopback RST), so Call's elapsed time is dominated by backoff sleeps.
  int probe = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  const uint16_t dead_port = ntohs(addr.sin_port);
  close(probe);  // released: connections now get ECONNREFUSED

  ClientConfig config;
  config.port = dead_port;
  config.max_attempts = 4;
  config.backoff_initial_seconds = 0.02;
  config.backoff_multiplier = 2.0;
  config.backoff_max_seconds = 1.0;
  Client client(config);
  const auto start = std::chrono::steady_clock::now();
  auto result = client.Health();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(client.stats().attempts, 4u);
  EXPECT_EQ(client.stats().retries, 3u);
  // Backoffs 20ms + 40ms + 80ms jittered by U[0.5, 1.5): at least 70ms.
  EXPECT_GE(elapsed, 0.07);
}

// Raw socket helper for protocol-level tests the Client (correctly)
// refuses to express.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    connected_ =
        connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) close(fd_);
  }

  bool connected() const { return connected_; }

  void Send(const std::string& bytes) {
    size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<size_t>(n);
    }
  }

  /// Reads until `count` frames decoded or EOF; returns frames received.
  std::vector<Frame> ReadFrames(size_t count) {
    std::vector<Frame> frames;
    char buf[4096];
    while (frames.size() < count) {
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n <= 0) break;
      if (!decoder_.Feed(buf, static_cast<size_t>(n)).ok()) break;
      while (decoder_.HasFrame()) frames.push_back(decoder_.Next());
    }
    return frames;
  }

  /// True when the server closed the connection (read EOF).
  bool ReadEof() {
    char buf[256];
    while (true) {
      const ssize_t n = read(fd_, buf, sizeof(buf));
      if (n == 0) return true;
      if (n < 0) return false;
    }
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  FrameDecoder decoder_;
};

TEST(ServerTest, ShedsWhenPerConnectionQueueIsFull) {
  // Handlers block until released; inflight budget is 1, so of 4 pipelined
  // requests on one connection the first occupies the slot and the other
  // three are shed (admission happens in frame order on the event loop).
  std::promise<void> release;
  std::shared_future<void> released(release.get_future());
  obs::MetricsRegistry registry;
  exec::ThreadPool pool(2);
  ServerConfig config;
  config.pool = &pool;
  config.max_inflight_per_conn = 1;
  config.metrics = &registry;
  auto server = Server::Start(config, [released](const Frame&) {
    released.wait();
    Frame response;
    response.status = WireStatus::kOk;
    response.payload = "done";
    return response;
  });
  ASSERT_TRUE(server.ok());

  RawConn conn((*server)->port());
  ASSERT_TRUE(conn.connected());
  std::string burst;
  for (uint32_t id = 1; id <= 4; ++id) {
    Frame request;
    request.type = FrameType::kRequest;
    request.method = Method::kHealth;
    request.request_id = id;
    burst += EncodeFrame(request);
  }
  conn.Send(burst);

  // Shed responses arrive while the admitted request is still blocked.
  std::vector<Frame> sheds = conn.ReadFrames(3);
  ASSERT_EQ(sheds.size(), 3u);
  for (const Frame& frame : sheds) {
    EXPECT_EQ(frame.status, WireStatus::kRetryAfter);
    EXPECT_NE(frame.request_id, 1u);  // the admitted request is still running
  }
  release.set_value();
  std::vector<Frame> rest = conn.ReadFrames(1);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].status, WireStatus::kOk);
  EXPECT_EQ(rest[0].request_id, 1u);
  EXPECT_EQ((*server)->requests_shed(), 3u);
  EXPECT_EQ(registry.GetCounter("ipool_net_shed_total")->value(), 3u);
  (*server)->Shutdown(1.0);
}

TEST(ServerTest, GracefulDrainCompletesInFlightRequests) {
  // A slow handler is caught mid-request by Shutdown; the drain must still
  // deliver its response.
  obs::MetricsRegistry registry;
  exec::ThreadPool pool(2);
  ServerConfig config;
  config.pool = &pool;
  config.metrics = &registry;
  std::atomic<bool> entered{false};
  auto server = Server::Start(config, [&entered](const Frame&) {
    entered.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    Frame response;
    response.status = WireStatus::kOk;
    response.payload = "finished";
    return response;
  });
  ASSERT_TRUE(server.ok());

  ClientConfig client_config;
  client_config.port = (*server)->port();
  client_config.request_timeout_seconds = 3.0;
  std::promise<Result<std::string>> result_promise;
  std::thread caller([&] {
    Client client(client_config);
    result_promise.set_value(client.Health());
  });
  while (!entered.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  (*server)->Shutdown(/*drain_timeout_seconds=*/5.0);

  auto result = result_promise.get_future().get();
  caller.join();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, "finished");
  EXPECT_EQ((*server)->requests_handled(), 1u);
}

TEST(ServerTest, CorruptFrameClosesConnectionAndCounts) {
  TestService service;
  Frame request;
  request.type = FrameType::kRequest;
  request.method = Method::kHealth;
  request.request_id = 9;
  std::string wire = EncodeFrame(request);
  wire[kFrameHeaderBytes - 1] ^= 0xff;  // corrupt the CRC field

  RawConn conn(service.server->port());
  ASSERT_TRUE(conn.connected());
  conn.Send(wire);
  EXPECT_TRUE(conn.ReadEof());  // no response; connection dropped
  // The loop observed the error before closing.
  for (int i = 0; i < 100 && service.server->protocol_errors() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(service.server->protocol_errors(), 1u);
  EXPECT_EQ(
      service.registry.GetCounter("ipool_net_protocol_errors_total")->value(),
      1u);
  // A fresh, well-formed connection still works: the fault was contained.
  Client client(service.ClientCfg());
  EXPECT_TRUE(client.Health().ok());
}

TEST(ServerTest, GarbageBytesAreRejected) {
  TestService service;
  RawConn conn(service.server->port());
  ASSERT_TRUE(conn.connected());
  conn.Send("GET / HTTP/1.1\r\nHost: localhost\r\n\r\n");
  EXPECT_TRUE(conn.ReadEof());
  for (int i = 0; i < 100 && service.server->protocol_errors() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(service.server->protocol_errors(), 1u);
}

TEST(ClientTest, RejectsCorruptedResponseCrc) {
  // A "server" that answers with a bit-flipped response frame.
  int listener = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  std::thread evil([listener] {
    for (int i = 0; i < 2; ++i) {
      const int fd = accept(listener, nullptr, nullptr);
      if (fd < 0) return;
      char buf[4096];
      FrameDecoder decoder;
      Frame request;
      bool got = false;
      while (!got) {
        const ssize_t n = read(fd, buf, sizeof(buf));
        if (n <= 0) break;
        if (!decoder.Feed(buf, static_cast<size_t>(n)).ok()) break;
        if (decoder.HasFrame()) {
          request = decoder.Next();
          got = true;
        }
      }
      if (got) {
        Frame response;
        response.type = FrameType::kResponse;
        response.method = request.method;
        response.request_id = request.request_id;
        response.payload = "tampered";
        std::string wire = EncodeFrame(response);
        wire[kFrameHeaderBytes + 1] ^= 0x01;  // payload no longer matches CRC
        size_t sent = 0;
        while (sent < wire.size()) {
          const ssize_t n = write(fd, wire.data() + sent, wire.size() - sent);
          if (n <= 0) break;
          sent += static_cast<size_t>(n);
        }
      }
      close(fd);
    }
  });

  ClientConfig config;
  config.port = ntohs(addr.sin_port);
  config.max_attempts = 2;
  config.backoff_initial_seconds = 0.001;
  Client client(config);
  auto result = client.Health();
  EXPECT_FALSE(result.ok());
  EXPECT_GE(client.stats().protocol_errors, 1u);
  close(listener);
  evil.join();
}

// Deadlines far beyond poll's int-millisecond range still serve: each wait
// is capped and re-polled, never cast out of range.
TEST(ClientTest, FarDeadlinesStillServe) {
  TestService service;
  ClientConfig config = service.ClientCfg();
  config.connect_timeout_seconds = 1e12;
  config.request_timeout_seconds = 1e12;
  Client client(config);
  auto health = client.Health();
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(*health, "ok");
}

TEST(ClientTest, NonIdempotentPublishStillRetriesShedResponses) {
  // RETRY_AFTER means "not executed", so even the write path retries it.
  std::atomic<int> sheds_left{2};
  auto server = Server::Start(ServerConfig{}, [&](const Frame& request) {
    Frame response;
    response.method = request.method;
    if (sheds_left.fetch_sub(1, std::memory_order_acq_rel) > 0) {
      response.status = WireStatus::kRetryAfter;
      response.payload = "busy";
    } else {
      response.status = WireStatus::kOk;
    }
    return response;
  });
  ASSERT_TRUE(server.ok());
  ClientConfig config;
  config.port = (*server)->port();
  config.max_attempts = 4;
  config.backoff_initial_seconds = 0.001;
  Client client(config);
  EXPECT_TRUE(client.PublishTelemetry("m", 1.0, 1.0).ok());
  EXPECT_EQ(client.stats().shed_responses, 2u);
  EXPECT_EQ(client.stats().retries, 2u);
}

}  // namespace
}  // namespace ipool::net
