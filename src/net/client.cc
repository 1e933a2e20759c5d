#include "net/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "common/strings.h"
#include "obs/trace.h"

namespace ipool::net {

namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Status Errno(const std::string& what) {
  return Status::Unavailable(what + ": " + std::strerror(errno));
}

/// Polls one fd for `events` until the deadline; OK when ready. Each wait
/// is capped so a far deadline never overflows poll's int milliseconds; the
/// loop re-polls until the deadline passes.
Status PollFd(int fd, short events, double deadline) {
  while (true) {
    const double remaining = deadline - NowSeconds();
    if (remaining <= 0.0) return Status::DeadlineExceeded("request timed out");
    pollfd pfd{fd, events, 0};
    const int wait_ms = static_cast<int>(std::min(remaining * 1000.0, 1e9));
    const int n = poll(&pfd, 1, wait_ms + 1);
    if (n > 0) return Status::OK();
    if (n < 0 && errno != EINTR) return Errno("poll");
  }
}

bool DefaultIdempotent(Method method) {
  // PublishTelemetry appends; replaying a timed-out publish could record
  // the batch twice. Everything else is a pure read.
  return method != Method::kPublishTelemetry;
}

}  // namespace

Client::Client(ClientConfig config)
    : config_(std::move(config)),
      jitter_(config_.jitter_seed),
      // Decorrelated from the jitter stream so adding tracing never shifts
      // the backoff schedule tests pin down.
      trace_ids_(config_.jitter_seed ^ 0x9E3779B97F4A7C15ULL),
      decoder_(config_.max_payload_bytes) {}

uint64_t Client::NextTraceId() {
  uint64_t id = 0;
  while (id == 0) id = trace_ids_.Next();
  return id;
}

Client::~Client() { Disconnect(); }

void Client::Disconnect() {
  if (fd_ >= 0) close(fd_);
  fd_ = -1;
  decoder_ = FrameDecoder(config_.max_payload_bytes);
}

Status Client::EnsureConnected() {
  if (fd_ >= 0) return Status::OK();
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return Errno("socket");
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    close(fd);
    return Errno("fcntl(O_NONBLOCK)");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host address: " + config_.host);
  }
  const double deadline = NowSeconds() + config_.connect_timeout_seconds;
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 &&
      errno != EINPROGRESS) {
    close(fd);
    return Errno("connect");
  }
  if (Status ready = PollFd(fd, POLLOUT, deadline); !ready.ok()) {
    close(fd);
    return ready;
  }
  int err = 0;
  socklen_t len = sizeof(err);
  if (getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
    close(fd);
    errno = err != 0 ? err : errno;
    return Errno("connect");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  ++stats_.reconnects;
  return Status::OK();
}

Status Client::SendAll(const std::string& bytes, double deadline) {
  size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = write(fd_, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      IPOOL_RETURN_NOT_OK(PollFd(fd_, POLLOUT, deadline));
      continue;
    }
    return Errno("write");
  }
  return Status::OK();
}

Result<Frame> Client::ReadResponse(double deadline) {
  char buf[64 * 1024];
  while (!decoder_.HasFrame()) {
    IPOOL_RETURN_NOT_OK(PollFd(fd_, POLLIN, deadline));
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n == 0) return Status::Unavailable("server closed connection");
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return Errno("read");
    }
    if (Status fed = decoder_.Feed(buf, static_cast<size_t>(n)); !fed.ok()) {
      ++stats_.protocol_errors;
      return fed;
    }
  }
  return decoder_.Next();
}

Status Client::FrameError(const Frame& frame) {
  return WireStatusToStatus(frame.status,
                            StrFormat("%s: %s", WireStatusToString(frame.status),
                                      frame.payload.c_str()));
}

Result<Frame> Client::Call(Method method, std::string payload,
                           const RequestOptions& options) {
  ++stats_.requests;
  const bool idempotent =
      options.idempotency == RequestOptions::Idempotency::kDefault
          ? DefaultIdempotent(method)
          : options.idempotency == RequestOptions::Idempotency::kIdempotent;

  // One trace id per logical Call, shared by every retry attempt, so the
  // whole exchange — backoffs, reconnects, the server's handler — reads as a
  // single tree. Stamped even with no tracer wired: the id is what links the
  // server's spans and exemplars back to this request.
  const uint64_t trace_id = NextTraceId();
  stats_.last_trace_id = trace_id;
  obs::ScopedSpan call_span(config_.tracer, "client.call",
                            obs::SpanContext{trace_id, 0});

  double backoff = config_.backoff_initial_seconds;
  Status last = Status::Unavailable("no attempts made");
  for (int attempt = 0; attempt < std::max(1, config_.max_attempts);
       ++attempt) {
    if (attempt > 0) {
      ++stats_.retries;
      {
        obs::ScopedSpan backoff_span(config_.tracer, "client.backoff");
        const double sleep = backoff * jitter_.Uniform(0.5, 1.5);
        std::this_thread::sleep_for(std::chrono::duration<double>(sleep));
      }
      backoff = std::min(backoff * config_.backoff_multiplier,
                         config_.backoff_max_seconds);
    }
    ++stats_.attempts;
    obs::ScopedSpan attempt_span(config_.tracer, "client.attempt");

    if (Status st = EnsureConnected(); !st.ok()) {
      // Nothing reached the server; always safe to retry.
      last = st;
      continue;
    }
    Frame request;
    request.type = FrameType::kRequest;
    request.method = method;
    request.trace_id = trace_id;
    request.request_id = next_request_id_++;
    request.payload = payload;
    const double deadline = NowSeconds() + config_.request_timeout_seconds;
    Status sent = SendAll(EncodeFrame(request), deadline);
    if (!sent.ok()) {
      Disconnect();
      last = sent;
      if (!idempotent) return last;  // may or may not have executed
      continue;
    }
    auto response = ReadResponse(deadline);
    if (!response.ok()) {
      // A timed-out or torn response leaves the stream unsynchronized;
      // a late response must never be matched to the next request.
      Disconnect();
      last = response.status();
      if (!idempotent) return last;
      continue;
    }
    if (response->type != FrameType::kResponse ||
        response->request_id != request.request_id) {
      ++stats_.protocol_errors;
      Disconnect();
      last = Status::Internal(
          StrFormat("response id %u does not match request %u",
                    response->request_id, request.request_id));
      if (!idempotent) return last;
      continue;
    }
    if (response->trace_id != request.trace_id) {
      // A mismatched echo means the stream delivered someone else's frame;
      // treat it exactly like a request-id mismatch.
      ++stats_.protocol_errors;
      Disconnect();
      last = Status::Internal(
          StrFormat("response trace %llu does not match request %llu",
                    static_cast<unsigned long long>(response->trace_id),
                    static_cast<unsigned long long>(request.trace_id)));
      if (!idempotent) return last;
      continue;
    }
    if (response->status == WireStatus::kRetryAfter ||
        response->status == WireStatus::kUnavailable) {
      // Explicitly shed before execution: retryable regardless of method.
      if (response->status == WireStatus::kRetryAfter) {
        ++stats_.shed_responses;
      }
      last = FrameError(*response);
      continue;
    }
    return std::move(response).value();
  }
  return last;
}

Result<std::vector<Frame>> Client::CallPipelined(
    const std::vector<PipelinedRequest>& requests) {
  std::vector<Frame> out(requests.size());
  if (requests.empty()) return out;
  IPOOL_RETURN_NOT_OK(EnsureConnected());

  // One trace id for the whole window: the server's per-request spans all
  // join the same tree, mirroring how a fleet worker batches fetches.
  const uint64_t trace_id = NextTraceId();
  stats_.last_trace_id = trace_id;
  obs::ScopedSpan call_span(config_.tracer, "client.pipeline",
                            obs::SpanContext{trace_id, 0});
  const double deadline = NowSeconds() + config_.request_timeout_seconds;

  const uint32_t first_id = next_request_id_;
  std::string wire;
  for (const PipelinedRequest& request : requests) {
    ++stats_.requests;
    ++stats_.attempts;
    Frame frame;
    frame.type = FrameType::kRequest;
    frame.method = request.method;
    frame.trace_id = trace_id;
    frame.request_id = next_request_id_++;
    frame.payload = request.payload;
    wire += EncodeFrame(frame);
  }
  if (Status sent = SendAll(wire, deadline); !sent.ok()) {
    Disconnect();
    return sent;
  }

  // Handlers run on a pool, so responses may interleave arbitrarily; match
  // each one back to its slot by request id.
  std::vector<bool> seen(requests.size(), false);
  for (size_t received = 0; received < requests.size(); ++received) {
    auto response = ReadResponse(deadline);
    if (!response.ok()) {
      Disconnect();
      return response.status();
    }
    const size_t idx =
        static_cast<size_t>(response->request_id - first_id);  // mod 2^32
    if (response->type != FrameType::kResponse || idx >= requests.size() ||
        seen[idx] || response->trace_id != trace_id) {
      ++stats_.protocol_errors;
      Disconnect();
      return Status::Internal(
          StrFormat("pipelined response id %u outside window [%u, %zu)",
                    response->request_id, first_id,
                    static_cast<size_t>(first_id) + requests.size()));
    }
    if (response->status == WireStatus::kRetryAfter) ++stats_.shed_responses;
    seen[idx] = true;
    out[idx] = std::move(*response);
  }
  return out;
}

Result<std::string> Client::GetRecommendation(const std::string& pool_key) {
  IPOOL_ASSIGN_OR_RETURN(auto frame,
                         Call(Method::kGetRecommendation, pool_key));
  if (frame.status != WireStatus::kOk) return FrameError(frame);
  return std::move(frame.payload);
}

Status Client::PublishTelemetry(const std::string& metric, double time,
                                double value) {
  IPOOL_ASSIGN_OR_RETURN(
      auto frame,
      Call(Method::kPublishTelemetry,
           StrFormat("%s,%.17g,%.17g\n", metric.c_str(), time, value)));
  if (frame.status != WireStatus::kOk) return FrameError(frame);
  return Status::OK();
}

Result<std::string> Client::Health() {
  IPOOL_ASSIGN_OR_RETURN(auto frame, Call(Method::kHealth, ""));
  if (frame.status != WireStatus::kOk) return FrameError(frame);
  return std::move(frame.payload);
}

Result<std::string> Client::ScrapeMetrics() {
  IPOOL_ASSIGN_OR_RETURN(auto frame, Call(Method::kMetrics, ""));
  if (frame.status != WireStatus::kOk) return FrameError(frame);
  return std::move(frame.payload);
}

Result<std::string> Client::FetchTrace(size_t limit) {
  IPOOL_ASSIGN_OR_RETURN(
      auto frame,
      Call(Method::kTrace, limit == 0 ? std::string() : StrFormat("%zu", limit)));
  if (frame.status != WireStatus::kOk) return FrameError(frame);
  return std::move(frame.payload);
}

}  // namespace ipool::net
