#include "bench/suite/open_loop.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <unordered_map>

#include "bench/suite/suite.h"
#include "common/rng.h"
#include "exec/thread_pool.h"
#include "net/frame.h"

namespace ipool::bench::suite {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// How long Stop() waits for in-flight responses before failing them.
constexpr double kDrainSeconds = 5.0;

struct Request {
  double due = 0.0;
  uint32_t key = 0;
};

struct Conn {
  Conn(uint64_t arrival_seed, uint64_t key_seed)
      : arrivals(arrival_seed), keys(key_seed) {}

  int fd = -1;
  bool dead = false;
  bool want_write = false;
  net::FrameDecoder decoder;
  std::string out;
  size_t out_offset = 0;
  std::unordered_map<uint32_t, Request> inflight;
  /// Due but not yet sent because `inflight` is at the window.
  std::deque<Request> waiting;
  double next_due = 0.0;
  uint32_t next_id = 1;
  Rng arrivals;
  Rng keys;
};

int ConnectLoopback(uint16_t port, std::string* error) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    *error = std::string("connect: ") + std::strerror(errno);
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

}  // namespace

LoadGenerator::LoadGenerator(const LoadConfig& config) : config_(config) {
  if (config_.zipf_s > 0.0) {
    const size_t n = config_.keys->size();
    zipf_cdf_.resize(n);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), config_.zipf_s);
      zipf_cdf_[i] = total;
    }
    for (double& c : zipf_cdf_) c /= total;
  }
  config_.threads =
      std::max<size_t>(1, std::min(config_.threads, config_.connections));
  per_thread_.resize(config_.threads);
  start_seconds_ = NowSeconds();
  for (size_t t = 0; t < config_.threads; ++t) {
    threads_.emplace_back([this, t] { ThreadMain(t); });
  }
}

LoadGenerator::~LoadGenerator() {
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

LoadStats Merge(const std::vector<LoadStats>& parts) {
  LoadStats merged;
  for (const LoadStats& s : parts) {
    merged.seconds += s.seconds;
    merged.attempted += s.attempted;
    merged.ok += s.ok;
    merged.failed += s.failed;
    merged.mismatched += s.mismatched;
    merged.backlog_max = std::max(merged.backlog_max, s.backlog_max);
    merged.latency_seconds.insert(merged.latency_seconds.end(),
                                  s.latency_seconds.begin(),
                                  s.latency_seconds.end());
    merged.lag_seconds.insert(merged.lag_seconds.end(), s.lag_seconds.begin(),
                              s.lag_seconds.end());
    merged.errors.insert(merged.errors.end(), s.errors.begin(),
                         s.errors.end());
  }
  return merged;
}

LoadStats RunWindow(const LoadConfig& config, double seconds) {
  LoadGenerator generator(config);
  SleepSeconds(seconds);
  return generator.Stop();
}

LoadStats LoadGenerator::Stop() {
  const double end = NowSeconds();
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
  LoadStats merged = Merge(per_thread_);
  merged.seconds = end - start_seconds_;
  return merged;
}

void LoadGenerator::ThreadMain(size_t thread_index) {
  LoadStats& stats = per_thread_[thread_index];
  if (!PinCurrentThread(config_.cpus)) {
    stats.errors.push_back("cannot pin generator thread");
  }
  // Sleeps below are short and their precision is the generator's lag.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const bool open = config_.rate_per_second > 0.0;
  const double conn_rate =
      config_.rate_per_second / static_cast<double>(config_.connections);
  const std::vector<std::string>& keys = *config_.keys;

  const int ep = ::epoll_create1(EPOLL_CLOEXEC);
  std::vector<std::unique_ptr<Conn>> conns;
  for (size_t c = thread_index; c < config_.connections;
       c += config_.threads) {
    auto conn = std::make_unique<Conn>(
        exec::DeriveTaskSeed(config_.seed, 2 * c),
        exec::DeriveTaskSeed(config_.seed, 2 * c + 1));
    std::string error;
    conn->fd = ConnectLoopback(config_.port, &error);
    if (conn->fd < 0) {
      stats.errors.push_back(error);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = conn.get();
    ::epoll_ctl(ep, EPOLL_CTL_ADD, conn->fd, &ev);
    conn->next_due =
        start_seconds_ + (open ? conn->arrivals.Exponential(conn_rate) : 0.0);
    conns.push_back(std::move(conn));
  }

  auto pick_key = [&](Rng& rng) -> uint32_t {
    if (zipf_cdf_.empty()) {
      return static_cast<uint32_t>(
          rng.UniformInt(0, static_cast<int64_t>(keys.size()) - 1));
    }
    const auto it =
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), rng.NextDouble());
    return static_cast<uint32_t>(
        std::min<size_t>(zipf_cdf_.size() - 1, it - zipf_cdf_.begin()));
  };
  auto count_failed = [&](size_t n) {
    stats.failed += n;
    if (open) {
      stats.latency_seconds.insert(stats.latency_seconds.end(), n, kInf);
    }
  };
  auto kill = [&](Conn& conn, const std::string& why) {
    if (conn.dead) return;
    conn.dead = true;
    stats.errors.push_back(why);
    count_failed(conn.inflight.size() + conn.waiting.size());
    conn.inflight.clear();
    conn.waiting.clear();
    ::epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
    ::close(conn.fd);
    conn.fd = -1;
  };
  auto send = [&](Conn& conn, const Request& request) {
    net::Frame frame;
    frame.type = net::FrameType::kRequest;
    frame.method = net::Method::kGetRecommendation;
    frame.request_id = conn.next_id++;
    frame.payload = keys[request.key];
    conn.out += net::EncodeFrame(frame);
    conn.inflight.emplace(frame.request_id, request);
  };
  auto flush = [&](Conn& conn) {
    while (conn.out_offset < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_offset,
                 conn.out.size() - conn.out_offset, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_offset += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        break;
      } else {
        kill(conn, std::string("send: ") + std::strerror(errno));
        return;
      }
    }
    if (conn.out_offset == conn.out.size()) {
      conn.out.clear();
      conn.out_offset = 0;
    }
    const bool want = !conn.out.empty();
    if (want != conn.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.ptr = &conn;
      ::epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_write = want;
    }
  };
  auto receive = [&](Conn& conn) {
    char buf[1 << 16];
    while (!conn.dead) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n == 0) {
        kill(conn, "server closed the connection");
        return;
      }
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) {
          kill(conn, std::string("recv: ") + std::strerror(errno));
        }
        return;
      }
      if (!conn.decoder.Feed(buf, static_cast<size_t>(n)).ok()) {
        kill(conn, "protocol error in response stream");
        return;
      }
      const double now = NowSeconds();
      while (conn.decoder.HasFrame()) {
        const net::Frame frame = conn.decoder.Next();
        const auto it = conn.inflight.find(frame.request_id);
        if (it == conn.inflight.end()) {
          kill(conn, "response to an unknown request id");
          return;
        }
        const Request request = it->second;
        conn.inflight.erase(it);
        bool good =
            frame.status == net::WireStatus::kOk && !frame.payload.empty();
        if (good && config_.expected != nullptr &&
            frame.payload != (*config_.expected)[request.key]) {
          ++stats.mismatched;
          good = false;
        }
        if (good) {
          ++stats.ok;
          if (open) stats.latency_seconds.push_back(now - request.due);
        } else {
          count_failed(1);
        }
      }
    }
  };

  double drain_deadline = kInf;
  epoll_event events[64];
  while (true) {
    const bool stopping = stop_.load(std::memory_order_acquire);
    const double now = NowSeconds();
    if (stopping && drain_deadline == kInf) {
      drain_deadline = now + kDrainSeconds;
    }
    bool busy = false;
    double next_due = kInf;
    for (auto& conn_ptr : conns) {
      Conn& conn = *conn_ptr;
      if (conn.dead) continue;
      if (open) {
        while (!stopping && conn.next_due <= now) {
          stats.lag_seconds.push_back(now - conn.next_due);
          conn.waiting.push_back({conn.next_due, pick_key(conn.keys)});
          ++stats.attempted;
          conn.next_due += conn.arrivals.Exponential(conn_rate);
        }
        while (!conn.waiting.empty() &&
               conn.inflight.size() < config_.window) {
          send(conn, conn.waiting.front());
          conn.waiting.pop_front();
        }
        stats.backlog_max = std::max(stats.backlog_max, conn.waiting.size());
        next_due = std::min(next_due, conn.next_due);
      } else if (!stopping) {
        while (conn.inflight.size() < config_.window) {
          send(conn, {now, pick_key(conn.keys)});
          ++stats.attempted;
        }
      }
      if (!conn.out.empty()) flush(conn);
      busy = busy || !conn.inflight.empty() || !conn.waiting.empty();
    }
    if (stopping && (!busy || now >= drain_deadline)) break;

    // Pinned polling threads own their cores: a sleeping thread's wake-up
    // latency would land in every latency it measures. The others sleep
    // until the next arrival or a socket event, at most 5 ms so a stop
    // request is seen promptly.
    double wait = 0.005;
    if (config_.busy_poll && !config_.cpus.empty()) {
      wait = 0.0;
    } else if (open && !stopping) {
      wait = std::clamp(next_due - NowSeconds(), 0.0, wait);
    }
    timespec timeout{};
    timeout.tv_nsec = static_cast<long>(wait * 1e9);
    const int n = ::epoll_pwait2(ep, events, 64, &timeout, nullptr);
    for (int i = 0; i < n; ++i) {
      Conn& conn = *static_cast<Conn*>(events[i].data.ptr);
      if (conn.dead) continue;
      if (events[i].events & (EPOLLIN | EPOLLERR | EPOLLHUP)) receive(conn);
      if (!conn.dead && (events[i].events & EPOLLOUT)) flush(conn);
    }
  }
  for (auto& conn_ptr : conns) {
    Conn& conn = *conn_ptr;
    if (conn.dead) continue;
    count_failed(conn.inflight.size() + conn.waiting.size());
    ::close(conn.fd);
  }
  ::close(ep);
}

}  // namespace ipool::bench::suite
