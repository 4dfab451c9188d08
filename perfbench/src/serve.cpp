// serve-mix: server::QueryDaemon (2 workers) over the batch-dual snapshot,
// loaded by an open-loop generator from one thread over two pipelined
// keep-alive connections.  The read mix, drawn by the benchmark's seeded
// RNG: 70% /v1/link (a tenth of them pairs with no link, answered 404),
// 20% /v1/neighbors with ASes drawn in proportion to degree so hub-sized
// bodies occur, 10% /v1/summary; beside them a POST /v1/reload every 50 ms.
//
// Phases: a reference step at kReferenceRate (the unit of work is one read
// request there, timed from when it was due) and a fixed rate ladder.
//
// Check: every response must carry the expected status and be
// byte-identical to the CLI render (server/render over QueryIndex) of the
// same request.  A wrong body, status, timeout or connection error counts
// as a failed request.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "server/daemon.hpp"
#include "server/render.hpp"
#include "snapshot/query.hpp"
#include "snapshot/reader.hpp"

namespace perfbench {
namespace {

constexpr const char* kSnapshot = "snap.bin";
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kTemplates = 4096;
constexpr double kReferenceRate = 10000;
constexpr double kLadder[] = {5000, 20000, 40000, 80000};
constexpr double kLatencyLimitS = 1e-3;
constexpr int kSetups = 101;
constexpr auto kReloadEvery = std::chrono::milliseconds(50);
constexpr auto kDrainLimit = std::chrono::seconds(2);
/// A ladder step stops sending once this many seconds of its rate are
/// outstanding: the rung has failed and a longer backlog only costs time.
constexpr double kAbortBacklogS = 0.005;

/// One request of the mix with the answer it must get.
struct Template {
  std::string wire;
  std::string target;
  int status = 200;
  std::shared_ptr<const std::string> body;
};

constexpr std::string_view kReloadWire =
    "POST /v1/reload HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n";

std::string get_wire(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
}

std::vector<Template> build_mix(const htor::snapshot::Snapshot& snap,
                                const htor::snapshot::QueryIndex& index, std::mt19937_64& rng) {
  std::set<htor::LinkKey> link_set;
  for (const auto* rels : {&snap.rels_v4, &snap.rels_v6}) {
    rels->for_each([&](const htor::LinkKey& key, htor::Relationship) { link_set.insert(key); });
  }
  const std::vector<htor::LinkKey> links(link_set.begin(), link_set.end());
  std::vector<htor::Asn> endpoints;  // each AS once per incident link
  for (const auto& key : links) {
    endpoints.push_back(key.first);
    endpoints.push_back(key.second);
  }
  if (links.empty()) throw std::runtime_error("serve-mix: the snapshot holds no links");
  const std::set<htor::Asn> as_set(endpoints.begin(), endpoints.end());
  const std::vector<htor::Asn> ases(as_set.begin(), as_set.end());

  std::map<htor::Asn, std::shared_ptr<const std::string>> neighbor_bodies;
  const auto summary = std::make_shared<const std::string>(htor::server::summary_json(index));
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(std::uniform_int_distribution<std::size_t>(0, n - 1)(rng));
  };
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  std::vector<Template> mix;
  while (mix.size() < kTemplates) {
    Template t;
    const double r = unit(rng);
    if (r < 0.70) {
      htor::Asn a = 0;
      htor::Asn b = 0;
      if (unit(rng) < 0.10) {
        do {
          a = ases[pick(ases.size())];
          b = ases[pick(ases.size())];
        } while (a == b || index.lookup(a, b).has_value());
      } else {
        const auto& key = links[pick(links.size())];
        const bool flip = unit(rng) < 0.5;
        a = flip ? key.second : key.first;
        b = flip ? key.first : key.second;
      }
      t.target = "/v1/link/" + std::to_string(a) + "/" + std::to_string(b);
      const auto info = index.lookup(a, b);
      t.status = info ? 200 : 404;
      t.body = std::make_shared<const std::string>(
          info ? htor::server::link_json(a, b, *info)
               : htor::server::error_json("AS" + std::to_string(a) + "-AS" + std::to_string(b) +
                                          ": no relationship recorded in " + kSnapshot));
    } else if (r < 0.90) {
      const htor::Asn asn = endpoints[pick(endpoints.size())];
      auto& body = neighbor_bodies[asn];
      if (!body) {
        body = std::make_shared<const std::string>(
            htor::server::neighbors_json(asn, index.neighbors(asn)));
      }
      t.target = "/v1/neighbors/" + std::to_string(asn);
      t.body = body;
    } else {
      t.target = "/v1/summary";
      t.body = summary;
    }
    t.wire = get_wire(t.target);
    mix.push_back(std::move(t));
  }
  return mix;
}

/// One pipelined keep-alive connection.
struct Connection {
  struct Pending {
    const Template* request = nullptr;  ///< nullptr for a reload
    Clock::time_point due;
    std::int64_t span = -1;
  };
  int fd = -1;
  std::string out;
  std::size_t out_sent = 0;
  std::string in;
  std::size_t in_used = 0;
  std::deque<Pending> pending;

  Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }
};

std::unique_ptr<Connection> connect_to(std::uint16_t port) {
  auto conn = std::make_unique<Connection>();
  conn->fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (conn->fd < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
  const int one = 1;
  ::setsockopt(conn->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(conn->fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 &&
      errno != EINPROGRESS) {
    throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
  }
  pollfd p{conn->fd, POLLOUT, 0};
  if (::poll(&p, 1, 2000) != 1 || (p.revents & (POLLERR | POLLHUP)) != 0) {
    throw std::runtime_error("connect to the daemon failed");
  }
  return conn;
}

/// What one load step measured.
struct StepStats {
  std::vector<double> latency_s;  ///< read requests, from due to answer
  std::vector<double> late_s;     ///< how late each send ran
  std::size_t backlog_max = 0;
  /// Mean outstanding over the step's last quarter exceeded 1.5 times that
  /// over its second quarter, plus 2.
  bool backlog_grew = false;
  bool overloaded = false;  ///< sending stopped early: the backlog ran away
};

/// The single-threaded load generator.  Every response is checked here.
class LoadGen {
 public:
  LoadGen(const std::vector<Template>& mix, std::vector<std::unique_ptr<Connection>> conns,
          std::uint64_t seed, Result& result, SpanLog& spans)
      : mix_(mix), conns_(std::move(conns)), rng_(seed), result_(result), spans_(spans) {}

  /// Open loop at `rate` requests/s for `seconds`, then drain.  With
  /// `may_abort`, sending stops once more than kAbortBacklogS worth of
  /// requests are outstanding, which bounds the drain of an overloaded step.
  StepStats open_loop(double rate, double seconds, bool traced, bool may_abort = false) {
    StepStats stats;
    traced_ = traced;
    stats_ = &stats;
    const auto start = Clock::now();
    const auto stop_at = start + to_duration(seconds);
    const auto period = to_duration(1.0 / rate);
    auto next_due = start;
    std::size_t sent = 0;
    const std::size_t planned = static_cast<std::size_t>(rate * seconds);
    std::vector<std::size_t> backlog;
    backlog.reserve(planned + 1);
    while (true) {
      auto now = Clock::now();
      while (next_due <= now && next_due < stop_at) {
        stats.late_s.push_back(seconds_between(next_due, now));
        send_read(sent % conns_.size(), next_due);
        ++sent;
        backlog.push_back(outstanding_);
        stats.backlog_max = std::max(stats.backlog_max, outstanding_);
        next_due += period;
      }
      if (may_abort && static_cast<double>(outstanding_) > kAbortBacklogS * rate + 64) {
        stats.overloaded = true;
        break;
      }
      maybe_reload(now);
      if (next_due >= stop_at) break;
      pump(std::min(next_due, next_reload_));
    }
    drain();
    const auto mean = [&](double from, double to) {
      const auto a = static_cast<std::size_t>(from * static_cast<double>(backlog.size()));
      const auto b = static_cast<std::size_t>(to * static_cast<double>(backlog.size()));
      double sum = 0;
      for (std::size_t i = a; i < b; ++i) sum += static_cast<double>(backlog[i]);
      return b > a ? sum / static_cast<double>(b - a) : 0.0;
    };
    stats.backlog_grew = mean(0.75, 1.0) > 1.5 * mean(0.25, 0.5) + 2;
    stats_ = nullptr;
    return stats;
  }

  /// Negative control: one request whose expected body is corrupted must
  /// be reported wrong by the comparison every response goes through.
  bool control_caught() {
    Template bad = mix_.front();
    std::string body = *bad.body;
    body[body.size() / 2] ^= 0x01;
    bad.body = std::make_shared<const std::string>(std::move(body));
    control_ = &bad;
    control_caught_ = false;
    enqueue(*conns_.front(), &bad, bad.wire, Clock::now());
    drain();
    control_ = nullptr;
    return control_caught_;
  }

 private:
  static Clock::duration to_duration(double seconds) {
    return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  }

  void send_read(std::size_t c, Clock::time_point due) {
    const Template& t = mix_[rng_() % mix_.size()];
    enqueue(*conns_[c], &t, t.wire, due);
  }

  void maybe_reload(Clock::time_point now) {
    if (next_reload_ == Clock::time_point{}) next_reload_ = now + kReloadEvery;
    if (now < next_reload_) return;
    enqueue(*conns_[reloads_ % conns_.size()], nullptr, kReloadWire, now);
    ++reloads_;
    next_reload_ += kReloadEvery;
    if (next_reload_ < now) next_reload_ = now + kReloadEvery;
  }

  void enqueue(Connection& conn, const Template* t, std::string_view wire,
               Clock::time_point due) {
    conn.out += wire;
    Connection::Pending p{t, due, -1};
    if (traced_ && t != nullptr) p.span = spans_.begin("serve.request", requests_);
    conn.pending.push_back(p);
    ++outstanding_;
    if (t != control_) {
      ++requests_;
      ++result_.attempted;
    }
    flush(conn);
  }

  void flush(Connection& conn) {
    while (conn.out_sent < conn.out.size()) {
      const ssize_t n = ::send(conn.fd, conn.out.data() + conn.out_sent,
                               conn.out.size() - conn.out_sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        connection_error(conn, std::string("send: ") + std::strerror(errno));
        return;
      }
      conn.out_sent += static_cast<std::size_t>(n);
    }
    conn.out.clear();
    conn.out_sent = 0;
  }

  /// Handle socket events until one arrives or `until` passes.  The
  /// generator spins (zero-timeout polls) instead of sleeping: a sleeping
  /// generator wakes tens of microseconds late on a virtual machine, which
  /// would be measured as daemon latency.
  void pump(Clock::time_point until) {
    pollfd fds[kConnections];
    int ready = 0;
    do {
      for (std::size_t c = 0; c < conns_.size(); ++c) {
        fds[c] = pollfd{conns_[c]->fd,
                        static_cast<short>(POLLIN | (conns_[c]->out.empty() ? 0 : POLLOUT)), 0};
      }
      ready = ::poll(fds, conns_.size(), 0);
    } while (ready == 0 && Clock::now() < until);
    if (ready <= 0) return;
    for (std::size_t c = 0; c < conns_.size(); ++c) {
      Connection& conn = *conns_[c];
      if (fds[c].revents & POLLOUT) flush(conn);
      if (fds[c].revents & (POLLIN | POLLERR | POLLHUP)) receive(conn);
    }
  }

  void receive(Connection& conn) {
    char buf[65536];
    while (true) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof buf, 0);
      if (n > 0) {
        conn.in.append(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      connection_error(conn, n == 0 ? "daemon closed the connection" : std::strerror(errno));
      return;
    }
    const auto now = Clock::now();
    while (parse_one(conn, now)) {
    }
    if (conn.in_used > 0 && conn.in_used == conn.in.size()) {
      conn.in.clear();
      conn.in_used = 0;
    } else if (conn.in_used > (1u << 20)) {
      conn.in.erase(0, conn.in_used);
      conn.in_used = 0;
    }
  }

  /// Consume one complete response if buffered; false when none is.
  bool parse_one(Connection& conn, Clock::time_point now) {
    const std::string_view in(conn.in.data() + conn.in_used, conn.in.size() - conn.in_used);
    const auto head_end = in.find("\r\n\r\n");
    if (head_end == std::string_view::npos) return false;
    const std::string_view head = in.substr(0, head_end);
    constexpr std::string_view kLength = "\r\nContent-Length: ";
    const auto at = head.find(kLength);
    if (head.size() < 12 || at == std::string_view::npos) {
      connection_error(conn, "malformed response head");
      return false;
    }
    const int status = std::atoi(std::string(head.substr(9, 3)).c_str());
    const std::size_t length =
        std::strtoull(std::string(head.substr(at + kLength.size(), 12)).c_str(), nullptr, 10);
    if (in.size() < head_end + 4 + length) return false;
    const std::string_view body = in.substr(head_end + 4, length);
    conn.in_used += head_end + 4 + length;
    if (conn.pending.empty()) {
      connection_error(conn, "response without a request");
      return false;
    }
    const Connection::Pending p = conn.pending.front();
    conn.pending.pop_front();
    --outstanding_;
    bool ok = true;
    if (p.request != nullptr && p.request == control_) {
      control_caught_ = status != p.request->status || body != *p.request->body;
      return true;
    }
    if (p.request == nullptr) {
      ok = status == 200 && body.rfind("{\"status\":\"reloaded\"", 0) == 0;
    } else {
      ok = status == p.request->status && body == *p.request->body;
      if (stats_ != nullptr) {
        stats_->latency_s.push_back(seconds_between(p.due, now));
      }
      if (p.span >= 0) spans_.end(p.span);
    }
    if (!ok) {
      ++result_.failed;
      if (result_.problems.size() < 5) {
        result_.fail("wrong answer to " +
                     (p.request ? p.request->target : std::string("POST /v1/reload")) +
                     ": status " + std::to_string(status));
      }
      result_.correct = false;
    }
    return true;
  }

  /// Wait for every outstanding response; what does not come is a failure.
  void drain() {
    const auto limit = Clock::now() + kDrainLimit;
    while (outstanding_ > 0 && Clock::now() < limit) pump(limit);
    if (outstanding_ > 0) {
      result_.failed += outstanding_;
      result_.fail(std::to_string(outstanding_) + " requests timed out");
      throw std::runtime_error("serve-mix: the daemon stopped answering");
    }
  }

  void connection_error(Connection& conn, const std::string& why) {
    result_.failed += conn.pending.size();
    result_.fail("connection error: " + why);
    throw std::runtime_error("serve-mix: " + why);
  }

  const std::vector<Template>& mix_;
  std::vector<std::unique_ptr<Connection>> conns_;
  std::mt19937_64 rng_;
  Result& result_;
  SpanLog& spans_;
  StepStats* stats_ = nullptr;
  const Template* control_ = nullptr;
  bool control_caught_ = false;
  bool traced_ = false;
  std::size_t outstanding_ = 0;
  std::uint64_t requests_ = 0;
  std::uint64_t reloads_ = 0;
  Clock::time_point next_reload_{};
};

/// Median of a log2-bucket histogram, interpolated inside its bucket.
double histogram_p50(const htor::obs::Histogram::Snapshot& h) {
  const double total = static_cast<double>(h.total());
  if (total <= 0) return 0;
  double seen = 0;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    const double count = static_cast<double>(h.counts[i]);
    if (seen + count >= total / 2 && count > 0) {
      const double lo = i == 0 ? 0 : static_cast<double>(1ull << (i - 1));
      const double hi = static_cast<double>(1ull << i);
      return lo + (hi - lo) * (total / 2 - seen) / count;
    }
    seen += count;
  }
  return static_cast<double>(1ull << (h.counts.size() - 1));
}

htor::obs::Histogram::Snapshot histogram_minus(htor::obs::Histogram::Snapshot a,
                                               const htor::obs::Histogram::Snapshot& b) {
  for (std::size_t i = 0; i < a.counts.size(); ++i) a.counts[i] -= b.counts[i];
  a.overflow -= b.overflow;
  a.sum -= b.sum;
  return a;
}

std::uint64_t served_requests() {
  std::uint64_t total = 0;
  for (const char* endpoint : {"link", "neighbors", "summary", "healthz", "metrics", "reload",
                               "other"}) {
    total += htor::obs::MetricsRegistry::global().counter_value("htor_http_requests_total",
                                                                {{"endpoint", endpoint}});
  }
  return total;
}

/// The highest rung of the rate ladder below which every rung kept read
/// p99 within kLatencyLimitS with no growing backlog; 0 when none did.  The
/// reference step stands for its own rate.
double run_ladder(LoadGen& load, const StepStats& reference, double step_seconds) {
  const auto passes = [](const StepStats& st) {
    return !st.overloaded && !st.backlog_grew && percentile(st.latency_s, 0.99) <= kLatencyLimitS;
  };
  std::set<double> passed;
  if (passes(reference)) passed.insert(kReferenceRate);
  for (const double rate : kLadder) {
    if (rate > kReferenceRate && !passed.count(kReferenceRate)) break;
    if (passes(load.open_loop(rate, step_seconds, false, true))) {
      passed.insert(rate);
    } else if (rate > kReferenceRate) {
      break;
    }
  }
  double highest = 0;
  for (const double rate : {5000.0, kReferenceRate, 20000.0, 40000.0, 80000.0}) {
    if (!passed.count(rate)) break;
    highest = rate;
  }
  return highest;
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

}  // namespace

void run_serve(const RunOptions& options, Result& result, SpanLog& spans) {
  const auto snap = htor::snapshot::Reader::read_file(kSnapshot);
  const auto index = htor::snapshot::QueryIndex::open(kSnapshot);
  std::mt19937_64 rng(options.seed);
  const std::vector<Template> mix = build_mix(snap, index, rng);

  htor::server::DaemonConfig config;
  config.port = 0;
  config.jobs = kWorkers;
  // Set-up: daemon load and start, then the clients' connects, kSetups
  // times; setup_s is the median and the last daemon serves the load.  A
  // single set-up is sub-millisecond and mostly thread start-up, so it
  // takes many samples to settle.
  std::vector<double> setup;
  const auto set_up = [&] {
    const auto t0 = Clock::now();
    auto daemon = std::make_unique<htor::server::QueryDaemon>(kSnapshot, config);
    daemon->start();
    std::vector<std::unique_ptr<Connection>> conns;
    for (std::size_t c = 0; c < kConnections; ++c) conns.push_back(connect_to(daemon->port()));
    setup.push_back(seconds_between(t0, Clock::now()));
    return std::make_pair(std::move(daemon), std::move(conns));
  };
  for (int i = 1; i < kSetups; ++i) set_up();
  auto [daemon, conns] = set_up();

  auto& registry = htor::obs::MetricsRegistry::global();
  const auto served_before = served_requests();
  LoadGen load(mix, std::move(conns), options.seed, result, spans);
  const double s = options.seconds;
  StepStats reference;
  StepStats reference_traced;
  double ladder_max = 0;
  htor::obs::Histogram::Snapshot server_hist;
  try {
    load.open_loop(5000, 0.05 * s, false);  // warm-up, discarded
    if (!load.control_caught()) {
      result.fail("negative control: a corrupted response body was not caught");
    }

    const auto hist_before = registry.histogram_snapshot("htor_http_request_duration_us");
    reference = load.open_loop(kReferenceRate, (options.trace ? 0.3 : 0.9) * s, false);
    server_hist = histogram_minus(registry.histogram_snapshot("htor_http_request_duration_us"),
                                  hist_before);
    if (options.trace) {
      // The same step with a span per request (the tracing overhead), and
      // the rate ladder.
      reference_traced = load.open_loop(kReferenceRate, 0.3 * s, true);
      ladder_max = run_ladder(load, reference, 0.1 * s);
    }
  } catch (const std::exception& e) {
    result.fail(e.what());
  }
  const double served = static_cast<double>(served_requests() - served_before);

  result.set("setup_s", median(setup), "s");
  result.set("unit_p50_ms", percentile(reference.latency_s, 0.5) * 1e3, "ms");
  result.set("unit.samples", static_cast<double>(reference.latency_s.size()), "count");
  if (!options.trace) return;

  result.set("serve.read_p99_us", percentile(reference.latency_s, 0.99) * 1e6, "us");
  result.set("serve.ladder_max_rps", ladder_max, "1/s");
  result.set("loadgen.late_p99_us", percentile(reference.late_s, 0.99) * 1e6, "us");
  result.set("loadgen.backlog_max", static_cast<double>(reference.backlog_max), "count");
  result.set("server.latency_p50_us", histogram_p50(server_hist), "us");
  const double server_mean_us =
      server_hist.total() > 0
          ? static_cast<double>(server_hist.sum) / static_cast<double>(server_hist.total())
          : 0;
  const double client_mean_us = mean(reference.latency_s) * 1e6;
  result.set("server.transport_share",
             client_mean_us > 0 ? 1 - server_mean_us / client_mean_us : 0, "ratio");
  result.set("server.requests", served, "count");
  result.set("trace.overhead",
             percentile(reference.latency_s, 0.5) > 0
                 ? percentile(reference_traced.latency_s, 0.5) /
                           percentile(reference.latency_s, 0.5) -
                       1
                 : 0,
             "ratio");

  // Routing alone: the same mix replayed through QueryDaemon::handle with
  // no socket, and the reload and open calls the reloads make.
  {
    std::mt19937_64 replay(options.seed);
    const std::size_t n = 20000;
    std::size_t wrong = 0;
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const Template& t = mix[replay() % mix.size()];
      htor::server::HttpRequest request;
      request.method = "GET";
      request.target = t.target;
      wrong += daemon->handle(request).body != *t.body;
    }
    result.set("server.route_us", seconds_between(t0, Clock::now()) / n * 1e6, "us");
    if (wrong > 0) result.fail(std::to_string(wrong) + " replayed requests answered wrongly");
  }
  std::vector<double> reloads;
  std::vector<double> opens;
  for (int i = 0; i < 21; ++i) {
    auto t0 = Clock::now();
    if (!daemon->reload()) result.fail("reload failed: " + daemon->last_reload_error());
    reloads.push_back(seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    const auto reopened = htor::snapshot::QueryIndex::open(kSnapshot);
    opens.push_back(seconds_between(t0, Clock::now()));
  }
  result.set("server.reload_us", median(reloads) * 1e6, "us");
  result.set("snapshot.open_ms", median(opens) * 1e3, "ms");
  result.set("snapshot.bytes", static_cast<double>(index.snapshot_bytes()), "bytes");

  const auto dataset = index.dataset();
  result.set("core.v4_paths", static_cast<double>(dataset.v4_paths), "count");
  result.set("core.v6_paths", static_cast<double>(dataset.v6_paths), "count");
  result.set("core.typed_v4", static_cast<double>(index.coverage_v4().covered), "count");
  result.set("core.typed_v6", static_cast<double>(index.coverage_v6().covered), "count");
  result.set("core.hybrids", static_cast<double>(index.hybrid_count()), "count");
}

}  // namespace perfbench
