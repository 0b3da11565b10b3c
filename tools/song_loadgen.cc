// song_loadgen — framed-protocol load generator for song_server
// (docs/serving.md).
//
//   song_loadgen --port N [--host 127.0.0.1]
//                (--queries q.sngd | --dim D)
//                [--connections 4] [--requests 200] [--k 10] [--queue 0]
//                [--deadline-us 0] [--cost-budget 0]
//                [--mode closed|open] [--qps 0] [--seed 1]
//                [--chaos-close-prob 0.0] [--io-timeout-ms 5000]
//                [--statusz-out path]
//
// Drives `--connections` concurrent framed TCP connections, each issuing
// `--requests` search requests: closed-loop (next request after the
// previous response — latency-bound) or open-loop (requests paced at
// `--qps` across all connections, responses matched by client_tag —
// throughput-bound, exposes queueing). Queries come from a .sngd file
// (cycled) or are random unit vectors of --dim.
//
// Chaos: --chaos-close-prob p abruptly closes the socket after a send with
// probability p, then reconnects — the serving-tier contract is that the
// orphaned request still settles server-side (its response write fails and
// is counted there, not lost). Such requests count as `abandoned` here.
//
// Prints per-outcome counts and latency percentiles, machine-greppable:
//
//   LOADGEN sent=N answered=N ok=N degraded=N shed=N deadline=N error=N
//           abandoned=N transport_errors=N reconnects=N
//   LATENCY p50_us=… p90_us=… p99_us=… max_us=… wall_s=… qps=…
//
// Exit 0 when every connection could reach the server at least once and
// every non-abandoned request got an answer or a counted transport error;
// exit 1 when the server was unreachable.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/dataset.h"
#include "core/random.h"
#include "core/status.h"
#include "core/timer.h"
#include "flags.h"
#include "obs/exporters.h"
#include "serve/frame.h"

namespace {

using namespace song;       // NOLINT: CLI main file
using namespace song::cli;  // NOLINT: CLI main file

int ConnectTo(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct WorkerConfig {
  std::string host;
  uint16_t port = 0;
  size_t requests = 0;
  uint32_t k = 10;
  uint32_t queue_size = 0;
  uint64_t deadline_us = 0;
  uint64_t cost_budget = 0;
  bool open_loop = false;
  double interval_us = 0.0;  ///< open-loop send pacing per connection
  double chaos_close_prob = 0.0;
  int io_timeout_ms = 5000;
  uint64_t seed = 1;
  const Dataset* queries = nullptr;  ///< null = random vectors of `dim`
  size_t dim = 0;
};

struct WorkerResult {
  uint64_t sent = 0;
  uint64_t answered = 0;
  uint64_t ok = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t deadline = 0;
  uint64_t error = 0;
  uint64_t abandoned = 0;  ///< chaos-closed before reading the response
  uint64_t transport_errors = 0;
  uint64_t reconnects = 0;
  bool ever_connected = false;
  std::vector<double> latencies_us;
};

void Classify(const serve::SearchResponseFrame& response, WorkerResult* r) {
  ++r->answered;
  const StatusCode code = static_cast<StatusCode>(response.status_code);
  if (code == StatusCode::kOk) {
    ++r->ok;
    if (response.degraded) ++r->degraded;
  } else if (code == StatusCode::kUnavailable ||
             code == StatusCode::kResourceExhausted) {
    ++r->shed;
  } else if (code == StatusCode::kDeadlineExceeded) {
    ++r->deadline;
  } else {
    ++r->error;
  }
}

void RunWorker(const WorkerConfig& config, size_t worker_index,
               WorkerResult* result) {
  RandomEngine rng(config.seed + 0x9e37 * (worker_index + 1));
  std::vector<float> random_query(config.queries == nullptr ? config.dim : 0);

  int fd = ConnectTo(config.host, config.port);
  if (fd < 0) return;
  result->ever_connected = true;
  auto transport =
      std::make_unique<serve::FrameTransport>(fd, config.io_timeout_ms);

  // client_tag -> send time, for open-loop latency matching. Closed loop
  // keeps at most one entry.
  std::unordered_map<uint64_t, double> inflight;
  Timer clock;
  double next_send_us = 0.0;

  auto reconnect = [&]() -> bool {
    ::close(fd);
    transport.reset();
    result->abandoned += inflight.size();
    inflight.clear();
    fd = ConnectTo(config.host, config.port);
    if (fd < 0) return false;
    ++result->reconnects;
    transport =
        std::make_unique<serve::FrameTransport>(fd, config.io_timeout_ms);
    return true;
  };

  auto read_one = [&]() -> bool {
    StatusOr<serve::Frame> frame = transport->ReadFrame();
    if (!frame.ok()) {
      ++result->transport_errors;
      return false;
    }
    if (frame.value().type != serve::FrameType::kSearchResponse) return true;
    StatusOr<serve::SearchResponseFrame> response =
        serve::DecodeSearchResponse(frame.value().payload.data(),
                                    frame.value().payload.size());
    if (!response.ok()) {
      ++result->transport_errors;
      return false;
    }
    const auto it = inflight.find(response.value().client_tag);
    if (it != inflight.end()) {
      result->latencies_us.push_back(clock.ElapsedMicros() - it->second);
      inflight.erase(it);
    }
    Classify(response.value(), result);
    return true;
  };

  for (size_t i = 0; i < config.requests; ++i) {
    serve::SearchRequestFrame request;
    request.client_tag = (static_cast<uint64_t>(worker_index) << 32) | i;
    request.k = config.k;
    request.queue_size = config.queue_size;
    request.deadline_us = config.deadline_us;
    request.cost_budget = config.cost_budget;
    if (config.queries != nullptr) {
      const size_t row = (worker_index + i) % config.queries->num();
      const float* values = config.queries->Row(static_cast<idx_t>(row));
      request.query.assign(values, values + config.queries->dim());
    } else {
      for (float& v : random_query) {
        v = static_cast<float>(rng.NextUniform(-1.0, 1.0));
      }
      request.query = random_query;
    }

    if (config.open_loop) {
      // Absolute schedule: pacing errors do not accumulate. Drain any
      // responses that are already readable while waiting for the slot.
      while (clock.ElapsedMicros() < next_send_us) {
        struct pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const double slack_us = next_send_us - clock.ElapsedMicros();
        const int rc =
            ::poll(&pfd, 1, std::max(0, static_cast<int>(slack_us / 1000)));
        if (rc > 0 && (pfd.revents & POLLIN) != 0) {
          if (!read_one() && !reconnect()) return;
        }
      }
      next_send_us += config.interval_us;
    }

    std::vector<uint8_t> wire;
    serve::EncodeSearchRequest(request, &wire);
    const double send_us = clock.ElapsedMicros();
    const Status ws = transport->WriteBytes(wire);
    if (!ws.ok()) {
      ++result->transport_errors;
      if (!reconnect()) return;
      continue;
    }
    ++result->sent;
    inflight[request.client_tag] = send_us;

    if (config.chaos_close_prob > 0.0 &&
        rng.NextUniform() < config.chaos_close_prob) {
      // Vanish mid-flight: the server must still settle the request.
      if (!reconnect()) return;
      continue;
    }

    if (!config.open_loop) {
      if (!read_one() && !reconnect()) return;
    }
  }

  // Open loop: collect the tail of in-flight responses.
  while (!inflight.empty()) {
    if (!read_one()) break;
  }
  result->abandoned += inflight.size();
  ::close(fd);
}

double Percentile(std::vector<double>* sorted, double p) {
  if (sorted->empty()) return 0.0;
  const size_t idx = static_cast<size_t>(
      p * static_cast<double>(sorted->size() - 1) + 0.5);
  return (*sorted)[std::min(idx, sorted->size() - 1)];
}

int FetchStatusz(const std::string& host, uint16_t port, int io_timeout_ms,
                 const std::string& out_path) {
  const int fd = ConnectTo(host, port);
  if (fd < 0) {
    std::fprintf(stderr, "statusz fetch: cannot connect\n");
    return 1;
  }
  serve::FrameTransport transport(fd, io_timeout_ms);
  std::vector<uint8_t> wire;
  serve::AppendFrame(serve::FrameType::kStatuszRequest, nullptr, 0, &wire);
  Status s = transport.WriteBytes(wire);
  if (s.ok()) {
    StatusOr<serve::Frame> frame = transport.ReadFrame();
    s = frame.status();
    if (frame.ok()) {
      const std::string json(
          reinterpret_cast<const char*>(frame.value().payload.data()),
          frame.value().payload.size());
      ::close(fd);
      return obs::WriteStringToFile(out_path, json) ? 0 : 1;
    }
  }
  ::close(fd);
  std::fprintf(stderr, "statusz fetch: %s\n", s.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags = ParseFlags(argc, argv, 1);
  CheckFlags(flags, {"host", "port", "queries", "dim", "connections",
                     "requests", "k", "queue", "deadline-us", "cost-budget",
                     "mode", "qps", "seed", "chaos-close-prob",
                     "io-timeout-ms", "statusz-out"});
  std::signal(SIGPIPE, SIG_IGN);

  WorkerConfig config;
  config.host = Optional(flags, "host", "127.0.0.1");
  config.port = static_cast<uint16_t>(ParseUint(flags, "port", "0", 65535));
  if (config.port == 0) {
    std::fprintf(stderr, "missing required flag --port\n");
    return 2;
  }
  config.requests = ParseUint(flags, "requests", "200");
  config.k = static_cast<uint32_t>(ParseUint(flags, "k", "10"));
  config.queue_size = static_cast<uint32_t>(ParseUint(flags, "queue", "0"));
  config.deadline_us = ParseUint(flags, "deadline-us", "0");
  config.cost_budget = ParseUint(flags, "cost-budget", "0");
  config.chaos_close_prob = ParseDouble(flags, "chaos-close-prob", "0");
  if (config.chaos_close_prob < 0.0 || config.chaos_close_prob > 1.0) {
    std::fprintf(stderr,
                 "flag --chaos-close-prob expects a probability in [0,1]\n");
    return 2;
  }
  config.io_timeout_ms =
      static_cast<int>(ParseUint(flags, "io-timeout-ms", "5000"));
  config.seed = ParseUint(flags, "seed", "1");
  const std::string mode = Optional(flags, "mode", "closed");
  if (mode != "closed" && mode != "open") {
    std::fprintf(stderr, "flag --mode expects closed|open\n");
    return 2;
  }
  config.open_loop = mode == "open";
  const size_t connections = ParseUint(flags, "connections", "4");
  if (connections == 0) {
    std::fprintf(stderr, "flag --connections must be >= 1\n");
    return 2;
  }
  const uint64_t qps = ParseUint(flags, "qps", "0");
  if (config.open_loop) {
    if (qps == 0) {
      std::fprintf(stderr, "--mode open requires --qps\n");
      return 2;
    }
    config.interval_us =
        1e6 * static_cast<double>(connections) / static_cast<double>(qps);
  }

  Dataset queries;
  const std::string queries_path = Optional(flags, "queries", "");
  if (!queries_path.empty()) {
    auto loaded = Dataset::Load(queries_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return loaded.status().ExitCode();
    }
    queries = std::move(loaded.value());
    config.queries = &queries;
  } else {
    config.dim = ParseUint(flags, "dim", "0");
    if (config.dim == 0) {
      std::fprintf(stderr, "either --queries or --dim is required\n");
      return 2;
    }
  }

  Timer wall;
  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    workers.emplace_back(RunWorker, std::cref(config), c, &results[c]);
  }
  for (std::thread& t : workers) t.join();
  const double wall_s = wall.ElapsedSeconds();

  WorkerResult total;
  std::vector<double> latencies;
  bool any_connected = false;
  for (const WorkerResult& r : results) {
    total.sent += r.sent;
    total.answered += r.answered;
    total.ok += r.ok;
    total.degraded += r.degraded;
    total.shed += r.shed;
    total.deadline += r.deadline;
    total.error += r.error;
    total.abandoned += r.abandoned;
    total.transport_errors += r.transport_errors;
    total.reconnects += r.reconnects;
    any_connected = any_connected || r.ever_connected;
    latencies.insert(latencies.end(), r.latencies_us.begin(),
                     r.latencies_us.end());
  }
  std::sort(latencies.begin(), latencies.end());

  std::printf("LOADGEN sent=%llu answered=%llu ok=%llu degraded=%llu "
              "shed=%llu deadline=%llu error=%llu abandoned=%llu "
              "transport_errors=%llu reconnects=%llu\n",
              static_cast<unsigned long long>(total.sent),
              static_cast<unsigned long long>(total.answered),
              static_cast<unsigned long long>(total.ok),
              static_cast<unsigned long long>(total.degraded),
              static_cast<unsigned long long>(total.shed),
              static_cast<unsigned long long>(total.deadline),
              static_cast<unsigned long long>(total.error),
              static_cast<unsigned long long>(total.abandoned),
              static_cast<unsigned long long>(total.transport_errors),
              static_cast<unsigned long long>(total.reconnects));
  std::printf("LATENCY p50_us=%.1f p90_us=%.1f p99_us=%.1f max_us=%.1f "
              "wall_s=%.3f qps=%.1f\n",
              Percentile(&latencies, 0.50), Percentile(&latencies, 0.90),
              Percentile(&latencies, 0.99),
              latencies.empty() ? 0.0 : latencies.back(), wall_s,
              wall_s > 0 ? static_cast<double>(total.answered) / wall_s
                         : 0.0);

  const std::string statusz_out = Optional(flags, "statusz-out", "");
  if (!statusz_out.empty()) {
    const int rc = FetchStatusz(config.host, config.port,
                                config.io_timeout_ms, statusz_out);
    // A drained server may already be gone; report but do not fail the run.
    if (rc != 0) std::fprintf(stderr, "statusz fetch skipped\n");
  }
  return any_connected ? 0 : 1;
}
