// serve-sift: song_server over the SNGF wire protocol (serve/frame.h) on the
// sift preset (12k points), started with only its data, graph and port
// flags so its shipped scheduler defaults apply. An open-loop client sends
// k=10, queue 64 requests on a fixed schedule in two phases, `low` and
// `high`, each against a fresh server so per-phase statusz figures are
// exact. Latency is timed from when each request was due, not from when it
// was sent; how late the sender ran is reported on its own. Every response
// is checked after its phase: ids are verified against the exact distance
// to the query and against ground truth, and the client's outcome counts
// must match the server's DRAINED line.

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "core/random.h"
#include "serve/frame.h"

namespace perfbench {

namespace {

namespace serve = song::serve;

constexpr size_t kQueries = 2000;
constexpr uint32_t kQueueSize = 64;
constexpr size_t kMaxConnections = 4;
constexpr int kIoTimeoutMs = 5000;
// Far under the ~0.998 this workload reaches at queue 64.
constexpr double kRecallFloor = 0.85;

struct Phase {
  const char* name;
  double rate;  ///< requests per second
};
// `low` sits where the scheduler's linger dominates latency. `high` batches
// several requests per dispatch yet stays well under the ~4000 req/s knee
// where a quiet 4-core host starts to shed, so that CPU stolen by
// neighbours on a shared host does not push the phase over the knee.
constexpr Phase kPhases[] = {{"low", 500.0}, {"high", 2000.0}};

/// Server statusz counters (song.search.<name>) and the per-query metric
/// each becomes. Entries 1 and 5 also feed the derived ratios.
constexpr std::pair<const char*, const char*> kSearchCounters[] = {
    {"iterations", "search.iterations_per_query"},
    {"distance_computations", "search.distances_per_query"},
    {"data_bytes_loaded", "search.vector_bytes_per_query"},
    {"graph_bytes_loaded", "search.graph_bytes_per_query"},
    {"visited_tests", "search.visited_tests_per_query"},
    {"q_pushes", "search.queue_pushes_per_query"},
};

/// A song_server child process. Stop() drains it with SIGTERM and reaps it;
/// the destructor kills and reaps one that is still running.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) ::close(out_fd_);
  }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server and waits for its LISTENING line.
  bool Start(const std::string& binary, const std::string& data,
             const std::string& graph, const std::string& log_path,
             std::string* error) {
    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    const int log_fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<std::string> args = {binary, "--data", data, "--graph", graph,
                                     "--port", "0"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      ::dup2(pipe_fds[1], STDOUT_FILENO);
      if (log_fd >= 0) ::dup2(log_fd, STDERR_FILENO);
      ::close(pipe_fds[0]);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    ::close(pipe_fds[1]);
    if (log_fd >= 0) ::close(log_fd);
    out_fd_ = pipe_fds[0];
    if (pid_ < 0) {
      *error = "fork failed";
      return false;
    }
    const std::string line = ReadUntil("LISTENING port=", 30000);
    const size_t at = output_.find("LISTENING port=");
    if (line.empty() || at == std::string::npos) {
      *error = "server did not report LISTENING: " + output_;
      return false;
    }
    port_ = static_cast<uint16_t>(std::atoi(output_.c_str() + at + 15));
    return port_ != 0;
  }

  /// SIGTERM, then collects stdout to EOF and reaps the process; `usage`
  /// receives its resource usage (peak RSS, CPU time).
  bool Stop(std::string* drained, struct rusage* usage) {
    if (pid_ <= 0) return false;
    ::kill(pid_, SIGTERM);
    ReadUntil("", 20000);  // to EOF
    int status = 0;
    pid_t got = 0;
    for (int i = 0; i < 2000 && got == 0; ++i) {
      got = ::wait4(pid_, &status, WNOHANG, usage);
      if (got == 0) ::usleep(10000);
    }
    if (got == 0) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, usage);
    }
    pid_ = 0;
    const size_t at = output_.find("DRAINED ");
    *drained = at == std::string::npos
                   ? ""
                   : output_.substr(at, output_.find('\n', at) - at);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  uint16_t port() const { return port_; }

 private:
  /// Reads stdout until `marker` has appeared on a complete line (or EOF
  /// when marker is empty), at most `timeout_ms`. Returns "" on timeout.
  std::string ReadUntil(const std::string& marker, int timeout_ms) {
    const double deadline = NowUs() + timeout_ms * 1e3;
    char buf[4096];
    while (NowUs() < deadline) {
      if (!marker.empty()) {
        const size_t at = output_.find(marker);
        if (at != std::string::npos &&
            output_.find('\n', at) != std::string::npos) {
          return output_;
        }
      }
      struct pollfd p = {out_fd_, POLLIN, 0};
      if (::poll(&p, 1, 100) <= 0) continue;
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) return marker.empty() ? output_ : "";
      output_.append(buf, static_cast<size_t>(n));
    }
    return "";
  }

  pid_t pid_ = 0;
  int out_fd_ = -1;
  uint16_t port_ = 0;
  std::string output_;
};

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<struct sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// The statusz document, fetched over the wire; "" on failure.
std::string FetchStatusz(uint16_t port) {
  const int fd = Connect(port);
  if (fd < 0) return "";
  serve::FrameTransport transport(fd, kIoTimeoutMs);
  std::vector<uint8_t> wire;
  serve::AppendFrame(serve::FrameType::kStatuszRequest, nullptr, 0, &wire);
  std::string json;
  if (transport.WriteBytes(wire).ok()) {
    auto frame = transport.ReadFrame();
    if (frame.ok() && frame.value().type == serve::FrameType::kStatuszResponse) {
      json.assign(reinterpret_cast<const char*>(frame.value().payload.data()),
                  frame.value().payload.size());
    }
  }
  ::close(fd);
  return json;
}

/// The number after "key": in `doc`, searching from the first occurrence of
/// `within` (when given). NaN when absent.
double JsonNumber(const std::string& doc, const std::string& key,
                  const std::string& within = "") {
  size_t from = 0;
  if (!within.empty()) {
    from = doc.find("\"" + within + "\"");
    if (from == std::string::npos) return NAN;
  }
  const size_t at = doc.find("\"" + key + "\":", from);
  if (at == std::string::npos) return NAN;
  return std::strtod(doc.c_str() + at + key.size() + 3, nullptr);
}

/// One request as the client saw it.
struct Request {
  double due_us = 0.0, sent_us = 0.0, recv_us = 0.0;
  bool answered = false;
  int32_t status = 0;
  float queue_us = 0.0f, search_us = 0.0f;
  std::vector<song::Neighbor> results;
};

/// Sends `count` requests at `rate` per second over `conns` connections
/// (one sender and one receiver thread) and collects every response.
std::vector<Request> RunOpenLoop(uint16_t port, const song::Dataset& queries,
                                 const std::vector<size_t>& order,
                                 size_t count, double rate, size_t conns,
                                 Tracer* tracer, std::string* error) {
  std::vector<Request> reqs(count);
  std::vector<int> fds;
  for (size_t c = 0; c < conns; ++c) {
    const int fd = Connect(port);
    if (fd < 0) {
      *error = "cannot connect to server";
      for (const int f : fds) ::close(f);
      return {};
    }
    fds.push_back(fd);
  }

  std::atomic<size_t> answered{0};
  std::atomic<bool> sending_done{false};
  std::atomic<bool> recv_failed{false};
  std::string recv_error;  // written by the receiver before recv_failed
  std::thread receiver([&] {
    std::vector<serve::FrameTransport> readers;
    std::vector<struct pollfd> pfds;
    for (const int fd : fds) {
      readers.emplace_back(fd, kIoTimeoutMs);
      pfds.push_back({fd, POLLIN, 0});
    }
    double idle_since = NowUs();
    while (answered.load() < count) {
      if (::poll(pfds.data(), pfds.size(), 50) <= 0) {
        // Give up when the sender is done and nothing arrives for 10 s.
        if (sending_done.load() && NowUs() - idle_since > 10e6) {
          recv_error = "responses missing after the last send";
          recv_failed.store(true);
          return;
        }
        continue;
      }
      for (size_t c = 0; c < pfds.size(); ++c) {
        if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        auto frame = readers[c].ReadFrame();
        const double now = NowUs();
        idle_since = now;
        if (!frame.ok()) {
          recv_error = "read: " + frame.status().ToString();
          recv_failed.store(true);
          return;
        }
        const auto& payload = frame.value().payload;
        auto resp = serve::DecodeSearchResponse(payload.data(), payload.size());
        if (!resp.ok() || resp.value().client_tag >= count ||
            reqs[resp.value().client_tag].answered) {
          recv_error = "bad or duplicate response frame";
          recv_failed.store(true);
          return;
        }
        Request& r = reqs[resp.value().client_tag];
        r.recv_us = now;
        r.answered = true;
        r.status = resp.value().status_code;
        r.queue_us = resp.value().queue_us;
        r.search_us = resp.value().search_us;
        r.results = std::move(resp.value().results);
        if (tracer != nullptr) {
          const uint64_t tag = resp.value().client_tag + 1;
          const uint64_t root =
              tracer->Add(1, "client.request", r.due_us, now, 0, tag);
          // Server stages, placed back to back before the response.
          const double search_start = now - r.search_us;
          tracer->Add(1, "serve.queue", search_start - r.queue_us,
                      search_start, root, tag);
          tracer->Add(1, "serve.search", search_start, now, root, tag);
        }
        answered.fetch_add(1);
      }
    }
  });

  const auto t0 = std::chrono::steady_clock::now();
  const double t0_us = NowUs();
  std::vector<uint8_t> wire;
  for (size_t i = 0; i < count && !recv_failed.load(); ++i) {
    serve::SearchRequestFrame req;
    req.client_tag = i;
    req.k = static_cast<uint32_t>(kK);
    req.queue_size = kQueueSize;
    const float* q = queries.Row(static_cast<song::idx_t>(order[i % order.size()]));
    req.query.assign(q, q + queries.dim());
    wire.clear();
    serve::EncodeSearchRequest(req, &wire);
    const double offset_s = static_cast<double>(i) / rate;
    reqs[i].due_us = t0_us + offset_s * 1e6;
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(offset_s)));
    reqs[i].sent_us = NowUs();
    serve::FrameTransport writer(fds[i % conns], kIoTimeoutMs);
    const song::Status s = writer.WriteBytes(wire);
    if (!s.ok()) {
      *error = "send: " + s.ToString();
      break;
    }
  }
  sending_done.store(true);
  receiver.join();
  for (const int fd : fds) ::close(fd);
  if (error->empty()) *error = recv_error;
  return reqs;
}

struct PhaseResult {
  std::vector<double> latency_us;  ///< from due, answered OK only
  double ok = 0, shed = 0;
  double recall_sum = 0;
};

}  // namespace

Outcome RunServeSift(const RunConfig& cfg, Tracer* tracer) {
  Outcome out;
  song::SyntheticSpec spec = song::PresetSpec("sift", 1.0);
  spec.num_queries = kQueries;
  double setup_s = 0.0;
  const Corpus c = RepeatedSetup(spec, cfg.seed, spec.num_points,
                                 /*ground_truth=*/true, cfg, tracer, &out,
                                 &setup_s);
  const std::string data_path = cfg.work_dir + "/serve.sngd";
  const std::string graph_path = cfg.work_dir + "/serve.sngg";
  const double save_start = NowUs();
  if (!c.data.Save(data_path).ok() || !c.graph.Save(graph_path).ok()) {
    out.Fail("cannot write the server's input files");
    return out;
  }
  setup_s += (NowUs() - save_start) / 1e6;

  // Request i asks query order[i % kQueries]: a seeded permutation.
  std::vector<size_t> order(c.queries.num());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  song::RandomEngine rng(cfg.seed ^ 0x7365727665ull);  // "serve"
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Next() % i]);
  }

  const size_t conns = std::min(cfg.threads, kMaxConnections);
  const double phase_s = cfg.seconds / std::size(kPhases);
  std::vector<double> ready_s;
  double peak_rss = 0.0, ok_total = 0.0, served_s = 0.0, recall_sum = 0.0;
  // Search-core counters summed over both servers' statusz documents.
  std::vector<double> counter_sums(std::size(kSearchCounters), 0.0);
  double engine_queries = 0.0, busy_us = 0.0;
  for (const Phase& phase : kPhases) {
    const std::string sfx = std::string(".") + phase.name;
    ServerProcess server;
    std::string error;
    const double ready_start = NowUs();
    {
      Span span(tracer, 0, "setup.server_ready");
      if (!server.Start(cfg.server_path, data_path, graph_path,
                        cfg.work_dir + "/server-" + phase.name + ".log",
                        &error)) {
        out.Fail(error);
        return out;
      }
    }
    ready_s.push_back((NowUs() - ready_start) / 1e6);

    const size_t count =
        static_cast<size_t>(std::llround(phase.rate * phase_s));
    std::vector<Request> reqs = RunOpenLoop(server.port(), c.queries, order,
                                            count, phase.rate, conns, tracer,
                                            &error);
    const std::string statusz = FetchStatusz(server.port());
    std::string drained;
    struct rusage usage {};
    const bool clean_exit = server.Stop(&drained, &usage);
    peak_rss = std::max(peak_rss, usage.ru_maxrss / 1024.0);  // KiB -> MiB
    const double cpu_s = usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
                         (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
    if (!error.empty()) out.Fail(std::string(phase.name) + ": " + error);
    out.Check(clean_exit, std::string(phase.name) + ": server exit not clean");
    out.Check(!statusz.empty(), std::string(phase.name) + ": no statusz");

    // ---- Checks and figures, after the phase.
    uint64_t ok = 0, shed = 0, deadline = 0, other = 0;
    double last_recv_us = 0.0;
    std::vector<double> latency, queue_us, search_us, outside_us, late_us;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const Request& r = reqs[i];
      late_us.push_back(r.sent_us - r.due_us);
      if (!r.answered) continue;
      last_recv_us = std::max(last_recv_us, r.recv_us);
      if (r.status == static_cast<int32_t>(song::StatusCode::kUnavailable)) {
        ++shed;
        continue;
      }
      if (r.status == static_cast<int32_t>(song::StatusCode::kDeadlineExceeded)) {
        ++deadline;
        continue;
      }
      if (r.status != 0) {
        ++other;
        continue;
      }
      ++ok;
      latency.push_back(r.recv_us - r.due_us);
      queue_us.push_back(r.queue_us);
      search_us.push_back(r.search_us);
      outside_us.push_back(r.recv_us - r.sent_us - r.queue_us - r.search_us);
      const size_t q = order[i % order.size()];
      const float* query = c.queries.Row(static_cast<song::idx_t>(q));
      std::vector<song::idx_t> ids;
      bool valid = r.results.size() == kK;
      for (size_t j = 0; valid && j < r.results.size(); ++j) {
        const song::Neighbor& n = r.results[j];
        valid = n.id < c.data.num() &&
                std::find(ids.begin(), ids.end(), n.id) == ids.end() &&
                (j == 0 || r.results[j - 1].dist <= n.dist);
        if (valid) {
          const float exact = song::ComputeDistance(c.metric, query,
                                                    c.data.Row(n.id),
                                                    c.data.dim());
          valid = std::fabs(exact - n.dist) <=
                  1e-3f * std::max(1.0f, std::fabs(exact));
        }
        ids.push_back(n.id);
      }
      if (!valid) {
        out.Fail(std::string(phase.name) + ": request " + std::to_string(i) +
                 " returned ids that do not match their distances");
      }
      recall_sum += MeanRecall({ids}, {c.ground_truth[q]});
    }
    const uint64_t answered = ok + shed + deadline + other;
    out.attempted += reqs.size();
    out.failed += reqs.size() - ok;
    out.Check(answered == count,
              std::string(phase.name) + ": " +
                  std::to_string(count - answered) + " requests unanswered");
    // Conservation against the server's own accounting.
    char expect[160];
    std::snprintf(expect, sizeof(expect),
                  "DRAINED accepted=%zu ok=%llu shed=%llu deadline=%llu "
                  "error=%llu",
                  count, static_cast<unsigned long long>(ok),
                  static_cast<unsigned long long>(shed),
                  static_cast<unsigned long long>(deadline),
                  static_cast<unsigned long long>(other));
    out.Check(drained == expect, std::string(phase.name) + ": server said '" +
                                     drained + "', client counted '" +
                                     expect + "'");

    ok_total += static_cast<double>(ok);
    if (!reqs.empty()) served_s += (last_recv_us - reqs[0].due_us) / 1e6;
    out.Set("serve.client_p50_us" + sfx, Percentile(latency, 50));
    out.Set("serve.client_p90_us" + sfx, Percentile(latency, 90));
    out.Set("serve.client_p99_us" + sfx, Percentile(latency, 99));
    out.Set("serve.server_queue_us.p50" + sfx, Percentile(queue_us, 50));
    out.Set("serve.server_search_us.p50" + sfx, Percentile(search_us, 50));
    out.Set("serve.outside_us.p50" + sfx, Percentile(outside_us, 50));
    out.Set("serve.batch_size.p50" + sfx,
            JsonNumber(statusz, "p50", "song.serve.batch_size"));
    out.Set("serve.requests_per_batch" + sfx,
            JsonNumber(statusz, "song.serve.accepted") /
                JsonNumber(statusz, "song.serve.batches"));
    out.Set("serve.shed" + sfx, static_cast<double>(shed));
    out.Set("serve.server_cpu_us_per_request" + sfx,
            cpu_s * 1e6 / static_cast<double>(std::max<size_t>(1, count)));
    out.Set("serve.gen_late_us.p99" + sfx, Percentile(late_us, 99));
    if (&phase == &kPhases[0]) {
      out.Set("latency_p50_us", Percentile(latency, 50));
    } else {
      out.Set("search.query_us.p50",
              JsonNumber(statusz, "p50", "song.query.latency_us"));
      out.Set("search.query_us.p99",
              JsonNumber(statusz, "p99", "song.query.latency_us"));
    }

    engine_queries += JsonNumber(statusz, "song.batch.queries");
    for (size_t i = 0; i < std::size(kSearchCounters); ++i) {
      counter_sums[i] += JsonNumber(
          statusz, std::string("song.search.") + kSearchCounters[i].first);
    }
    busy_us += JsonNumber(statusz, "sum", "song.query.latency_us");
  }

  const double recall = ok_total > 0 ? recall_sum / ok_total : 0.0;
  out.Check(recall >= kRecallFloor,
            "recall@10 " + std::to_string(recall) + " below floor");
  out.Set("setup.server_ready_s", Median(ready_s));
  out.Set("setup_s", setup_s + Median(ready_s));
  out.Set("peak_rss_mb", peak_rss);
  out.Set("recall_at_10", recall);
  out.Set("qps", ok_total / std::max(1e-9, served_s));

  for (size_t i = 0; i < std::size(kSearchCounters); ++i) {
    out.Set(kSearchCounters[i].second, counter_sums[i] / engine_queries);
  }
  const double distances = counter_sums[1], pushes = counter_sums[5];
  out.Set("search.useful_distance_frac", pushes / distances);
  out.Set("search.ns_per_distance", busy_us * 1e3 / distances);
  return out;
}

}  // namespace perfbench
