// serve256 — warm analysis-service traffic.
//
// Set-up traces the twelve 256-rank traces, warms a fresh store with every
// (trace, warm bandwidth) report — in process, on kJobs threads, through
// serve::run_job_on_trace and ScenarioStore::save_report, the calls a worker
// and the controller make for a fresh job — and starts osim_serve with two
// forked workers on it. The working set (12 traces x 6 bandwidths) is larger
// than the controller's 64-entry report cache, so repeats are answered from
// both the memory tier and the store tier.
//
// Timed phase: two client connections, each a closed loop (a blocking
// caller sends its next request only after the previous answer arrived),
// walk one shared seeded request schedule: blocks of four with three
// repeats and one fresh scenario at a bandwidth this run has not seen. A
// repeat is submit + fetch; a fresh request is submit + wait + fetch and
// costs the service a replay, a lint-cache hit, a report build and a store
// publish.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <thread>

#include "common/expect.hpp"
#include "pipeline/context.hpp"
#include "pipeline/lint_cache.hpp"
#include "pipeline/report.hpp"
#include "pipeline/scenario.hpp"
#include "pipeline/study.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"
#include "setup.hpp"
#include "store/store.hpp"
#include "trace/binary_io.hpp"
#include "workloads.hpp"

namespace perfbench {

double serve_fresh_bandwidth(std::size_t trace, int round) {
  constexpr std::size_t kTraces = 12;
  return 100.5 + static_cast<double>(static_cast<std::size_t>(round) * kTraces + trace);
}

namespace {

constexpr int kRanks = 256;
constexpr int kWorkers = 2;
constexpr int kClients = 2;
constexpr int kReportCache = 64;  // osim_serve's default, stated explicitly
/// Inside the fresh class (the slowest quarter), away from its boundary
/// with the repeats; needs 200 requests per run.
constexpr double kTailPercentile = 95.0;
/// Requests whose fetched bytes are compared with an in-process report.
constexpr std::size_t kCompared = 8;

using osim::serve::ClientConnection;

/// First number after `"key":` in `json` (the documents involved put the
/// wanted field first); NaN when absent.
double json_number(const std::string& json, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

std::vector<pid_t> worker_pids(const std::string& stats) {
  std::vector<pid_t> pids;
  const std::size_t at = stats.find("\"pids\":[");
  if (at == std::string::npos) return pids;
  const char* p = stats.c_str() + at + 8;
  while (*p != ']' && *p != '\0') {
    char* end = nullptr;
    const long pid = std::strtol(p, &end, 10);
    if (end == p) break;
    pids.push_back(static_cast<pid_t>(pid));
    p = *end == ',' ? end + 1 : end;
  }
  return pids;
}

std::string server_stats(ClientConnection& connection) {
  const osim::serve::ServerMessage reply =
      connection.call(osim::serve::ClientMessage(osim::serve::ServerStats{}));
  const auto* stats = std::get_if<osim::serve::StatsReply>(&reply);
  if (stats == nullptr) throw osim::Error("server-stats failed");
  return stats->stats_json;
}

/// An osim_serve process on a private socket and store.
class Server {
 public:
  Server(const std::string& binary, const std::string& dir,
         const std::string& store_dir)
      : socket_(dir + "/sock") {
    const std::string log = dir + "/serve.log";
    const std::vector<std::string> args = {
        binary,          "--socket",       socket_,
        "--workers",     std::to_string(kWorkers),
        "--cache-dir",   store_dir,        "--report-cache",
        std::to_string(kReportCache)};
    // Everything the child needs is built before fork(): it only calls
    // async-signal-safe functions until exec.
    std::vector<char*> argv;
    for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
    argv.push_back(nullptr);
    pid_ = ::fork();
    if (pid_ < 0) throw osim::Error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }

  pid_t pid() const { return pid_; }
  ClientConnection connect() const {
    return ClientConnection::connect_unix(socket_, 10000);
  }

  /// Shutdown RPC, then waits up to 30 s for the exit; true when the
  /// server exited with status 0.
  bool shutdown() {
    bool acknowledged = false;
    try {
      ClientConnection connection = connect();
      const osim::serve::ServerMessage reply = connection.call(
          osim::serve::ClientMessage(osim::serve::Shutdown{}));
      acknowledged = std::holds_alternative<osim::serve::OkReply>(reply);
    } catch (const std::exception&) {
    }
    int status = 0;
    for (int i = 0; i < 3000; ++i) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        return acknowledged && WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      ::usleep(10000);
    }
    return false;  // the destructor kills it
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

osim::serve::ScenarioSpec spec_for(const TraceFile& file, double bandwidth) {
  osim::serve::ScenarioSpec spec;
  spec.trace_path = file.path;
  spec.bandwidth = bandwidth;
  return spec;
}

/// Fills `store_dir` with the reports of every (trace, warm bandwidth): one
/// task per trace, so its lint runs once and the other bandwidths hit the
/// lint cache, as they would on one worker.
void warm_store(const std::vector<TraceFile>& files,
                const std::string& store_dir) {
  osim::store::ScenarioStore store(store_dir);
  osim::pipeline::StudyOptions options;
  options.jobs = kJobs;
  osim::pipeline::Study pool(options);
  std::vector<std::size_t> order(files.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return files[a].bytes > files[b].bytes;
  });
  const std::vector<std::string> errors =
      pool.map(order, [&](std::size_t index) -> std::string {
        const TraceFile& file = files[index];
        auto trace = std::make_shared<const osim::trace::Trace>(
            osim::trace::read_any_file(file.path));
        const osim::pipeline::Fingerprint trace_fp =
            osim::pipeline::fingerprint_of(*trace);
        for (const double bw : kServeWarmBandwidths) {
          const osim::serve::ScenarioSpec spec = spec_for(file, bw);
          const osim::serve::JobOutcome outcome =
              osim::serve::run_job_on_trace(spec, trace, &store);
          if (!outcome.ok) return file.path + ": " + outcome.error;
          store.save_report(
              osim::serve::spec_fingerprint(
                  spec, osim::serve::TraceInfo{trace_fp, trace->num_ranks,
                                               file.bytes}),
              outcome.report_json);
        }
        return {};
      });
  for (const std::string& error : errors) {
    if (!error.empty()) throw osim::Error("store warm failed: " + error);
  }
}

struct Request {
  std::size_t trace = 0;
  double bandwidth = 0.0;
  bool fresh = false;
};

/// Blocks of four requests: three repeats and one fresh at a seeded slot.
/// Repeats walk seeded permutations of the traces at uniformly drawn warm
/// bandwidths; fresh requests walk their own permutations, each taking its
/// trace's next unused pool bandwidth. Ends when the pool is used up.
std::vector<Request> request_schedule(std::size_t num_traces,
                                      std::uint64_t seed) {
  osim::Rng rng(seed);
  std::vector<std::size_t> repeat_cycle;
  std::vector<std::size_t> fresh_cycle;
  std::vector<int> fresh_used(num_traces, 0);
  const std::size_t num_warm = std::size(kServeWarmBandwidths);
  auto next_from = [&](std::vector<std::size_t>& cycle) {
    if (cycle.empty()) {
      for (std::size_t i = 0; i < num_traces; ++i) cycle.push_back(i);
      shuffle(cycle, rng);
    }
    const std::size_t trace = cycle.back();
    cycle.pop_back();
    return trace;
  };
  std::vector<Request> schedule;
  for (std::size_t block = 0;
       block < num_traces * static_cast<std::size_t>(kServeFreshPool); ++block) {
    const std::size_t fresh_slot = rng() % 4;
    for (std::size_t slot = 0; slot < 4; ++slot) {
      Request request;
      if (slot == fresh_slot) {
        request.trace = next_from(fresh_cycle);
        request.fresh = true;
        request.bandwidth =
            serve_fresh_bandwidth(request.trace, fresh_used[request.trace]++);
      } else {
        request.trace = next_from(repeat_cycle);
        request.bandwidth = kServeWarmBandwidths[rng() % num_warm];
      }
      schedule.push_back(request);
    }
  }
  return schedule;
}

struct Answer {
  bool done = false;
  bool ok = false;
  double latency_ms = 0.0;
  std::size_t report_bytes = 0;
  std::string report;  // kept for the first kCompared requests only
};

/// One request, start to finish, on `connection`.
Answer run_request(ClientConnection& connection, const Request& request,
                   const TraceFile& file, const ExpectedTable& expected,
                   bool keep_report) {
  using namespace osim::serve;
  Answer answer;
  const Clock::time_point begin = Clock::now();
  auto op = spans().open("op");
  ServerMessage reply;
  {
    auto span = spans().open("serve.submit");
    reply = connection.call(
        ClientMessage(SubmitScenario{spec_for(file, request.bandwidth)}));
  }
  const auto* submitted = std::get_if<Submitted>(&reply);
  if (submitted == nullptr || submitted->tickets.size() != 1) return answer;
  const TicketInfo ticket = submitted->tickets[0];
  const SubmitDisposition wanted =
      request.fresh ? SubmitDisposition::kFresh : SubmitDisposition::kServed;
  if (ticket.disposition != SubmitDisposition::kServed) {
    auto span = spans().open("serve.wait");
    reply = connection.call(ClientMessage(PollStatus{ticket.ticket, true}));
    const auto* status = std::get_if<StatusReply>(&reply);
    if (status == nullptr || status->state != JobState::kDone) return answer;
  }
  {
    auto span = spans().open("serve.fetch");
    reply = connection.call(ClientMessage(FetchReport{ticket.ticket}));
  }
  op.close();
  answer.latency_ms = 1e3 * seconds_since(begin);
  answer.done = true;
  const auto* report = std::get_if<ReportReply>(&reply);
  if (report == nullptr) return answer;
  const Expected* want = expected.find(
      scenario_key(file.app, file.variant, kRanks, request.bandwidth));
  answer.ok = want != nullptr && ticket.disposition == wanted &&
              json_number(report->report_json, "makespan_s") == want->makespan_s &&
              json_number(report->report_json, "des_events") ==
                  static_cast<double>(want->des_events);
  answer.report_bytes = report->report_json.size();
  spans().count("report.mb", static_cast<double>(answer.report_bytes) / 1e6);
  if (keep_report) answer.report = report->report_json;
  return answer;
}

/// The in-process report for `request`: replay + cached lint + render.
std::string reference_report(const TraceFile& file, double bandwidth,
                             osim::store::ScenarioStore& store) {
  auto trace = std::make_shared<const osim::trace::Trace>(
      osim::trace::read_any_file(file.path));
  const osim::serve::ScenarioSpec spec = spec_for(file, bandwidth);
  const osim::dimemas::Platform platform =
      osim::serve::platform_for(spec, trace->num_ranks);
  const osim::pipeline::ReplayContext context(trace, platform,
                                              osim::serve::options_for(spec));
  const osim::dimemas::SimResult sim = osim::pipeline::run_scenario(context);
  osim::lint::LintOptions lint_options;
  lint_options.eager_threshold_bytes = platform.eager_threshold_bytes;
  const osim::lint::Report lint =
      osim::pipeline::lint_with_cache(*trace, lint_options, &store);
  return osim::pipeline::replay_report_json(sim, platform, trace->app, &lint);
}

}  // namespace

RunResult run_serve(const RunConfig& config, const std::string& serve_binary) {
  RunResult result;
  std::vector<TraceFile> files;
  std::unique_ptr<Server> server;
  std::string dir;
  const double setup_s = timed_setup(
      config,
      [&](const std::string& setup_dir, bool last) {
        files = write_traces(kRanks, setup_dir);
        const std::string store_dir = setup_dir + "/store";
        {
          auto span = spans().open("store.warm");
          warm_store(files, store_dir);
        }
        auto span = spans().open("serve.start");
        server = std::make_unique<Server>(serve_binary, setup_dir, store_dir);
        ClientConnection probe = server->connect();
        (void)server_stats(probe);
        if (!last && !server->shutdown()) {
          result.fail("osim_serve did not shut down cleanly after set-up");
        }
      },
      &dir);

  const std::vector<Request> schedule =
      request_schedule(files.size(), config.seed);
  std::vector<ClientConnection> connections;
  for (int c = 0; c < kClients; ++c) connections.push_back(server->connect());
  const std::string stats_before = server_stats(connections[0]);
  std::vector<pid_t> pids = worker_pids(stats_before);
  pids.push_back(server->pid());
  for (const pid_t pid : pids) reset_peak_rss(pid);

  std::vector<Answer> answers(schedule.size());
  std::atomic<std::size_t> next{0};
  std::atomic<bool> client_error{false};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      try {
        while (true) {
          if (seconds_since(start) >= config.seconds &&
              next.load() >= min_samples(kTailPercentile)) {
            break;
          }
          const std::size_t i = next.fetch_add(1);
          if (i >= schedule.size()) break;
          answers[i] = run_request(connections[static_cast<std::size_t>(c)],
                                   schedule[i], files[schedule[i].trace],
                                   *config.expected, i < kCompared);
        }
      } catch (const std::exception&) {
        client_error = true;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  const double timed_s = seconds_since(start);
  double peak = 0.0;
  for (const pid_t pid : pids) peak = std::max(peak, peak_rss_mb(pid));
  const std::string stats_after = server_stats(connections[0]);
  connections.clear();
  if (client_error) result.fail("a client connection failed");
  if (!server->shutdown()) result.fail("osim_serve did not shut down cleanly");

  std::vector<double> latencies;
  std::vector<double> repeat_ms;
  std::vector<double> fresh_ms;
  double report_bytes = 0.0;
  const std::size_t issued = std::min(next.load(), schedule.size());
  osim::store::ScenarioStore store(dir + "/store");
  for (std::size_t i = 0; i < issued; ++i) {
    Answer& answer = answers[i];
    ++result.attempted;
    if (!answer.done) continue;
    latencies.push_back(answer.latency_ms);
    (schedule[i].fresh ? fresh_ms : repeat_ms).push_back(answer.latency_ms);
    if (i < kCompared && answer.ok) {
      const TraceFile& file = files[schedule[i].trace];
      answer.ok = answer.report ==
                  reference_report(file, schedule[i].bandwidth, store);
    }
    report_bytes += static_cast<double>(answer.report_bytes);
    if (answer.ok) {
      ++result.ok;
    } else if (result.problems.size() < 8) {
      result.problems.push_back("serve request " + std::to_string(i) +
                                " failed its check");
    }
  }
  const double n = static_cast<double>(latencies.size());
  add_end_to_end(result, setup_s, latencies, kTailPercentile, timed_s, peak,
                 n > 0 ? report_bytes / n / 1e6 : 0.0);
  if (issued == schedule.size()) {
    result.notes.push_back({"schedule_exhausted", 1.0, "count"});
  }
  remove_tree(dir);

  if (config.traced) {
    auto delta = [&](std::string_view key) {
      return json_number(stats_after, key) - json_number(stats_before, key);
    };
    const double submits = delta("submits");
    const double served =
        delta("dedupe_served_memory") + delta("dedupe_served_store");
    result.per_layer = {
        {"serve.rtt_repeat_ms", median(repeat_ms), "ms"},
        {"serve.rtt_fresh_ms", median(fresh_ms), "ms"},
        {"serve.dedupe_memory", delta("dedupe_served_memory"), "count"},
        {"serve.dedupe_store", delta("dedupe_served_store"), "count"},
        {"serve.replays", delta("replays_completed"), "count"},
        {"serve.busy_rejects", delta("busy_rejects"), "count"},
        {"serve.hit_frac", submits > 0 ? served / submits : 0.0, "ratio"},
        {"store.writes", delta("objects"), "count"},
        {"store.mb", delta("bytes") / 1e6, "MB"},
        {"store.hits", delta("session_hits"), "count"},
    };
  }
  return result;
}

}  // namespace perfbench
