// osim_client — submit scenarios to a running osim_serve and collect the
// results.
//
//   osim_client submit --socket S --trace T [--bandwidth 250 ...]
//   osim_client submit --socket S --trace T --wait --report out.json
//   osim_client study  --socket S --trace T --bandwidths 125,250,500 --wait
//   osim_client poll   --socket S --ticket HEX [--wait]
//   osim_client fetch  --socket S --ticket HEX [--report out.json]
//   osim_client cancel --socket S --ticket HEX
//   osim_client stats  --socket S
//   osim_client shutdown --socket S
//
// The scenario flags (--bandwidth ... --progress) are serve::ScenarioSpec's
// own, registered exactly as osim_replay and osim_inspect register them.
//
// Tickets are fingerprints, spelled as 32 hex digits like the
// fingerprints of study reports and osim_inspect --fingerprint. A ticket
// addresses the report of the report-level scenario (replay options with
// metrics on, report and lint schema versions folded in,
// serve::spec_fingerprint), so it differs from the osim_inspect
// --fingerprint of the same flags, which addresses the summary-level
// replay `osim_replay --cache-dir` stores. A report fetched with --report
// is byte-identical to `osim_replay --trace T --report ...` with the same
// flags (scripts/serve_test.sh cmp's them).
//
// Exit codes follow common/exit_codes.hpp: 0 OK, 1 failed scenario or RPC
// error, 2 bad command line, 5 the server is draining, 6 the server
// refused the submit under admission control (resubmit later).
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/exit_codes.hpp"
#include "common/expect.hpp"
#include "common/flags.hpp"
#include "common/strings.hpp"
#include "pipeline/fingerprint.hpp"
#include "pipeline/report.hpp"
#include "serve/client.hpp"
#include "serve/job.hpp"
#include "serve/protocol.hpp"

namespace {

using namespace osim;

int error_exit_code(serve::RpcErrorCode code) {
  switch (code) {
    case serve::RpcErrorCode::kBusy:
      return kExitBusy;
    case serve::RpcErrorCode::kShuttingDown:
      return kExitInterrupted;
    case serve::RpcErrorCode::kBadRequest:
      return kExitUsage;
    case serve::RpcErrorCode::kNotFound:
    case serve::RpcErrorCode::kFailed:
      return kExitError;
  }
  return kExitError;
}

/// Prints an ErrorReply and maps it to this tool's exit-code contract.
int report_error(const serve::ErrorReply& error) {
  std::fprintf(stderr, "error (%s): %s\n",
               serve::rpc_error_code_name(error.code), error.message.c_str());
  return error_exit_code(error.code);
}

/// Blocks until `ticket` reaches a terminal state (wait-mode poll).
serve::StatusReply wait_terminal(serve::ClientConnection& connection,
                                 const pipeline::Fingerprint& ticket) {
  const serve::ServerMessage reply =
      connection.call(serve::ClientMessage(serve::PollStatus{ticket, true}));
  if (const auto* status = std::get_if<serve::StatusReply>(&reply)) {
    return *status;
  }
  if (const auto* error = std::get_if<serve::ErrorReply>(&reply)) {
    throw Error(strprintf("poll failed (%s): %s",
                          serve::rpc_error_code_name(error->code),
                          error->message.c_str()));
  }
  throw Error("unexpected reply to poll");
}

/// Fetches `ticket`'s report and writes it to `path` (or stdout when
/// empty). Returns the process exit code.
int fetch_report(serve::ClientConnection& connection,
                 const pipeline::Fingerprint& ticket,
                 const std::string& path) {
  const serve::ServerMessage reply =
      connection.call(serve::ClientMessage(serve::FetchReport{ticket}));
  if (const auto* error = std::get_if<serve::ErrorReply>(&reply)) {
    return report_error(*error);
  }
  const auto* report = std::get_if<serve::ReportReply>(&reply);
  if (report == nullptr) throw Error("unexpected reply to fetch");
  if (path.empty()) {
    std::printf("%s\n", report->report_json.c_str());
  } else {
    // write_report, not a bare ofstream: the batch tool writes reports
    // through the same function, which is what makes cmp(1) meaningful.
    pipeline::write_report(path, report->report_json);
    std::printf("run report written to %s\n", path.c_str());
  }
  return kExitOk;
}

}  // namespace

int main(int argc, char** argv) try {
  std::string command;
  std::vector<const char*> rest;
  rest.push_back(argc > 0 ? argv[0] : "osim_client");
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (command.empty() && !arg.starts_with("--")) {
      command = arg;
    } else {
      rest.push_back(argv[i]);
    }
  }

  std::string socket_path;
  std::int64_t connect_retry_ms = 5000;
  serve::ScenarioSpec spec;
  std::string bandwidths;
  std::string ticket_hex;
  bool wait = false;
  std::string report_path;

  Flags flags(
      "osim_client <submit|study|poll|fetch|cancel|stats|shutdown>: talk to "
      "a running osim_serve");
  flags.add("socket", &socket_path, "the server's Unix-domain socket");
  flags.add("connect-retry-ms", &connect_retry_ms,
            "keep retrying the connect for this long (a just-started "
            "server may not listen yet)");
  flags.add("trace", &spec.trace_path, "submit/study: trace file to replay");
  spec.register_flags(flags);
  flags.add("bandwidths", &bandwidths,
            "study: comma-separated bandwidth sweep, e.g. 125,250,500 "
            "(replaces --bandwidth, which study rejects)");
  flags.add("ticket", &ticket_hex,
            "poll/fetch/cancel: the scenario ticket (32 hex digits)");
  flags.add("wait", &wait,
            "submit/study/poll: block until the scenario(s) finish");
  flags.add("report", &report_path,
            "submit --wait / fetch: write the JSON run report here");
  if (!flags.parse(static_cast<int>(rest.size()), rest.data())) return 0;

  if (command.empty()) {
    throw UsageError(
        "missing command: expected submit, study, poll, fetch, cancel, "
        "stats or shutdown\n" +
        flags.usage());
  }
  // Each sweep point replaces the base spec's bandwidth.
  if (command == "study" && flags.given("bandwidth")) {
    throw UsageError(
        "--bandwidth cannot be combined with --bandwidths: the sweep sets "
        "each scenario's bandwidth");
  }
  if (socket_path.empty()) throw UsageError("pass --socket");
  require_flag_range("connect-retry-ms", connect_retry_ms, 0,
                     std::numeric_limits<std::int32_t>::max());

  serve::ClientConnection connection = serve::ClientConnection::connect_unix(
      socket_path, static_cast<int>(connect_retry_ms));

  // The ticket-flag commands share parsing.
  pipeline::Fingerprint ticket;
  if (command == "poll" || command == "fetch" || command == "cancel") {
    const std::optional<pipeline::Fingerprint> parsed =
        pipeline::fingerprint_from_hex(ticket_hex);
    if (!parsed.has_value()) {
      throw UsageError("--ticket must be 32 hex digits");
    }
    ticket = *parsed;
  }

  if (command == "submit" || command == "study") {
    if (spec.trace_path.empty()) throw UsageError("--trace is required");
    serve::ClientMessage request{serve::SubmitScenario{spec}};
    if (command == "study") {
      serve::SubmitStudy study;
      study.base = spec;
      for (const std::string& part : split(bandwidths, ',')) {
        const std::optional<double> bw = parse_f64(trim(part));
        if (!bw.has_value() || *bw <= 0.0) {
          throw UsageError("--bandwidths must be positive numbers: " +
                           bandwidths);
        }
        study.bandwidths.push_back(*bw);
      }
      if (study.bandwidths.empty()) {
        throw UsageError("study requires --bandwidths");
      }
      request = serve::ClientMessage(study);
    }

    const serve::ServerMessage reply = connection.call(request);
    if (const auto* error = std::get_if<serve::ErrorReply>(&reply)) {
      return report_error(*error);
    }
    const auto* submitted = std::get_if<serve::Submitted>(&reply);
    if (submitted == nullptr) throw Error("unexpected reply to submit");
    for (const serve::TicketInfo& info : submitted->tickets) {
      std::printf("ticket %s %s\n", pipeline::to_hex(info.ticket).c_str(),
                  serve::submit_disposition_name(info.disposition));
    }
    if (!wait) return kExitOk;

    int exit_code = kExitOk;
    for (const serve::TicketInfo& info : submitted->tickets) {
      const serve::StatusReply status = wait_terminal(connection, info.ticket);
      std::printf("ticket %s %s%s%s\n", pipeline::to_hex(info.ticket).c_str(),
                  serve::job_state_name(status.state),
                  status.error.empty() ? "" : ": ", status.error.c_str());
      if (status.state != serve::JobState::kDone) {
        exit_code = kExitError;
      }
    }
    if (exit_code == kExitOk && !report_path.empty()) {
      if (submitted->tickets.size() != 1) {
        throw UsageError("--report needs a single-scenario submit");
      }
      return fetch_report(connection, submitted->tickets[0].ticket,
                          report_path);
    }
    return exit_code;
  }

  if (command == "poll") {
    serve::ServerMessage reply =
        connection.call(serve::ClientMessage(serve::PollStatus{ticket, wait}));
    if (const auto* error = std::get_if<serve::ErrorReply>(&reply)) {
      return report_error(*error);
    }
    const auto* status = std::get_if<serve::StatusReply>(&reply);
    if (status == nullptr) throw Error("unexpected reply to poll");
    std::printf("ticket %s %s attempts=%u%s%s\n",
                pipeline::to_hex(status->ticket).c_str(),
                serve::job_state_name(status->state), status->attempts,
                status->error.empty() ? "" : " error=",
                status->error.c_str());
    return status->state == serve::JobState::kFailed ? kExitError : kExitOk;
  }

  if (command == "fetch") {
    return fetch_report(connection, ticket, report_path);
  }

  if (command == "cancel") {
    const serve::ServerMessage reply =
        connection.call(serve::ClientMessage(serve::Cancel{ticket}));
    if (const auto* error = std::get_if<serve::ErrorReply>(&reply)) {
      return report_error(*error);
    }
    std::printf("cancelled %s\n", ticket_hex.c_str());
    return kExitOk;
  }

  if (command == "stats") {
    const serve::ServerMessage reply =
        connection.call(serve::ClientMessage(serve::ServerStats{}));
    if (const auto* error = std::get_if<serve::ErrorReply>(&reply)) {
      return report_error(*error);
    }
    const auto* stats = std::get_if<serve::StatsReply>(&reply);
    if (stats == nullptr) throw Error("unexpected reply to stats");
    std::printf("%s\n", stats->stats_json.c_str());
    return kExitOk;
  }

  if (command == "shutdown") {
    const serve::ServerMessage reply =
        connection.call(serve::ClientMessage(serve::Shutdown{}));
    if (const auto* error = std::get_if<serve::ErrorReply>(&reply)) {
      return report_error(*error);
    }
    std::printf("server draining\n");
    return kExitOk;
  }

  throw UsageError("unknown command '" + command +
                   "': expected submit, study, poll, fetch, cancel, stats "
                   "or shutdown");
} catch (const osim::UsageError& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitUsage;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return osim::kExitError;
}
