// explsimd — the long-running experiment daemon over a spool directory.
//
//   explsimd serve  [--spool=DIR] [--workers=N] [--once]
//   explsimd submit <scenario|sweep> <name> [--spool=DIR] [--threads=N]
//   explsimd status [<id>] [--spool=DIR]
//   explsimd report <id> [--csv] [--spool=DIR]
//
// The daemon speaks the one-line service::protocol format over files:
// `submit` resolves a request to its content-bound job id and drops
// `<spool>/queue/<id>.req` (tmp + rename, so a crash never leaves a torn
// submission); a running `serve` polls the queue directory, dedupes by
// id, and executes jobs on a bounded worker pool, writing reports into
// `<spool>/done/` and filing exhausted retries under `<spool>/failed/`.
// Because both sides meet only in the filesystem, submissions survive
// daemon restarts: `serve` rescans the queue on startup and sweep jobs
// resume from `<spool>/checkpoints/<id>.ckpt` instead of recomputing.
//
// `serve --once` drains the queue and exits (the CI/integration mode);
// without it the daemon polls until SIGINT/SIGTERM, then shuts down
// gracefully — in-flight sweeps stop at the next point boundary and keep
// their checkpoint, so nothing is lost and nothing is rerun.
//
// `status` and `report` need no daemon: job state is fully determined by
// which spool file holds the id (queue/ = pending, done/ = completed,
// failed/ = gave up), so they just look.
//
// Each command takes only the options usage lists for it. Any other
// option, a value option without its value or with an empty one
// (`--spool=`), or a flag given a value (`--once=1`) is a usage error,
// reported before the spool is touched.
//
// Exit codes (scriptable — each failure class is distinguishable):
//   0  success
//   1  job failed (a failed/ entry, or `serve --once` saw failures)
//   2  bad request (usage, unknown kind/name/id, malformed input)
//   3  spool unavailable (cannot create/write the spool, or the daemon
//      is degraded read-only after a permanent disk failure)
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "io/fs.hpp"
#include "scenario/registry.hpp"
#include "service/protocol.hpp"
#include "service/service.hpp"
#include "support/config.hpp"
#include "sweep/registry.hpp"

using namespace explframe;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

// The failure-class exit codes (see the file comment).
constexpr int kExitJobFailed = 1;
constexpr int kExitBadRequest = 2;
constexpr int kExitUnavailable = 3;

int usage(std::ostream& os, int code) {
  os << "usage: explsimd <command> [options]\n"
        "\n"
        "  serve                     run the daemon over the spool\n"
        "      [--spool=DIR]         spool root (default: explsimd-spool)\n"
        "      [--workers=N]         worker threads (default 2)\n"
        "      [--once]              drain the queued jobs and exit\n"
        "                            (non-zero if any job failed)\n"
        "  submit <scenario|sweep> <name>\n"
        "                            spool one job; prints its id. The id\n"
        "                            binds the experiment's content, so\n"
        "                            duplicate submissions collapse and a\n"
        "                            completed job is served from cache\n"
        "      [--threads=N]         inner worker threads (wall-clock only)\n"
        "      [--spool=DIR]\n"
        "  status [<id>]             one job's state, or every spooled job\n"
        "                            (failed jobs print their recorded\n"
        "                            failure reason)\n"
        "      [--spool=DIR]\n"
        "  report <id> [--csv]       print a completed job's report bytes\n"
        "      [--spool=DIR]\n"
        "\n"
        "exit codes: 0 ok, 1 job failed, 2 bad request, 3 spool\n"
        "unavailable/degraded\n";
  return code;
}

std::optional<std::string> read_file(const std::string& path) {
  std::string content;
  if (!io::real().read_file(path, &content).ok()) return std::nullopt;
  return content;
}

/// The spool-derived state of an id: which directory holds it.
std::string spool_state(const std::string& spool, const std::string& id) {
  namespace fs = std::filesystem;
  if (fs::exists(spool + "/done/" + id + ".md")) return "done";
  if (fs::exists(spool + "/failed/" + id + ".err")) return "failed";
  if (fs::exists(spool + "/queue/" + id + ".req")) return "queued";
  return "unknown";
}

int cmd_serve(const std::string& spool, std::uint32_t workers, bool once) {
  service::ServiceOptions options;
  options.spool_dir = spool;
  options.workers = workers;
  service::Service daemon(options, scenario::Registry::builtin(),
                          sweep::Registry::builtin());
  std::string error;
  if (!daemon.start(&error)) {
    std::cerr << "error: " << error << "\n";
    return kExitUnavailable;
  }

  if (!once) {
    std::signal(SIGINT, handle_stop_signal);
    std::signal(SIGTERM, handle_stop_signal);
    std::cout << "explsimd: serving spool '" << spool << "' with " << workers
              << " worker(s); SIGINT/SIGTERM drains gracefully\n";
    namespace fs = std::filesystem;
    while (!g_stop) {
      // Pick up submissions dropped by other processes. Dedupe makes the
      // rescan idempotent, so re-seeing a tracked .req costs nothing.
      for (const auto& entry : fs::directory_iterator(spool + "/queue")) {
        if (entry.path().extension() != ".req") continue;
        const std::string id = entry.path().stem().string();
        if (daemon.status(id)) continue;
        const auto text = read_file(entry.path().string());
        if (!text) continue;
        std::string line = *text;
        while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
          line.pop_back();
        std::string submit_error;
        service::SubmitError why = service::SubmitError::kNone;
        if (!daemon.submit_line(line, &submit_error, &why)) {
          if (why == service::SubmitError::kUnavailable) {
            // The request is fine — the spool is not. Leave the .req in
            // place (it is already durable) and keep serving reads.
            std::cerr << "explsimd: degraded, cannot accept '"
                      << entry.path().string() << "': " << submit_error
                      << "\n";
            continue;
          }
          std::cerr << "explsimd: rejecting '" << entry.path().string()
                    << "': " << submit_error << "\n";
          std::error_code ec;
          fs::rename(entry.path(),
                     fs::path(entry.path().string() + ".rejected"), ec);
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    std::cout << "explsimd: stopping (in-flight sweeps cancel at the next "
                 "point boundary; checkpoints are kept for resume)\n";
    daemon.shutdown(service::Service::Shutdown::kCancel);
  } else {
    daemon.drain();
    daemon.shutdown(service::Service::Shutdown::kDrain);
  }

  int failed = 0;
  for (const service::Job& job : daemon.jobs()) {
    std::cout << job.id << " " << to_string(job.state) << " attempts="
              << job.attempts << " requeues=" << job.requeues;
    if (!job.error.empty()) std::cout << " error: " << job.error;
    std::cout << "\n";
    if (job.state == service::JobState::kFailed) failed += 1;
  }
  std::cout << "explsimd: " << daemon.executions() << " execution(s), "
            << failed << " failed\n";
  if (daemon.degraded()) {
    std::cerr << "explsimd: spool degraded (read-only): "
              << daemon.degraded_reason() << "\n";
    return kExitUnavailable;
  }
  return once && failed > 0 ? kExitJobFailed : 0;
}

int cmd_submit(const std::string& spool, const std::string& kind_name,
               const std::string& name, std::uint32_t threads) {
  const auto kind = service::job_kind_from_string(kind_name);
  if (!kind) {
    std::cerr << "error: unknown kind '" << kind_name
              << "' (want scenario or sweep)\n";
    return kExitBadRequest;
  }
  service::JobRequest request;
  request.kind = *kind;
  request.name = name;
  request.threads = threads;
  std::string error;
  const auto id = service::job_id(request, scenario::Registry::builtin(),
                                  sweep::Registry::builtin(), &error);
  if (!id) {
    // An unknown scenario/sweep name is the submitter's mistake, not the
    // spool's.
    std::cerr << "error: " << error << "\n";
    return kExitBadRequest;
  }
  io::FileSystem& fs = io::real();
  if (fs.exists(spool + "/done/" + *id + ".md")) {
    std::cout << *id << " cached\n";
    return 0;
  }
  const io::Status made = io::with_retry(io::kDefaultRetryAttempts, [&] {
    return fs.create_directories(spool + "/queue");
  });
  if (!made.ok()) {
    std::cerr << "error: cannot create spool '" << spool
              << "/queue': " << made.message() << "\n";
    return kExitUnavailable;
  }
  const std::string path = spool + "/queue/" + *id + ".req";
  const bool duplicate = fs.exists(path);
  // The same tmp + sync + rename discipline Service uses, so a
  // concurrently polling daemon never reads a half-written request and a
  // crash never loses an acknowledged submission.
  const io::Status spooled =
      io::durable_write(fs, path, request.serialize() + "\n");
  if (!spooled.ok()) {
    std::cerr << "error: cannot write '" << path
              << "': " << spooled.message() << "\n";
    return kExitUnavailable;
  }
  std::cout << *id << (duplicate ? " deduped" : " submitted") << "\n";
  return 0;
}

int cmd_status(const std::string& spool, const std::string& id) {
  namespace fs = std::filesystem;
  if (!id.empty()) {
    const std::string state = spool_state(spool, id);
    std::cout << id << " " << state << "\n";
    if (state == "failed") {
      if (const auto why = read_file(spool + "/failed/" + id + ".err"))
        std::cout << "  " << trim_copy(*why) << "\n";
      return kExitJobFailed;
    }
    return state == "unknown" ? kExitBadRequest : 0;
  }
  // Every id the spool knows, each printed once, stable order.
  std::vector<std::string> ids;
  const auto collect = [&](const std::string& sub, const std::string& ext) {
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(spool + "/" + sub, ec)) {
      if (entry.path().extension() != ext) continue;
      const std::string found = entry.path().stem().string();
      bool seen = false;
      for (const std::string& existing : ids) seen = seen || existing == found;
      if (!seen) ids.push_back(found);
    }
  };
  collect("queue", ".req");
  collect("done", ".md");
  collect("failed", ".err");
  std::sort(ids.begin(), ids.end());
  for (const std::string& found : ids) {
    const std::string state = spool_state(spool, found);
    std::cout << found << " " << state << "\n";
    if (state == "failed") {
      // Surface the recorded reason right in the listing, so "why did my
      // job fail" never needs a manual dig through failed/.
      if (const auto why = read_file(spool + "/failed/" + found + ".err"))
        std::cout << "  " << trim_copy(*why) << "\n";
    }
  }
  return 0;
}

int cmd_report(const std::string& spool, const std::string& id, bool csv) {
  const std::string path =
      spool + "/done/" + id + "." + (csv ? "csv" : "md");
  const auto text = read_file(path);
  if (!text) {
    const std::string state = spool_state(spool, id);
    std::cerr << "error: no completed report at '" << path
              << "' (status: " << state << ")\n";
    if (state == "failed") {
      if (const auto why = read_file(spool + "/failed/" + id + ".err"))
        std::cerr << "  " << trim_copy(*why) << "\n";
      return kExitJobFailed;
    }
    return kExitBadRequest;
  }
  std::cout << *text;
  return 0;
}

/// The options `command` passes on to its cmd_* function (value options
/// by name, without "=VALUE"). Any other option on its command line is a
/// usage error, reported before any filesystem access.
std::vector<std::string_view> options_taken(const std::string& command) {
  if (command == "serve") return {"--spool", "--workers", "--once"};
  if (command == "submit") return {"--spool", "--threads"};
  if (command == "status") return {"--spool"};
  if (command == "report") return {"--spool", "--csv"};
  return {};
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage(std::cerr, 2);

  std::string spool = "explsimd-spool";
  std::uint32_t workers = 2;
  std::uint32_t threads = 0;
  bool once = false;
  bool csv = false;
  const std::string& command = args[0];
  const std::vector<std::string_view> taken = options_taken(command);
  std::vector<std::string> operands;
  for (std::size_t i = 1; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h") return usage(std::cout, 0);
    if (arg.rfind("--", 0) != 0) {
      operands.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    if (std::find(taken.begin(), taken.end(), flag) == taken.end()) {
      std::cerr << "explsimd: '" << command << "' does not take option '"
                << arg << "'\n";
      return usage(std::cerr, 2);
    }
    if (arg == "--once") {
      once = true;
    } else if (arg == "--csv") {
      csv = true;
    } else if (eq == std::string::npos) {
      // A value option without its "=VALUE".
      std::cerr << "explsimd: malformed option '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else if (value.empty()) {
      // "--spool=" would resolve every spool path under "/".
      std::cerr << "explsimd: empty value in '" << arg << "'\n";
      return usage(std::cerr, 2);
    } else if (flag == "--spool") {
      spool = value;
    } else if (flag == "--workers") {
      const auto parsed = parse_u64(value);
      if (!parsed || *parsed == 0 || *parsed > 64) {
        std::cerr << "error: bad --workers value (want 1..64)\n";
        return 2;
      }
      workers = static_cast<std::uint32_t>(*parsed);
    } else if (flag == "--threads") {
      const auto parsed = parse_u64(value);
      if (!parsed || *parsed > 256) {
        std::cerr << "error: bad --threads value (want 0..256)\n";
        return 2;
      }
      threads = static_cast<std::uint32_t>(*parsed);
    } else {
      // A flag given a value ("--once=1").
      std::cerr << "explsimd: malformed option '" << arg << "'\n";
      return usage(std::cerr, 2);
    }
  }

  if (command == "serve" && operands.empty())
    return cmd_serve(spool, workers, once);
  if (command == "submit" && operands.size() == 2)
    return cmd_submit(spool, operands[0], operands[1], threads);
  if (command == "status" && operands.size() <= 1)
    return cmd_status(spool, operands.empty() ? "" : operands[0]);
  if (command == "report" && operands.size() == 1)
    return cmd_report(spool, operands[0], csv);
  if (command == "--help" || command == "-h") return usage(std::cout, 0);
  return usage(std::cerr, 2);
}
