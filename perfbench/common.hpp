// Shared plumbing of the benchmark: run options, the per-run result, the
// span/counter trace, host-time helpers and the report digest.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "attack/campaign.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Command-line options of one run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Closed-loop workers (0 = min(nproc, 4)).
  std::uint32_t workers = 0;
  /// Directory for spools and checkpoints (created and emptied by the run).
  std::string scratch = ".bench_build/scratch";
};

/// Operations whose simulated outcomes make up the digest and the
/// deterministic counts. They always run, whatever --seconds says.
inline constexpr std::uint32_t kPresentWindow = 8;
inline constexpr std::uint32_t kAesWindow = 16;
inline constexpr std::uint32_t kDaemonWindow = 4;

/// What a workload hands back to main(): metrics by name (value, unit),
/// the deterministic outcome lines, and the correctness tally.
struct RunResult {
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Sample counts behind percentile metrics, printed beside them.
  std::map<std::string, std::size_t> samples;
  std::uint64_t digest = 0;
  std::uint32_t digest_ops = 0;
  std::map<std::string, std::uint64_t> counts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    ++failed;
    if (violations.size() < 20) violations.push_back(why);
  }
};

/// Host-time spans with self time (the span's duration minus its child
/// spans'), plus additive counters. One Trace per thread; merge() at the end.
class Trace {
 public:
  /// Opens a span on construction, closes it on destruction. Spans nest
  /// per Trace in LIFO order.
  class Span {
   public:
    Span(Trace& trace, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace& trace_;
  };

  void merge(const Trace& other);
  /// Total self milliseconds of every span named `name`.
  double self_ms(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;
  void add(std::string_view name, std::uint64_t n);

 private:
  struct Open {
    const char* name;
    Clock::time_point start;
    double child_ms;
  };
  std::vector<Open> stack_;
  // Transparent comparators: spans and counters are named by literals, and
  // a lookup must not allocate inside a timed span.
  std::map<std::string, double, std::less<>> self_ms_;
  std::map<std::string, std::uint64_t, std::less<>> counts_;
};

/// One closed-loop worker's share of a pass; merged, the whole pass.
/// `Out` is what an operation leaves behind for the checks after the loop.
template <class Out>
struct Lane {
  std::vector<double> latency_ms;
  std::map<std::uint64_t, Out> out;  ///< By operation index.
  Trace spans;
  Trace counts;
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  double wall_s = 0.0;  ///< Of the merged pass.

  static Lane merge(std::vector<Lane>& lanes, double wall_s) {
    Lane pass;
    pass.wall_s = wall_s;
    for (Lane& lane : lanes) {
      pass.latency_ms.insert(pass.latency_ms.end(), lane.latency_ms.begin(),
                             lane.latency_ms.end());
      pass.out.merge(lane.out);
      pass.spans.merge(lane.spans);
      pass.counts.merge(lane.counts);
      pass.attempted += lane.attempted;
      pass.failures.insert(pass.failures.end(), lane.failures.begin(),
                           lane.failures.end());
    }
    return pass;
  }

  /// Adds this pass's attempts and failures to `result`.
  void tally(RunResult& result) const {
    result.attempted += attempted;
    for (const std::string& f : failures) result.fail(f);
  }
};

/// The closed loop: `workers` threads (the caller's included) take
/// operation indices 0, 1, 2, ... in order and run body(worker, op), each
/// starting its next operation only when the previous one completed. It
/// stops once `seconds` have passed and at least `min_ops` operations
/// started, and never starts op >= `limit`. An exception escaping `body` is
/// rethrown after every worker joined. Returns the wall seconds of the loop.
template <class Body>
double closed_loop(std::uint32_t workers, double seconds, std::uint64_t min_ops,
                   std::uint64_t limit, Body&& body) {
  std::atomic<std::uint64_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  const auto run = [&](std::uint32_t worker) {
    try {
      for (;;) {
        const std::uint64_t op = next.fetch_add(1);
        if (stop || op >= limit || (op >= min_ops && Clock::now() >= deadline))
          break;
        body(worker, op);
      }
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
      stop = true;  // Stop the other workers.
    }
  };
  std::vector<std::thread> pool;
  for (std::uint32_t w = 1; w < workers; ++w) pool.emplace_back(run, w);
  run(0);
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median and tail of `values` (copied; q in [0, 1], nearest-rank).
double quantile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// The byte-stable fields of a campaign report (everything but host time
/// and the fork diagnostic), as one line — the unit of the digest and of
/// the phase-driven-vs-runner equality check.
std::string stable_fields(const explframe::attack::CampaignReport& report);

/// FNV-1a 64, chained.
std::uint64_t fnv1a(const std::string& bytes,
                    std::uint64_t hash = 0xcbf29ce484222325ULL);

/// Closed-loop worker count: min(nproc, 4) unless overridden.
std::uint32_t worker_count(const Options& options);

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

}  // namespace perfbench
