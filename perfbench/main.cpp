// perfbench — the repository benchmark. One run measures one workload for
// --seconds and prints, last, one JSON line with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Exit status 0 only when
// every correctness check held. perfbench/run.py builds and runs it.
//
//   perfbench --workload present-pfa --seed 1 --seconds 10 --trace 0
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const std::string& problem) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload present-pfa|aes-defences|"
               "daemon-sweeps --seed N --seconds S --trace 0|1\n"
               "                 [--workers N] [--scratch DIR]\n",
               problem.c_str());
  std::exit(2);
}

std::uint64_t number(const std::string& flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') usage("bad value for " + flag);
  return v;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const char* value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = number(flag, value);
    } else if (flag == "--seconds") {
      char* end = nullptr;
      o.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(o.seconds > 0) || o.seconds > 600)
        usage("--seconds must be in (0, 600]");
    } else if (flag == "--trace") {
      const std::uint64_t t = number(flag, value);
      if (t > 1) usage("--trace must be 0 or 1");
      o.trace = t == 1;
    } else if (flag == "--workers") {
      o.workers = static_cast<std::uint32_t>(number(flag, value));
    } else if (flag == "--scratch") {
      o.scratch = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (o.workload != "present-pfa" && o.workload != "aes-defences" &&
      o.workload != "daemon-sweeps")
    usage("unknown workload '" + o.workload + "'");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::RunResult r;
  try {
    r = options.workload == "daemon-sweeps" ? perfbench::run_daemon(options)
                                            : perfbench::run_trials(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  std::printf("workload %s seed %llu seconds %g trace %d workers %u\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, perfbench::worker_count(options));
  std::printf("host cores %u build %s compiler %s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              PERFBENCH_COMPILER);
  std::printf("sim_digest %016llx over the first %u ops\n",
              static_cast<unsigned long long>(r.digest), r.digest_ops);
  for (const auto& [name, n] : r.counts)
    std::printf("count %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(n));
  for (const auto& [name, metric] : r.metrics) {
    std::printf("metric %s %.6g %s", name.c_str(), metric.first,
                metric.second.c_str());
    if (const auto it = r.samples.find(name); it != r.samples.end())
      std::printf(" (n=%zu)", it->second);
    std::printf("\n");
  }
  for (const std::string& v : r.violations)
    std::printf("violation %s\n", v.c_str());
  std::printf("error_rate %.6g (%llu failed of %llu attempted)\n",
              r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0,
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  const char* sep = "";
  for (const auto& [name, metric] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                name.c_str(), metric.first, metric.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
