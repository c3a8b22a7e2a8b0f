// The PERF benches' shared core: strict flag parsing, wall-clock timing,
// the bar verdict and the BENCH_*.json writer. Each policy is decided here
// once, so every gated bench parses, measures, judges and records alike.
//
// Includers are compiled with EXPLFRAME_BUILD_TYPE and EXPLFRAME_COMPILER
// defined (CMakeLists.txt passes both), the host facts of every JSON file.
#pragma once

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace explframe::bench {

/// A bench's command line: `--json=PATH` plus its named bars (`--bar=X`,
/// `--bar-capacity=X`, ...), pre-filled with the bench's defaults.
struct Flags {
  std::string json;
  std::map<std::string, double> bars;
};

/// Applies `args` to `flags`; returns "" on success, else what is wrong.
/// Accepts only `--json=PATH` and `--<bar>=X` for a declared bar, with a
/// non-empty value; X must parse whole as a finite number > 0.
inline std::string parse_flags(const std::vector<std::string>& args,
                               Flags& flags) {
  for (const std::string& arg : args) {
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos)
      return "unknown argument '" + arg + "'";
    const std::string name = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (value.empty()) return "empty value in '" + arg + "'";
    if (name == "json") {
      flags.json = value;
      continue;
    }
    const auto bar = flags.bars.find(name);
    if (bar == flags.bars.end()) return "unknown flag '" + arg + "'";
    const char* end = value.data() + value.size();
    const auto parsed = std::from_chars(value.data(), end, bar->second);
    if (parsed.ec != std::errc() || parsed.ptr != end ||
        !std::isfinite(bar->second) || bar->second <= 0.0)
      return "--" + name + " wants a finite number > 0, got '" + value + "'";
  }
  return "";
}

/// parse_flags over main's arguments. On any error prints it and the usage
/// line and exits 2, before the bench has measured anything.
inline Flags parse_flags_or_exit(int argc, char** argv,
                                 const Flags& defaults) {
  Flags flags = defaults;
  const std::string error =
      parse_flags(std::vector<std::string>(argv + 1, argv + argc), flags);
  if (error.empty()) return flags;
  std::cerr << argv[0] << ": " << error << "\nusage: " << argv[0]
            << " [--json=PATH (default " << defaults.json << ")]";
  for (const auto& [name, value] : defaults.bars)
    std::cerr << " [--" << name << "=X (default " << value << ")]";
  std::cerr << "\n";
  std::exit(2);
}

/// Host wall-clock seconds one call of `fn` takes.
template <typename Fn>
double time_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> d =
      std::chrono::steady_clock::now() - start;
  return d.count();
}

/// The comparative timing policy: one untimed warm-up of `a` (allocator
/// pools, code paths), then three interleaved runs of `a` and `b`; returns
/// each side's minimum seconds. The minimum cancels frequency/scheduler
/// noise that a single sub-second run cannot; interleaving keeps a
/// mid-bench thermal drift from taxing one side only.
template <typename A, typename B>
std::pair<double, double> best_of(A&& a, B&& b) {
  a();
  std::pair<double, double> best{time_seconds(a), time_seconds(b)};
  for (int rep = 1; rep < 3; ++rep) {
    best.first = std::min(best.first, time_seconds(a));
    best.second = std::min(best.second, time_seconds(b));
  }
  return best;
}

/// The least, middle and greatest of a bench's repeated measurements.
struct Spread {
  double min = 0.0;
  double median = 0.0;  ///< Mean of the two middle values for an even count.
  double max = 0.0;
};

/// The Spread of `values` (CHECK-free: an empty sample gives all zeros).
inline Spread spread(std::vector<double> values) {
  if (values.empty()) return {};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  const double median =
      n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  return {values.front(), median, values.back()};
}

/// The paired timing policy for a bar on the ratio of two sides: one
/// untimed warm-up of `a`, then `pairs` runs of `a` immediately followed by
/// `b`; returns each pair's (a, b) seconds. Judging the median of the
/// per-pair ratios tolerates a minority of disturbed pairs, which the
/// minimum of a few runs per side does not when one run lasts about as long
/// as a scheduler or fsync stall.
template <typename A, typename B>
std::vector<std::pair<double, double>> interleaved_pairs(A&& a, B&& b,
                                                         int pairs) {
  a();
  std::vector<std::pair<double, double>> out;
  for (int i = 0; i < pairs; ++i) {
    const double first = time_seconds(a);
    out.emplace_back(first, time_seconds(b));
  }
  return out;
}

/// The bar verdict: each failed requirement prints one `FAIL:` line on
/// stderr, and the bench exits 1 if any failed.
class Verdict {
 public:
  template <typename... Why>
  void require(bool ok, const Why&... why) {
    if (ok) return;
    pass_ = false;
    ((std::cerr << "FAIL: ") << ... << why) << "\n";
  }
  bool pass() const { return pass_; }

 private:
  bool pass_ = true;
};

/// One BENCH_*.json object: keys in insertion order, two-space indent, one
/// key per line. Numbers print exactly as `std::ostream << value` does
/// (doubles at six significant digits, e.g. 1.4278e+08), bools as
/// true/false, strings quoted, and an array of objects one inline object
/// per line.
class Json {
 public:
  Json& add(const std::string& key, const std::string& value) {
    return field(key, "\"" + value + "\"");
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  Json& add(const std::string& key, T value) {
    std::ostringstream out;
    out << std::boolalpha << value;
    return field(key, out.str());
  }
  Json& add(const std::string& key, const std::vector<Json>& items) {
    std::string text = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
      text += (i ? ",\n    " : "\n    ") + items[i].join("{", ", ", "}");
    return field(key, text + "\n  ]");
  }

  /// The file body.
  std::string text() const { return join("{\n  ", ",\n  ", "\n}\n"); }

 private:
  Json& field(const std::string& key, const std::string& value) {
    fields_.push_back("\"" + key + "\": " + value);
    return *this;
  }
  std::string join(const char* open, const char* sep,
                   const char* close) const {
    std::string text = open;
    for (std::size_t i = 0; i < fields_.size(); ++i)
      text += (i ? sep : "") + fields_[i];
    return text + close;
  }

  std::vector<std::string> fields_;  ///< Rendered `"key": value` pairs.
};

/// A BENCH_*.json object opened with the bench's name and the host facts
/// that make its numbers comparable: cores, build type and compiler.
inline Json bench_json(const std::string& name) {
  Json json;
  json.add("bench", name)
      .add("host_cores", std::thread::hardware_concurrency())
      .add("build_type", std::string(EXPLFRAME_BUILD_TYPE))
      .add("compiler", std::string(EXPLFRAME_COMPILER));
  return json;
}

/// Writes `json` to `path` and returns the bench's exit code: 1 if any
/// requirement failed or the file could not be written, else 0.
inline int finish(const Json& json, const std::string& path,
                  Verdict& verdict) {
  std::ofstream out(path);
  out << json.text();
  out.close();
  verdict.require(out.good(), "cannot write ", path);
  if (out.good()) std::cout << "\nwrote " << path << "\n";
  return verdict.pass() ? 0 : 1;
}

}  // namespace explframe::bench
