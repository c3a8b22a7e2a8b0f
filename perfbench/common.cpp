#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

namespace perfbench {

Trace::Span::Span(Trace& trace, const char* name) : trace_(trace) {
  trace_.stack_.push_back({name, Clock::now(), 0.0});
}

Trace::Span::~Span() {
  const Open open = trace_.stack_.back();
  trace_.stack_.pop_back();
  const double total = ms_between(open.start, Clock::now());
  auto it = trace_.self_ms_.find(std::string_view(open.name));
  if (it == trace_.self_ms_.end())
    it = trace_.self_ms_.emplace(open.name, 0.0).first;
  it->second += total - open.child_ms;
  if (!trace_.stack_.empty()) trace_.stack_.back().child_ms += total;
}

void Trace::add(std::string_view name, std::uint64_t n) {
  auto it = counts_.find(name);
  if (it == counts_.end()) it = counts_.emplace(std::string(name), 0).first;
  it->second += n;
}

void Trace::merge(const Trace& other) {
  for (const auto& [name, ms] : other.self_ms_) self_ms_[name] += ms;
  for (const auto& [name, n] : other.counts_) counts_[name] += n;
}

double Trace::self_ms(const std::string& name) const {
  const auto it = self_ms_.find(name);
  return it == self_ms_.end() ? 0.0 : it->second;
}

std::uint64_t Trace::count(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0 : it->second;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double median(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> v = values;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string stable_fields(const explframe::attack::CampaignReport& r) {
  std::ostringstream out;
  const auto bytes = [&](const std::vector<std::uint8_t>& key) {
    for (const std::uint8_t b : key) out << static_cast<int>(b) << '.';
    out << ' ';
  };
  out << static_cast<int>(r.cipher) << ' ' << r.template_found << ' '
      << r.rows_scanned << ' ' << r.flips_found << ' ' << r.chosen.page_va
      << ' ' << r.chosen.offset << ' ' << static_cast<int>(r.chosen.bit) << ' '
      << r.chosen.to_one << ' ' << r.chosen.aggressor_lo << ' '
      << r.chosen.aggressor_hi << ' ' << r.table_index << ' '
      << static_cast<int>(r.fault_mask) << ' ' << r.steered << ' '
      << r.planted_pfn << ' ' << r.victim_table_pfn << ' ' << r.fault_injected
      << ' ' << r.fault_as_predicted << ' ' << r.ciphertexts_used << ' '
      << r.residual_search << ' ' << r.key_recovered << ' ';
  bytes(r.recovered_key);
  bytes(r.victim_key);
  out << r.success << ' ' << r.total_time << ' ' << r.template_time;
  return out.str();
}

std::uint64_t fnv1a(const std::string& bytes, std::uint64_t hash) {
  for (const unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint32_t worker_count(const Options& options) {
  if (options.workers > 0) return options.workers;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::uint32_t>(hw, 1, 4);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

}  // namespace perfbench
