#include "mm/pcp.hpp"

#include "support/check.hpp"

namespace explframe::mm {

Pfn PerCpuPageCache::take() {
  EXPLFRAME_CHECK(!state_.pages.empty());
  const Pfn pfn = state_.pages.front();
  state_.pages.pop_front();
  ++state_.stats.alloc_hits;
  return pfn;
}

bool PerCpuPageCache::put(Pfn pfn, bool cold) {
  const bool to_front = config_.lifo ? !cold : cold;
  if (to_front) {
    state_.pages.push_front(pfn);
  } else {
    state_.pages.push_back(pfn);
  }
  ++state_.stats.frees;
  return state_.pages.size() > config_.high;
}

std::vector<Pfn> PerCpuPageCache::pop_cold(std::uint32_t n) {
  std::vector<Pfn> out;
  out.reserve(n);
  while (n-- != 0 && !state_.pages.empty()) {
    out.push_back(state_.pages.back());
    state_.pages.pop_back();
  }
  if (!out.empty()) {
    ++state_.stats.drains;
    state_.stats.drained_pages += out.size();
  }
  return out;
}

void PerCpuPageCache::refill(const std::vector<Pfn>& pfns) {
  for (const Pfn p : pfns) state_.pages.push_back(p);
  if (!pfns.empty()) ++state_.stats.refills;
}

std::vector<Pfn> PerCpuPageCache::peek() const {
  return {state_.pages.begin(), state_.pages.end()};
}

}  // namespace explframe::mm
