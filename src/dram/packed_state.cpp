#include "dram/packed_state.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace explframe::dram {

// ---- DisturbanceTable ------------------------------------------------------

DisturbanceTable::Counters DisturbanceTable::touch(std::size_t ordinal) {
  if (tag_.empty()) {
    above_.assign(rows_, 0);
    below_.assign(rows_, 0);
    tag_.assign(rows_, 0);
  }
  if (tag_[ordinal] != window_) {
    tag_[ordinal] = window_;
    above_[ordinal] = 0;
    below_[ordinal] = 0;
    touched_.push_back(static_cast<std::uint32_t>(ordinal));
  }
  return {above_[ordinal], below_[ordinal]};
}

void DisturbanceTable::clear_window() noexcept {
  touched_.clear();
  if (++window_ == 0) {
    // Epoch wrap (once per 2^32 refreshes): stale tags could alias the
    // recycled window id, so hard-reset the tags.
    std::fill(tag_.begin(), tag_.end(), 0);
    window_ = 1;
  }
}

std::vector<DisturbanceTable::Entry> DisturbanceTable::capture() const {
  std::vector<Entry> entries;
  entries.reserve(touched_.size());
  for (const std::uint32_t ordinal : touched_)
    entries.push_back({ordinal, above_[ordinal], below_[ordinal]});
  return entries;
}

void DisturbanceTable::restore(std::span<const Entry> entries) {
  clear_window();
  for (const Entry& e : entries) {
    const Counters c = touch(e.ordinal);
    c.above = e.above;
    c.below = e.below;
  }
}

// ---- TrrSampler ------------------------------------------------------------

std::size_t TrrSampler::find(std::uint64_t row) const noexcept {
  for (std::size_t i = 0; i < rows_.size(); ++i)
    if (rows_[i] == row) return i;
  return kNpos;
}

std::size_t TrrSampler::insert(std::uint64_t row) {
  if (rows_.size() >= capacity_ && !rows_.empty()) {
    std::size_t coldest = 0;
    for (std::size_t i = 1; i < rows_.size(); ++i)
      if (counts_[i] < counts_[coldest] ||
          (counts_[i] == counts_[coldest] && rows_[i] < rows_[coldest]))
        coldest = i;
    rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(coldest));
    counts_.erase(counts_.begin() + static_cast<std::ptrdiff_t>(coldest));
  }
  rows_.push_back(row);
  counts_.push_back(0);
  return rows_.size() - 1;
}

bool operator==(const TrrSampler& a, const TrrSampler& b) {
  if (a.capacity_ != b.capacity_ || a.rows_.size() != b.rows_.size())
    return false;
  auto sorted = [](const TrrSampler& s) {
    std::vector<std::pair<std::uint64_t, std::uint32_t>> v;
    v.reserve(s.rows_.size());
    for (std::size_t i = 0; i < s.rows_.size(); ++i)
      v.emplace_back(s.rows_[i], s.counts_[i]);
    std::sort(v.begin(), v.end());
    return v;
  };
  return sorted(a) == sorted(b);
}

// ---- LiveFlipTable ---------------------------------------------------------

void LiveFlipTable::add(std::uint64_t row, std::uint32_t col,
                        std::uint8_t bit) {
  const auto it = std::upper_bound(rows_.begin(), rows_.end(), row);
  const std::size_t pos = static_cast<std::size_t>(it - rows_.begin());
  rows_.insert(it, row);
  cols_.insert(cols_.begin() + static_cast<std::ptrdiff_t>(pos), col);
  bits_.insert(bits_.begin() + static_cast<std::ptrdiff_t>(pos), bit);
}

void LiveFlipTable::erase_cols(std::uint64_t row, std::uint64_t col,
                               std::uint64_t len) {
  const Range r = row_range(row);
  if (r.begin == r.end) return;
  std::size_t out = r.begin;
  for (std::size_t i = r.begin; i < r.end; ++i) {
    if (cols_[i] >= col && cols_[i] < col + len) continue;  // dropped
    rows_[out] = rows_[i];
    cols_[out] = cols_[i];
    bits_[out] = bits_[i];
    ++out;
  }
  if (out == r.end) return;
  rows_.erase(rows_.begin() + static_cast<std::ptrdiff_t>(out),
              rows_.begin() + static_cast<std::ptrdiff_t>(r.end));
  cols_.erase(cols_.begin() + static_cast<std::ptrdiff_t>(out),
              cols_.begin() + static_cast<std::ptrdiff_t>(r.end));
  bits_.erase(bits_.begin() + static_cast<std::ptrdiff_t>(out),
              bits_.begin() + static_cast<std::ptrdiff_t>(r.end));
}

LiveFlipTable::Range LiveFlipTable::row_range(
    std::uint64_t row) const noexcept {
  const auto lo = std::lower_bound(rows_.begin(), rows_.end(), row);
  const auto hi = std::upper_bound(lo, rows_.end(), row);
  return {static_cast<std::size_t>(lo - rows_.begin()),
          static_cast<std::size_t>(hi - rows_.begin())};
}

}  // namespace explframe::dram
