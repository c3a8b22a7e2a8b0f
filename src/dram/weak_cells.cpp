#include "dram/weak_cells.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>

#include "support/check.hpp"
#include "support/units.hpp"

namespace explframe::dram {
std::uint64_t WeakCellModel::encode_couple(float above, float below) {
  std::uint32_t mantissa = 0;
  bool have_mantissa = false;
  const auto side = [&](float v) -> std::uint64_t {
    if (v == 0.0F) return 0;
    if (v == 1.0F) return 1;
    const auto raw = std::bit_cast<std::uint32_t>(v);
    EXPLFRAME_CHECK_MSG((raw >> 23) == kFracExponent,
                        "weak-cell coupling outside {0, 1} U [0.5, 1)");
    const std::uint32_t m = raw & kMantissaMask;
    EXPLFRAME_CHECK_MSG(!have_mantissa || m == mantissa,
                        "weak-cell coupling: two distinct fractional sides");
    mantissa = m;
    have_mantissa = true;
    return 2;
  };
  const std::uint64_t a = side(above);
  const std::uint64_t b = side(below);
  return (a << 25) | (b << 23) | mantissa;
}

WeakCell WeakCellSpan::Iterator::operator*() const {
  return model_->cell_at(pos_);
}

WeakCell WeakCellSpan::operator[](std::size_t i) const {
  return model_->cell_at(begin_ + i);
}

WeakCellModel::WeakCellModel(const Geometry& geometry,
                             const WeakCellParams& params, std::uint64_t seed)
    : params_(params) {
  EXPLFRAME_CHECK(params.cells_per_mib >= 0.0);
  Rng rng(seed ^ 0xdead5eedULL);

  const double expected =
      params.cells_per_mib *
      (static_cast<double>(geometry.total_bytes()) / static_cast<double>(kMiB));
  // Sample the population count from Poisson via normal approximation for
  // large means, exact inversion for small.
  std::size_t count;
  if (expected > 64.0) {
    count = static_cast<std::size_t>(std::max(
        0.0, std::round(rng.normal(expected, std::sqrt(expected)))));
  } else {
    // Knuth's algorithm.
    const double limit = std::exp(-expected);
    double prod = rng.uniform01();
    count = 0;
    while (prod > limit) {
      ++count;
      prod *= rng.uniform01();
    }
  }

  const std::uint64_t rows = geometry.total_rows();
  std::vector<std::pair<std::uint64_t, WeakCell>> staged;
  staged.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    WeakCell cell;
    cell.col = static_cast<std::uint32_t>(rng.uniform(geometry.row_bytes));
    cell.bit = static_cast<std::uint8_t>(rng.uniform(8));
    const double t =
        std::exp(rng.normal(params.threshold_log_mean, params.threshold_log_sigma));
    cell.threshold = static_cast<std::uint32_t>(std::clamp<double>(
        t, params.threshold_min, params.threshold_max));
    cell.true_cell = rng.bernoulli(params.true_cell_fraction);
    if (rng.bernoulli(params.single_sided_fraction)) {
      if (rng.bernoulli(0.5)) {
        cell.couple_above = 1.0F;
        cell.couple_below = 0.0F;
      } else {
        cell.couple_above = 0.0F;
        cell.couple_below = 1.0F;
      }
    } else {
      // Both sides couple; the weaker side still contributes.
      cell.couple_above = 1.0F;
      cell.couple_below =
          static_cast<float>(0.5 + 0.5 * rng.uniform01());
      if (rng.bernoulli(0.5)) std::swap(cell.couple_above, cell.couple_below);
    }
    staged.emplace_back(rng.uniform(rows), cell);
  }
  build(geometry, staged);
}

WeakCellModel::WeakCellModel(
    const Geometry& geometry, const WeakCellParams& params,
    std::span<const std::pair<std::uint64_t, WeakCell>> cells)
    : params_(params) {
  build(geometry, cells);
}

void WeakCellModel::build(
    const Geometry& geometry,
    std::span<const std::pair<std::uint64_t, WeakCell>> staged) {
  const std::uint64_t total_rows = geometry.total_rows();
  EXPLFRAME_CHECK_MSG(total_rows <= (1ull << kRowBits),
                      "geometry exceeds the 40-bit flat-row space");
  // One bound covers both the u32 sort indices and the u32 row_start_
  // offsets: the kept cells are a subset of the staged ones.
  EXPLFRAME_CHECK_MSG(
      staged.size() <= std::numeric_limits<std::uint32_t>::max(),
      "weak-cell population exceeds 32-bit arena offsets");

  // Canonical arena order: ascending row, presentation order within a row
  // (matching the seed layout's per-row insertion order, which the golden
  // flip logs depend on). A stable LSD radix sort of u32 indices into
  // `staged`, kDigitBits of the row per pass, as many passes as the
  // largest flat row needs; one sweep counts every pass's digits.
  constexpr unsigned kDigitBits = 11;
  constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
  const unsigned passes =
      (std::bit_width(std::max<std::uint64_t>(total_rows, 1) - 1) +
       kDigitBits - 1) /
      kDigitBits;
  std::vector<std::uint32_t> starts(passes * kBuckets, 0);
  for (const auto& entry : staged) {
    const std::uint64_t row = entry.first;
    EXPLFRAME_CHECK_MSG(row < total_rows, "weak-cell row outside the geometry");
    for (unsigned p = 0; p < passes; ++p)
      ++starts[p * kBuckets + ((row >> (p * kDigitBits)) & (kBuckets - 1))];
  }
  std::vector<std::uint32_t> order(staged.size());
  std::iota(order.begin(), order.end(), 0u);
  {
    std::vector<std::uint32_t> sorted(staged.size());
    for (unsigned p = 0; p < passes; ++p) {
      const auto start = std::span(starts).subspan(p * kBuckets, kBuckets);
      std::exclusive_scan(start.begin(), start.end(), start.begin(), 0u);
      const unsigned shift = p * kDigitBits;
      for (const std::uint32_t i : order)
        sorted[start[(staged[i].first >> shift) & (kBuckets - 1)]++] = i;
      order.swap(sorted);
    }
  }

  // Keep the first occurrence of each (col, bit) within a row — identical
  // to the seed layout's skip-at-insert dedup — by compacting `order` to
  // the kept indices in place.
  std::size_t kept = 0;
  std::size_t run_begin = 0;  // first kept entry of the current row
  std::size_t row_count = 0;
  for (const std::uint32_t i : order) {
    const auto& [row, cell] = staged[i];
    if (kept == 0 || staged[order[kept - 1]].first != row) {
      run_begin = kept;
      ++row_count;
    }
    const bool dup = std::any_of(
        order.begin() + static_cast<std::ptrdiff_t>(run_begin),
        order.begin() + static_cast<std::ptrdiff_t>(kept),
        [&](std::uint32_t j) {
          return staged[j].second.col == cell.col &&
                 staged[j].second.bit == cell.bit;
        });
    if (!dup) order[kept++] = i;
  }
  order.resize(kept);

  std::vector<std::uint64_t> rows;
  rows.reserve(row_count);
  row_start_.reserve(row_count + 1);
  for (std::size_t k = 0; k < kept; ++k) {
    const std::uint64_t row = staged[order[k]].first;
    if (rows.empty() || rows.back() != row) {
      rows.push_back(row);
      row_start_.push_back(static_cast<std::uint32_t>(k));
    }
  }
  row_start_.push_back(static_cast<std::uint32_t>(kept));
  rows_ = RowIndex(rows, total_rows);

  // One bulk store per packed field, through a single reused value buffer.
  std::vector<std::uint64_t> values(kept);
  const auto store = [&](PackedVector& field, auto value_of) {
    for (std::size_t k = 0; k < kept; ++k)
      values[k] = value_of(staged[order[k]].second);
    field.assign(values);
  };
  store(col_, [](const WeakCell& c) { return c.col; });
  // After the width CHECK, so a col at or past 2^28 reports saturation.
  EXPLFRAME_CHECK_MSG(
      std::all_of(values.begin(), values.end(),
                  [&](std::uint64_t col) { return col < geometry.row_bytes; }),
      "weak-cell col outside the row");
  store(bit_, [](const WeakCell& c) { return c.bit; });
  store(threshold_, [](const WeakCell& c) { return c.threshold; });
  store(polarity_, [](const WeakCell& c) { return c.true_cell ? 1 : 0; });
  store(couple_, [](const WeakCell& c) {
    return encode_couple(c.couple_above, c.couple_below);
  });
  total_ = kept;
}

WeakCellSpan WeakCellModel::cells_in_row(std::uint64_t flat_row) const {
  const std::size_t o = rows_.find(flat_row);
  if (o == RowIndex::kNpos) return {};
  return cells_of(o);
}

std::vector<std::uint64_t> WeakCellModel::vulnerable_rows() const {
  std::vector<std::uint64_t> rows;
  rows.reserve(rows_.size());
  for (std::size_t o = 0; o < rows_.size(); ++o) rows.push_back(rows_.key_at(o));
  return rows;
}

WeakCell WeakCellModel::cell_at(std::size_t ordinal) const {
  WeakCell cell;
  cell.col = static_cast<std::uint32_t>(col_.get(ordinal));
  cell.bit = static_cast<std::uint8_t>(bit_.get(ordinal));
  cell.threshold = static_cast<std::uint32_t>(threshold_.get(ordinal));
  cell.true_cell = polarity_.get(ordinal) != 0;
  cell.couple_above = couple_above_at(ordinal);
  cell.couple_below = couple_below_at(ordinal);
  return cell;
}

std::uint64_t WeakCellModel::state_bytes() const noexcept {
  return rows_.heap_bytes() +
         row_start_.capacity() * sizeof(std::uint32_t) + col_.heap_bytes() +
         bit_.heap_bytes() + threshold_.heap_bytes() + polarity_.heap_bytes() +
         couple_.heap_bytes();
}

}  // namespace explframe::dram
