// Disturbance-prone ("weak") DRAM cell population.
//
// Kim et al. (ISCA'14) measured that a small, module-dependent fraction of
// cells flip when a neighbouring row is activated more than a per-cell
// threshold number of times within one refresh window; thresholds cluster
// around 50K-140K activations, the flip direction depends on whether the
// cell is a true-cell (charged = 1, flips 1->0) or anti-cell (charged = 0,
// flips 0->1), and flips are strongly repeatable at the same cell.
//
// WeakCellModel samples such a population deterministically from a seed and
// stores it as one bit-packed SoA arena sorted by flat row: a RowIndex maps
// vulnerable rows to dense ordinals in O(1), per-row spans address
// contiguous record runs (cells_of(ordinal) reads one without a second
// lookup), and each field lives in its own PackedVector at exactly the
// width the domain needs (col:28, bit:3, threshold:19, polarity:1,
// coupling:27). The seed layout — an unordered_map of heap vectors — cost
// ~100 bytes of node overhead per cell; the arena costs ~10 bytes per cell
// with no dense per-row floor, which is what lets multi-GB geometries fit.
//
// The build is linear in the cell count: a stable LSD radix sort of u32
// indices by flat row (11 bits per pass, as many passes as the largest row
// needs), so each row keeps its sampling order; an in-place keep-the-first
// dedup of each row's (col, bit); and one PackedVector::assign per field.
// Its scratch memory, the sampled (row, cell) list included, stays under
// 64 bytes per cell.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dram/geometry.hpp"
#include "support/packed.hpp"
#include "support/rng.hpp"

namespace explframe::dram {

/// One disturbance-prone cell within a row (decoded view; the model stores
/// cells bit-packed, not as this struct).
struct WeakCell {
  std::uint32_t col = 0;     ///< Byte offset within the row.
  std::uint8_t bit = 0;      ///< Bit index within the byte, 0..7.
  std::uint32_t threshold = 0;  ///< Activations-within-window needed to flip.
  bool true_cell = true;     ///< true: flips 1->0; false (anti): flips 0->1.
  /// Sensitivity to each aggressor side; double-sided hammering sums both.
  /// Values in [0,1]; at least one side is 1.0.
  float couple_above = 1.0F;  ///< Coupling to row-1 (the row above).
  float couple_below = 1.0F;  ///< Coupling to row+1 (the row below).
};

/// Statistical model of the module's Rowhammer-vulnerable cell
/// population: density, threshold distribution and polarity mix.
struct WeakCellParams {
  /// Expected weak cells per MiB of DRAM. Kim'14 observed 0.05 - 10^4 errors
  /// per 2^30 cells depending on module; the default (4/MiB ~ 4096/GiB)
  /// models a typically vulnerable DDR3 part.
  double cells_per_mib = 4.0;
  /// Log-normal threshold distribution parameters (median ~ 60K activations).
  double threshold_log_mean = 11.0;   ///< ln(60K) ~ 11.0
  double threshold_log_sigma = 0.35;
  std::uint32_t threshold_min = 25'000;
  std::uint32_t threshold_max = 400'000;
  /// Fraction of weak cells that are true-cells.
  double true_cell_fraction = 0.55;
  /// Fraction of weak cells coupled to only one neighbour side.
  double single_sided_fraction = 0.30;

  bool operator==(const WeakCellParams&) const = default;
};

class WeakCellModel;

/// Lightweight view over one row's contiguous run of arena records.
/// Indexing decodes a WeakCell by value; `ordinal(i)` exposes the global
/// arena ordinal so hot paths can read single fields without decoding.
class WeakCellSpan {
 public:
  /// Forward iterator yielding decoded WeakCell values.
  class Iterator {
   public:
    /// Decoded record at the current position.
    WeakCell operator*() const;
    /// Advance to the next record.
    Iterator& operator++() noexcept {
      ++pos_;
      return *this;
    }
    /// Position equality (same span assumed).
    bool operator!=(const Iterator& other) const noexcept {
      return pos_ != other.pos_;
    }

   private:
    friend class WeakCellSpan;
    Iterator(const WeakCellModel* model, std::size_t pos) noexcept
        : model_(model), pos_(pos) {}
    const WeakCellModel* model_;
    std::size_t pos_;
  };

  /// An empty span (no backing model).
  WeakCellSpan() = default;

  /// Number of weak cells in the row.
  std::size_t size() const noexcept { return end_ - begin_; }
  /// True when the row has no weak cells.
  bool empty() const noexcept { return begin_ == end_; }
  /// Decoded `i`-th cell of the row (CHECK via arena bounds).
  WeakCell operator[](std::size_t i) const;
  /// Global arena ordinal of the `i`-th cell (for per-field access).
  std::size_t ordinal(std::size_t i) const noexcept { return begin_ + i; }
  /// Iteration over decoded cells.
  Iterator begin() const noexcept { return Iterator(model_, begin_); }
  /// Past-the-end iterator.
  Iterator end() const noexcept { return Iterator(model_, end_); }

 private:
  friend class WeakCellModel;
  WeakCellSpan(const WeakCellModel* model, std::size_t begin,
               std::size_t end) noexcept
      : model_(model), begin_(begin), end_(end) {}
  const WeakCellModel* model_ = nullptr;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

/// Immutable population of weak cells stored as a bit-packed SoA arena
/// sorted by flat row, with a two-level RowIndex directory for row lookup.
class WeakCellModel {
 public:
  /// Packed field widths. Out-of-range values CHECK at construction —
  /// never silently truncated — and so do rows outside the geometry and
  /// cols at or past `row_bytes`.
  static constexpr unsigned kRowBits = 40;
  static constexpr unsigned kColBits = 28;        ///< byte offset in row
  static constexpr unsigned kBitBits = 3;         ///< bit index 0..7
  static constexpr unsigned kThresholdBits = 19;  ///< activations, < 2^19
  static constexpr unsigned kCoupleBits = 27;     ///< 2+2 codes + mantissa

  /// Sample a population deterministically from `seed`.
  WeakCellModel(const Geometry& geometry, const WeakCellParams& params,
                std::uint64_t seed);
  /// Build from an explicit (row, cell) population — the differential and
  /// property harnesses use this; the arena canonicalises row order while
  /// preserving each row's presentation order, dropping later duplicates
  /// of the same (col, bit) within a row.
  WeakCellModel(const Geometry& geometry, const WeakCellParams& params,
                std::span<const std::pair<std::uint64_t, WeakCell>> cells);

  /// Weak cells in the given row (empty span if none).
  WeakCellSpan cells_in_row(std::uint64_t flat_row) const;
  /// Weak cells of the `row_ordinal`-th vulnerable row — the ordinal
  /// row_index().find() returned, so a caller that already holds it skips
  /// the directory (never empty; unchecked: row_ordinal < row count).
  WeakCellSpan cells_of(std::size_t row_ordinal) const noexcept {
    return {this, row_start_[row_ordinal], row_start_[row_ordinal + 1]};
  }

  /// Total cells across all rows.
  std::size_t total_cells() const noexcept { return total_; }
  /// The sampling parameters this population was drawn from.
  const WeakCellParams& params() const noexcept { return params_; }

  /// Rows that contain at least one weak cell, ascending (derived from the
  /// sorted directory — independent of construction order).
  std::vector<std::uint64_t> vulnerable_rows() const;

  /// Sorted directory mapping vulnerable rows to dense row ordinals.
  const RowIndex& row_index() const noexcept { return rows_; }

  /// Single-field arena reads for hot paths (CHECK: ordinal in range).
  std::uint32_t threshold_at(std::size_t ordinal) const {
    return static_cast<std::uint32_t>(threshold_.get(ordinal));
  }
  /// Byte offset within the row of the `ordinal`-th arena record.
  std::uint32_t col_at(std::size_t ordinal) const {
    return static_cast<std::uint32_t>(col_.get(ordinal));
  }
  /// Bit index within the byte of the `ordinal`-th arena record.
  std::uint8_t bit_at(std::size_t ordinal) const {
    return static_cast<std::uint8_t>(bit_.get(ordinal));
  }
  /// Polarity of the `ordinal`-th arena record.
  bool true_cell_at(std::size_t ordinal) const {
    return polarity_.get(ordinal) != 0;
  }
  /// Coupling to the row above for the `ordinal`-th arena record.
  float couple_above_at(std::size_t ordinal) const {
    const std::uint64_t packed = couple_.get(ordinal);
    return decode_side((packed >> 25) & 3, packed & kMantissaMask);
  }
  /// Coupling to the row below for the `ordinal`-th arena record.
  float couple_below_at(std::size_t ordinal) const {
    const std::uint64_t packed = couple_.get(ordinal);
    return decode_side((packed >> 23) & 3, packed & kMantissaMask);
  }
  /// Fully decoded record (CHECK: ordinal in range).
  WeakCell cell_at(std::size_t ordinal) const;

  /// Heap bytes held by the packed arena and its directory.
  std::uint64_t state_bytes() const noexcept;

 private:
  // Coupling values are drawn from exactly three shapes: 0.0f, 1.0f, or
  // float(0.5 + 0.5*u01) in [0.5, 1.0) — the latter has a fixed biased
  // exponent of 126, so the 23 mantissa bits encode it losslessly. Each side
  // gets a 2-bit shape code (0 = zero, 1 = one, 2 = fractional; above at
  // bit 25, below at bit 23) and the two sides share one mantissa field:
  // generation never produces two distinct fractional sides, and the
  // constructor CHECKs rather than rounding if a hand-built population
  // tries.
  static constexpr std::uint32_t kFracExponent = 126;
  static constexpr std::uint32_t kMantissaMask = (1u << 23) - 1;

  /// The packed coupling field of one cell (CHECKs the shapes above).
  static std::uint64_t encode_couple(float above, float below);
  /// One side's coupling from its 2-bit code and the shared mantissa.
  static float decode_side(std::uint64_t code, std::uint64_t mantissa) {
    if (code == 0) return 0.0F;
    if (code == 1) return 1.0F;
    return std::bit_cast<float>((kFracExponent << 23) |
                                static_cast<std::uint32_t>(mantissa));
  }

  void build(const Geometry& geometry,
             std::span<const std::pair<std::uint64_t, WeakCell>> staged);

  WeakCellParams params_;
  RowIndex rows_;
  std::vector<std::uint32_t> row_start_;  ///< row ordinal -> arena begin
  PackedVector col_{kColBits};
  PackedVector bit_{kBitBits};
  PackedVector threshold_{kThresholdBits};
  PackedVector polarity_{1};
  PackedVector couple_{kCoupleBits};
  std::size_t total_ = 0;
};

}  // namespace explframe::dram
