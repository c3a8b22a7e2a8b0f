// DRAM organisation: channels / ranks / banks / rows / columns, plus the
// coordinate type used throughout the device model.
#pragma once

#include <cstddef>
#include <cstdint>

#include "support/units.hpp"

namespace explframe::dram {

/// Physical byte address in the simulated machine.
using PhysAddr = std::uint64_t;

/// Shape of the simulated DRAM subsystem. Defaults model a single-channel
/// DDR3 DIMM with 8 banks and 8 KiB rows — the configuration attacked in
/// Kim et al. (ISCA'14) and assumed by the paper.
struct Geometry {
  std::uint32_t channels = 1;
  std::uint32_t ranks = 1;
  std::uint32_t banks = 8;
  std::uint32_t rows_per_bank = 8192;
  std::uint32_t row_bytes = 8 * kKiB;  ///< Row (page) size in bytes.

  constexpr std::uint64_t total_rows() const noexcept {
    return static_cast<std::uint64_t>(channels) * ranks * banks *
           rows_per_bank;
  }
  constexpr std::uint64_t total_bytes() const noexcept {
    return total_rows() * row_bytes;
  }
  constexpr std::uint64_t total_banks() const noexcept {
    return static_cast<std::uint64_t>(channels) * ranks * banks;
  }

  /// A geometry of the given capacity (power-of-two bytes), single channel.
  static Geometry with_capacity(std::uint64_t bytes);
};

/// Fully decoded DRAM coordinate.
struct DramAddress {
  std::uint32_t channel = 0;
  std::uint32_t rank = 0;
  std::uint32_t bank = 0;
  std::uint32_t row = 0;
  std::uint32_t col = 0;  ///< Byte offset within the row.

  friend bool operator==(const DramAddress&, const DramAddress&) = default;
};

/// Flat index of a (channel, rank, bank) triple.
constexpr std::uint64_t flat_bank(const Geometry& g,
                                  const DramAddress& a) noexcept {
  return (static_cast<std::uint64_t>(a.channel) * g.ranks + a.rank) * g.banks +
         a.bank;
}

/// Flat index of a (channel, rank, bank, row) — unique per DRAM row.
constexpr std::uint64_t flat_row(const Geometry& g,
                                 const DramAddress& a) noexcept {
  return flat_bank(g, a) * g.rows_per_bank + a.row;
}

}  // namespace explframe::dram
