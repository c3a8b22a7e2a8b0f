// Physical-address <-> DRAM-coordinate translation.
//
// Two schemes are provided:
//  * kRowMajor — column bits low, then bank, rank, channel, row high. A 4 KiB
//    page frame lies entirely inside one DRAM row; consecutive rows of a bank
//    are far apart in physical address space (as on real parts without
//    channel interleaving).
//  * kBankXor — same bit layout but the bank index is XOR-hashed with the low
//    row bits, modelling Intel's rank/bank address hashing. This is what
//    makes naive "phys addr / row size" adjacency reasoning fail on real
//    machines and why attackers need the row-buffer timing channel.
#pragma once

#include <cstdint>

#include "dram/geometry.hpp"

namespace explframe::dram {

/// Physical-address-to-DRAM-coordinate scheme: linear row-major or the
/// XOR bank hash real controllers use to spread row hits.
enum class MappingScheme {
  kRowMajor,
  kBankXor,
};

/// Bijective mapping between physical addresses [0, total_bytes) and DRAM
/// coordinates. All widths must be powers of two.
class AddressMapping {
 public:
  AddressMapping(const Geometry& geometry, MappingScheme scheme);

  DramAddress decode(PhysAddr addr) const noexcept;
  PhysAddr encode(const DramAddress& coord) const noexcept;

  const Geometry& geometry() const noexcept { return geometry_; }
  MappingScheme scheme() const noexcept { return scheme_; }

  /// Physical address of byte `col` of the row `delta` rows away from the
  /// row containing `addr`, in the same bank. Returns false if out of range.
  bool neighbor_row_addr(PhysAddr addr, std::int32_t delta, std::uint32_t col,
                         PhysAddr& out) const noexcept;

 private:
  Geometry geometry_;
  MappingScheme scheme_;
  std::uint32_t col_bits_;
  std::uint32_t bank_bits_;
  std::uint32_t rank_bits_;
  std::uint32_t channel_bits_;
  std::uint32_t row_bits_;

  std::uint32_t bank_hash(std::uint32_t bank, std::uint32_t row) const noexcept;
};

}  // namespace explframe::dram
