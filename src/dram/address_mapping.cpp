#include "dram/address_mapping.hpp"

#include <bit>
#include <limits>

#include "support/check.hpp"

namespace explframe::dram {

namespace {
std::uint32_t log2_exact(std::uint64_t v, const char* what) {
  EXPLFRAME_CHECK_MSG(v != 0 && (v & (v - 1)) == 0, what);
  return static_cast<std::uint32_t>(std::countr_zero(v));
}
}  // namespace

AddressMapping::AddressMapping(const Geometry& geometry, MappingScheme scheme)
    : geometry_(geometry),
      scheme_(scheme),
      col_bits_(log2_exact(geometry.row_bytes, "row_bytes must be pow2")),
      bank_bits_(log2_exact(geometry.banks, "banks must be pow2")),
      rank_bits_(log2_exact(geometry.ranks, "ranks must be pow2")),
      channel_bits_(log2_exact(geometry.channels, "channels must be pow2")),
      row_bits_(log2_exact(geometry.rows_per_bank, "rows must be pow2")) {}

std::uint32_t AddressMapping::bank_hash(std::uint32_t bank,
                                        std::uint32_t row) const noexcept {
  if (scheme_ == MappingScheme::kRowMajor || bank_bits_ == 0) return bank;
  // XOR the low row bits into the bank index (Intel-style BA hashing). The
  // transform is an involution for fixed row, so decode/encode stay inverse.
  const std::uint32_t mask = (1u << bank_bits_) - 1;
  return bank ^ (row & mask);
}

DramAddress AddressMapping::decode(PhysAddr addr) const noexcept {
  DramAddress c;
  std::uint64_t v = addr;
  c.col = static_cast<std::uint32_t>(v & ((1ull << col_bits_) - 1));
  v >>= col_bits_;
  std::uint32_t bank_field =
      static_cast<std::uint32_t>(v & ((1ull << bank_bits_) - 1));
  v >>= bank_bits_;
  c.rank = static_cast<std::uint32_t>(v & ((1ull << rank_bits_) - 1));
  v >>= rank_bits_;
  c.channel = static_cast<std::uint32_t>(v & ((1ull << channel_bits_) - 1));
  v >>= channel_bits_;
  c.row = static_cast<std::uint32_t>(v & ((1ull << row_bits_) - 1));
  c.bank = bank_hash(bank_field, c.row);
  return c;
}

PhysAddr AddressMapping::encode(const DramAddress& coord) const noexcept {
  const std::uint32_t bank_field = bank_hash(coord.bank, coord.row);
  std::uint64_t v = coord.row;
  v = (v << channel_bits_) | coord.channel;
  v = (v << rank_bits_) | coord.rank;
  v = (v << bank_bits_) | bank_field;
  v = (v << col_bits_) | coord.col;
  return v;
}

bool AddressMapping::neighbor_row_addr(PhysAddr addr, std::int32_t delta,
                                       std::uint32_t col,
                                       PhysAddr& out) const noexcept {
  DramAddress c = decode(addr);
  const std::int64_t row = static_cast<std::int64_t>(c.row) + delta;
  if (row < 0 || row >= static_cast<std::int64_t>(geometry_.rows_per_bank))
    return false;
  c.row = static_cast<std::uint32_t>(row);
  c.col = col;
  out = encode(c);
  return true;
}

}  // namespace explframe::dram
