#include "support/packed.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace explframe {

// ---- PackedVector ----------------------------------------------------------

PackedVector::PackedVector(unsigned bits) : bits_(bits) {
  EXPLFRAME_CHECK_MSG(bits >= 1 && bits <= 64,
                      "PackedVector field width must be 1..64 bits");
  mask_ = bits == 64 ? ~0ull : (1ull << bits) - 1;
}

void PackedVector::assign(std::span<const std::uint64_t> values) {
  const std::size_t words = words_for(values.size(), bits_);
  words_.clear();
  words_.reserve(words);
  words_.resize(words, 0);
  size_ = values.size();
  std::size_t off = 0;
  for (const std::uint64_t value : values) {
    EXPLFRAME_CHECK_MSG(value <= mask_,
                        "PackedVector: value exceeds field width");
    const std::size_t word = off / 64;
    const unsigned shift = static_cast<unsigned>(off % 64);
    words_[word] |= value << shift;
    if (shift + bits_ > 64) words_[word + 1] |= value >> (64 - shift);
    off += bits_;
  }
}

// ---- RowIndex --------------------------------------------------------------

RowIndex::RowIndex(std::span<const std::uint64_t> sorted_keys,
                   std::uint64_t key_limit)
    : key_limit_(key_limit), keys_(sorted_keys.size()) {
  EXPLFRAME_CHECK_MSG(sorted_keys.empty() || key_limit > 0,
                      "RowIndex: keys in an empty universe");
  EXPLFRAME_CHECK_MSG(keys_ < kAbsentBlock,
                      "RowIndex: key count exceeds 32-bit ordinals");
  const std::uint64_t blocks = (key_limit + kBlockSize - 1) / kBlockSize;
  EXPLFRAME_CHECK_MSG(blocks <= kAbsentBlock,
                      "RowIndex: key universe exceeds 32-bit block numbers");
  if (keys_ == 0) {
    start_.push_back(0);  // no keys: no directory, every lookup misses
    return;
  }

  // Validate and count occupied blocks and groups, so every level is
  // allocated at its exact size.
  std::size_t occupied_blocks = 0;
  std::size_t occupied_groups = 0;
  for (std::size_t i = 0; i < keys_; ++i) {
    const std::uint64_t key = sorted_keys[i];
    EXPLFRAME_CHECK_MSG(key < key_limit, "RowIndex: key out of universe");
    EXPLFRAME_CHECK_MSG(i == 0 || key > sorted_keys[i - 1],
                        "RowIndex: keys must be strictly increasing");
    const std::uint64_t prev = i == 0 ? ~0ull : sorted_keys[i - 1];
    occupied_blocks += (key >> kBlockBits) != (prev >> kBlockBits);
    occupied_groups += (key >> kGroupBits) != (prev >> kGroupBits);
  }
  dir_.assign(static_cast<std::size_t>(blocks), kAbsentBlock);
  block_id_.reserve(occupied_blocks);
  start_.reserve(occupied_blocks + 1);
  coarse_.reserve(occupied_blocks);
  fine_start_.reserve(occupied_blocks);
  fine_.reserve(occupied_groups + kMaskPad);

  std::uint64_t prev = ~0ull;
  for (std::size_t i = 0; i < keys_; ++i) {
    const std::uint64_t key = sorted_keys[i];
    const auto block = static_cast<std::uint32_t>(key >> kBlockBits);
    if (dir_[block] == kAbsentBlock) {
      dir_[block] = static_cast<std::uint32_t>(block_id_.size());
      block_id_.push_back(block);
      start_.push_back(static_cast<std::uint32_t>(i));
      coarse_.push_back(0);
      fine_start_.push_back(static_cast<std::uint32_t>(fine_.size()));
    }
    if ((key >> kGroupBits) != (prev >> kGroupBits)) fine_.push_back(0);
    coarse_.back() |= 1ull << ((key >> kGroupBits) & 63);
    fine_.back() = static_cast<std::uint8_t>(fine_.back() | (1u << (key & 7)));
    prev = key;
  }
  start_.push_back(static_cast<std::uint32_t>(keys_));
  fine_.resize(occupied_groups + kMaskPad, 0);
}

std::uint64_t RowIndex::key_at(std::size_t ordinal) const {
  EXPLFRAME_CHECK(ordinal < keys_);
  // The occupied block whose [start, end) ordinal range holds `ordinal`.
  const auto it = std::upper_bound(start_.begin(), start_.end(),
                                   static_cast<std::uint32_t>(ordinal));
  const std::size_t slot = static_cast<std::size_t>(it - start_.begin()) - 1;
  // Walk its occupied groups to the one holding the rank, then that
  // mask's set bits to the key.
  std::size_t rank = ordinal - start_[slot];
  const std::uint8_t* mask = fine_.data() + fine_start_[slot];
  std::uint64_t groups = coarse_[slot];
  while (rank >= popcount64(*mask)) {
    rank -= popcount64(*mask);
    groups &= groups - 1;
    ++mask;
  }
  unsigned bits = *mask;
  for (; rank > 0; --rank) bits &= bits - 1;
  return static_cast<std::uint64_t>(block_id_[slot]) * kBlockSize +
         static_cast<std::uint64_t>(std::countr_zero(groups)) * 8 +
         static_cast<unsigned>(std::countr_zero(bits));
}

std::uint64_t RowIndex::heap_bytes() const noexcept {
  return dir_.capacity() * sizeof(std::uint32_t) +
         block_id_.capacity() * sizeof(std::uint32_t) +
         start_.capacity() * sizeof(std::uint32_t) +
         coarse_.capacity() * sizeof(std::uint64_t) +
         fine_start_.capacity() * sizeof(std::uint32_t) + fine_.capacity();
}

}  // namespace explframe
