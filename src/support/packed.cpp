#include "support/packed.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace explframe {

// ---- PackedVector ----------------------------------------------------------

PackedVector::PackedVector(unsigned bits) : bits_(bits) {
  EXPLFRAME_CHECK_MSG(bits >= 1 && bits <= 64,
                      "PackedVector field width must be 1..64 bits");
  mask_ = bits == 64 ? ~0ull : (1ull << bits) - 1;
}

std::uint64_t PackedVector::get(std::size_t i) const {
  EXPLFRAME_CHECK(i < size_);
  const std::size_t off = i * bits_;
  const std::size_t word = off / 64;
  const unsigned shift = static_cast<unsigned>(off % 64);
  std::uint64_t value = words_[word] >> shift;
  if (shift + bits_ > 64) value |= words_[word + 1] << (64 - shift);
  return value & mask_;
}

void PackedVector::set(std::size_t i, std::uint64_t value) {
  EXPLFRAME_CHECK(i < size_);
  EXPLFRAME_CHECK_MSG(value <= mask_,
                      "PackedVector: value exceeds field width");
  const std::size_t off = i * bits_;
  const std::size_t word = off / 64;
  const unsigned shift = static_cast<unsigned>(off % 64);
  words_[word] = (words_[word] & ~(mask_ << shift)) | (value << shift);
  if (shift + bits_ > 64) {
    const unsigned spill = static_cast<unsigned>(shift + bits_ - 64);
    const std::uint64_t high_mask = (1ull << spill) - 1;
    words_[word + 1] =
        (words_[word + 1] & ~high_mask) | (value >> (64 - shift));
  }
}

void PackedVector::push_back(std::uint64_t value) {
  EXPLFRAME_CHECK_MSG(value <= mask_,
                      "PackedVector: value exceeds field width");
  ++size_;
  if (words_for(size_, bits_) > words_.size())
    words_.resize(words_for(size_, bits_), 0);
  set(size_ - 1, value);
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

void PackedVector::insert(std::size_t pos, std::uint64_t value) {
  EXPLFRAME_CHECK(pos <= size_);
  push_back(0);  // width-checks `value` via the set() below
  for (std::size_t i = size_ - 1; i > pos; --i) set(i, get(i - 1));
  set(pos, value);
}

void PackedVector::erase(std::size_t pos, std::size_t count) {
  EXPLFRAME_CHECK(pos <= size_ && count <= size_ - pos);
  for (std::size_t i = pos; i + count < size_; ++i) set(i, get(i + count));
  size_ -= count;
  words_.resize(words_for(size_, bits_));
}

void PackedVector::resize(std::size_t count) {
  const std::size_t old = size_;
  size_ = count;
  words_.resize(words_for(count, bits_), 0);
  // Zero any tail bits a previous, larger size left behind.
  for (std::size_t i = old; i < count; ++i) set(i, 0);
}

void PackedVector::reserve(std::size_t count) {
  words_.reserve(words_for(count, bits_));
}

bool operator==(const PackedVector& a, const PackedVector& b) {
  if (a.bits_ != b.bits_ || a.size_ != b.size_) return false;
  for (std::size_t i = 0; i < a.size_; ++i)
    if (a.get(i) != b.get(i)) return false;
  return true;
}

// ---- RowIndex --------------------------------------------------------------

RowIndex::RowIndex(std::span<const std::uint64_t> sorted_keys,
                   std::uint64_t key_limit)
    : key_limit_(key_limit),
      keys_(sorted_keys.size()),
      in_block_(kBlockBits) {
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
  dir_.assign(static_cast<std::size_t>(blocks), kAbsentBlock);
  in_block_.reserve(keys_);

  std::uint64_t prev = 0;
  bool first = true;
  for (const std::uint64_t key : sorted_keys) {
    EXPLFRAME_CHECK_MSG(key < key_limit, "RowIndex: key out of universe");
    EXPLFRAME_CHECK_MSG(first || key > prev,
                        "RowIndex: keys must be strictly increasing");
    first = false;
    prev = key;
    const std::uint32_t block = static_cast<std::uint32_t>(key >> kBlockBits);
    const std::uint64_t within = key & (kBlockSize - 1);
    if (dir_[block] == kAbsentBlock) {
      dir_[block] = static_cast<std::uint32_t>(block_id_.size());
      block_id_.push_back(block);
      start_.push_back(static_cast<std::uint32_t>(in_block_.size()));
      coarse_.push_back(0);
    }
    coarse_.back() |= 1ull << (within >> 3);
    in_block_.push_back(within);
  }
  start_.push_back(static_cast<std::uint32_t>(in_block_.size()));
}

bool RowIndex::contains(std::uint64_t key) const noexcept {
  return find(key) != kNpos;
}

std::size_t RowIndex::find(std::uint64_t key) const noexcept {
  if (keys_ == 0 || key >= key_limit_) return kNpos;
  const std::uint32_t slot = dir_[static_cast<std::size_t>(key >> kBlockBits)];
  if (slot == kAbsentBlock) return kNpos;
  const std::uint64_t within = key & (kBlockSize - 1);
  if (((coarse_[slot] >> (within >> 3)) & 1ull) == 0) return kNpos;
  std::size_t lo = start_[slot];
  std::size_t hi = start_[slot + 1];
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint64_t v = in_block_.get(mid);
    if (v == within) return mid;
    if (v < within) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return kNpos;
}

std::size_t RowIndex::ordinal(std::uint64_t key) const {
  const std::size_t o = find(key);
  EXPLFRAME_CHECK_MSG(o != kNpos, "RowIndex: key not present");
  return o;
}

std::uint64_t RowIndex::key_at(std::size_t ordinal) const {
  EXPLFRAME_CHECK(ordinal < keys_);
  // The occupied block whose [start, end) ordinal range holds `ordinal`.
  const auto it = std::upper_bound(start_.begin(), start_.end(),
                                   static_cast<std::uint32_t>(ordinal));
  const std::size_t slot = static_cast<std::size_t>(it - start_.begin()) - 1;
  return static_cast<std::uint64_t>(block_id_[slot]) * kBlockSize +
         in_block_.get(ordinal);
}

std::uint64_t RowIndex::heap_bytes() const noexcept {
  return dir_.capacity() * sizeof(std::uint32_t) +
         block_id_.capacity() * sizeof(std::uint32_t) +
         start_.capacity() * sizeof(std::uint32_t) +
         coarse_.capacity() * sizeof(std::uint64_t) + in_block_.heap_bytes();
}

bool operator==(const RowIndex& a, const RowIndex& b) {
  if (a.key_limit_ != b.key_limit_ || a.keys_ != b.keys_) return false;
  for (std::size_t i = 0; i < a.keys_; ++i)
    if (a.key_at(i) != b.key_at(i)) return false;
  return true;
}

}  // namespace explframe
