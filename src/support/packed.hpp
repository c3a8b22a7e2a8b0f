// Bit-packed SoA building blocks for giant sparse tables.
//
// The DRAM model keeps per-row bookkeeping (weak cells, disturbance
// counters, live-flip records) whose natural keys are flat row numbers —
// multi-GB geometries have hundreds of millions of rows, of which only a
// sparse scattering carries state. The seed kept these tables as
// unordered_maps of heap vectors: ~100 bytes of node/bucket/allocator
// overhead per entry, plus a 1-byte-per-row presence array, capped the
// simulable geometry long before row payloads did.
//
// This header provides the two primitives the packed representation is
// built from (the CXCollections StrideVector idiom, generalised):
//
//   PackedVector  a build-once vector of unsigned integers stored in
//                 exactly `bits` bits each — one heap array, no
//                 per-element overhead. Out-of-range values are rejected
//                 (CHECK), never silently truncated.
//
//   RowIndex      a two-level sparse directory mapping a static sorted
//                 key set (flat rows) to dense ordinals [0, size): a
//                 per-block slot table plus, per occupied 512-key block,
//                 a 64-bit map of its occupied 8-key groups and one 8-bit
//                 presence mask per occupied group. Lookup is O(1) with
//                 no search: popcounts of at most 64 mask bytes rank a
//                 key. Memory is ~4 bytes per block, ~20 per occupied
//                 block and 1 per occupied group — no dense per-row floor.
//
// Both are filled in one pass and never mutated after, so their bytes
// depend only on the values they hold.
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "support/check.hpp"

namespace explframe {

/// Vector of unsigned integers, each stored in exactly `bits` bits
/// (1..64) within one contiguous word array, filled by assign() and read
/// by get(). assign CHECKs that each value fits the field width —
/// saturation is a caller bug, not a silent truncation.
class PackedVector {
 public:
  /// An empty 1-bit vector (for default-constructed members; assign a
  /// properly sized instance before use).
  PackedVector() = default;
  /// An empty vector with the given field width (CHECK: 1..64).
  explicit PackedVector(unsigned bits);

  /// Field width in bits.
  unsigned bits() const noexcept { return bits_; }
  /// Largest storable value (all-ones of the field width).
  std::uint64_t max_value() const noexcept { return mask_; }
  /// Element count.
  std::size_t size() const noexcept { return size_; }
  /// True when no elements are stored.
  bool empty() const noexcept { return size_ == 0; }

  /// Element at `i` (CHECK: in range). Inline: the DRAM hot paths read
  /// single arena fields through it.
  std::uint64_t get(std::size_t i) const {
    EXPLFRAME_CHECK(i < size_);
    const std::size_t off = i * bits_;
    const std::size_t word = off / 64;
    const unsigned shift = static_cast<unsigned>(off % 64);
    std::uint64_t value = words_[word] >> shift;
    if (shift + bits_ > 64) value |= words_[word + 1] << (64 - shift);
    return value & mask_;
  }
  /// Replace the contents with `values` in one pass (CHECK: each fits
  /// `bits()`), with zeroed tail bits. The word array keeps its capacity
  /// when that suffices and otherwise reserves exactly what `values`
  /// needs, so afterwards heap_bytes() ==
  /// 8 * max(previous word capacity, ceil(values.size() * bits() / 64)).
  void assign(std::span<const std::uint64_t> values);

  /// Heap bytes of the backing word array (capacity, not size).
  std::uint64_t heap_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static std::size_t words_for(std::size_t count, unsigned bits) noexcept {
    return (count * bits + 63) / 64;
  }

  unsigned bits_ = 1;
  std::uint64_t mask_ = 1;
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Two-level sparse directory over a static, sorted set of uint64 keys in
/// [0, key_limit): level 1 is a dense per-block slot table (one u32 per
/// 2^kBlockBits keys); level 2 keeps, per occupied block, a 64-bit map of
/// its occupied 8-key groups, the offset of its first group mask, and its
/// first ordinal, plus one 8-bit presence mask per occupied group. Maps
/// each present key to its dense ordinal in sorted key order with no search
/// (see find); `key_at` inverts. Built once from the full key set (the
/// weak-cell population is immutable after sampling).
///
/// A dense rank bitvector (one bit per key of the universe plus a count per
/// block) would also look up in O(1), but it costs 68 bytes per block,
/// occupied or not, where this form costs 4, plus 20 per occupied block
/// and 1 per occupied group; at the default 4 weak cells/MiB that puts
/// bench_geometry under its 8x capacity bar.
class RowIndex {
 public:
  /// Keys per level-2 block (512: the group map fits one u64).
  static constexpr unsigned kBlockBits = 9;
  /// Returned by find() for absent keys.
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// An empty directory over an empty key universe.
  RowIndex() = default;
  /// Build from strictly increasing keys, all < key_limit (CHECKed).
  RowIndex(std::span<const std::uint64_t> sorted_keys,
           std::uint64_t key_limit);

  /// Number of present keys.
  std::size_t size() const noexcept { return keys_; }
  /// Exclusive upper bound of the key universe.
  std::uint64_t key_limit() const noexcept { return key_limit_; }

  /// Dense ordinal of `key` in sorted order, or kNpos if absent (keys
  /// outside the universe are absent). O(1), no search: one slot read, one
  /// group-map test and popcount, then the block's first ordinal plus the
  /// popcounts of the group masks before the key — at most 7 whole words
  /// and one word cut at the key's bit. Inline: every activation looks up
  /// both neighbour rows.
  std::size_t find(std::uint64_t key) const noexcept {
    if (keys_ == 0 || key >= key_limit_) return kNpos;
    const std::uint32_t slot =
        dir_[static_cast<std::size_t>(key >> kBlockBits)];
    if (slot == kAbsentBlock) return kNpos;
    const std::uint64_t coarse = coarse_[slot];
    const unsigned group = static_cast<unsigned>(key >> kGroupBits) & 63;
    if (((coarse >> group) & 1) == 0) return kNpos;
    // Read the block's group masks as one little-endian bit string: the key
    // is bit `pos`, and its ordinal counts the set bits before it — whole
    // words, then the word holding `pos` cut at it. That last read may run
    // past the block (into the next block's masks or the padding); the cut
    // discards those bytes.
    const std::uint8_t* masks = fine_.data() + fine_start_[slot];
    const unsigned pos = 8 * popcount64(coarse & ((1ull << group) - 1)) +
                         static_cast<unsigned>(key & 7);
    const std::uint64_t last = load64(masks + 8 * (pos / 64));
    if (((last >> (pos % 64)) & 1) == 0) return kNpos;
    std::size_t ordinal =
        start_[slot] + popcount64(last & ((1ull << (pos % 64)) - 1));
    for (unsigned w = 0; w < pos / 64; ++w)
      ordinal += popcount64(load64(masks + 8 * w));
    return ordinal;
  }
  /// The `ordinal`-th smallest present key (CHECK: ordinal < size()).
  std::uint64_t key_at(std::size_t ordinal) const;

  /// Heap bytes across both levels (capacities).
  std::uint64_t heap_bytes() const noexcept;

 private:
  static constexpr std::uint32_t kAbsentBlock = 0xFFFFFFFFu;
  static constexpr std::uint64_t kBlockSize = 1ull << kBlockBits;
  /// Keys per group (8: one presence mask byte).
  static constexpr unsigned kGroupBits = 3;
  /// Zero bytes after the last group mask, so find() may read any mask
  /// as part of a whole word.
  static constexpr std::size_t kMaskPad = 7;

  /// Set bits of a word. std::popcount compiles to a libgcc call on
  /// baseline x86-64 (no POPCNT); this branch-free form stays inline.
  static constexpr unsigned popcount64(std::uint64_t x) noexcept {
    x -= (x >> 1) & 0x5555555555555555ull;
    x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
    return static_cast<unsigned>((x * 0x0101010101010101ull) >> 56);
  }
  /// The 8 bytes at `bytes` as one little-endian word (unaligned).
  static std::uint64_t load64(const std::uint8_t* bytes) noexcept {
    std::uint64_t word;
    std::memcpy(&word, bytes, sizeof word);
    return word;
  }

  std::uint64_t key_limit_ = 0;
  std::size_t keys_ = 0;
  std::vector<std::uint32_t> dir_;         ///< block -> slot | kAbsentBlock
  std::vector<std::uint32_t> block_id_;    ///< slot -> block number
  std::vector<std::uint32_t> start_;       ///< slot -> first ordinal (+ end)
  std::vector<std::uint64_t> coarse_;      ///< slot -> occupied-group map
  std::vector<std::uint32_t> fine_start_;  ///< slot -> its first fine_ mask
  std::vector<std::uint8_t> fine_;  ///< occupied group -> key mask (+ pad)
};

}  // namespace explframe
