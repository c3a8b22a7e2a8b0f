// Packed SoA bookkeeping tables for DramDevice.
//
// The seed device kept its per-row mutable state — disturbance counters,
// TRR sampler, live-flip records and the flip log — in unordered_maps of
// heap vectors. Beyond the ~100-byte-per-entry overhead, refresh had to
// clear() whole maps and snapshotting had to deep-copy them. These four
// value types replace the maps:
//
//   DisturbanceTable  flat counter arrays indexed by weak-row ordinal,
//                     sized on the first touch and invalidated O(1) per
//                     refresh by a window epoch tag instead of clearing;
//                     a touched list makes snapshot capture
//                     O(touched this window).
//   TrrSampler        the finite TRR activation sampler as two parallel
//                     fixed-capacity arrays with deterministic eviction
//                     (min count, tie -> lowest row).
//   LiveFlipTable     flipped-but-not-rewritten bits as row-sorted
//                     parallel arrays (the ECC bookkeeping).
//   FlipLog           the flip event log as parallel arrays storing only
//                     {addr, bit|direction, time}; the DRAM coordinate is
//                     re-derived from the bijective address mapping when
//                     events are drained, in append (index) order.
//
// All four are plain value types: copying one is a valid snapshot, and
// equality compares logical contents.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "support/units.hpp"

namespace explframe::dram {

/// Per-window Rowhammer disturbance counters for weak rows, stored as
/// three parallel u32 arrays (above, below, window tag) indexed directly
/// by the weak-row ordinal a RowIndex assigns. The arrays are sized on
/// the first touch, so a device that is never hammered holds none. A
/// per-entry window tag makes refresh an O(1) epoch bump; entries whose
/// tag is stale read as zero, exactly like the map entries the seed
/// erased.
class DisturbanceTable {
 public:
  /// Mutable view of one weak row's counters for the current window.
  struct Counters {
    std::uint32_t& above;  ///< Activations of row-1 this window.
    std::uint32_t& below;  ///< Activations of row+1 this window.
  };
  /// One touched entry, as captured into a snapshot.
  struct Entry {
    std::uint32_t ordinal = 0;  ///< Weak-row ordinal.
    std::uint32_t above = 0;
    std::uint32_t below = 0;
    /// Field-wise equality (snapshot comparisons in tests).
    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// An empty table (no weak rows).
  DisturbanceTable() = default;
  /// A table over ordinals [0, weak_rows); the counter arrays are
  /// allocated on the first touch.
  explicit DisturbanceTable(std::size_t weak_rows)
      : rows_(static_cast<std::uint32_t>(weak_rows)) {}

  /// Activations of row-1 recorded for this weak row this window.
  std::uint32_t above(std::size_t ordinal) const noexcept {
    return live(ordinal) ? above_[ordinal] : 0;
  }
  /// Activations of row+1 recorded for this weak row this window.
  std::uint32_t below(std::size_t ordinal) const noexcept {
    return live(ordinal) ? below_[ordinal] : 0;
  }
  /// Mutable counters for this window, zero-initialising the entry (and
  /// recording it as touched) if this is its first touch since the last
  /// window reset.
  Counters touch(std::size_t ordinal);
  /// Targeted-refresh reset of one row's counters (TRR intervention).
  void reset(std::size_t ordinal) noexcept {
    if (!live(ordinal)) return;
    above_[ordinal] = 0;
    below_[ordinal] = 0;
  }
  /// Refresh: forget every counter, O(1) (epoch bump).
  void clear_window() noexcept;

  /// Entries touched this window, in touch order — O(touched).
  std::vector<Entry> capture() const;
  /// Replace the window contents with previously captured entries.
  void restore(std::span<const Entry> entries);

  /// Heap bytes of the counter arrays and the touched list.
  std::uint64_t heap_bytes() const noexcept {
    return (above_.capacity() + below_.capacity() + tag_.capacity() +
            touched_.capacity()) *
           sizeof(std::uint32_t);
  }

 private:
  /// True when `ordinal` was touched this window (false before sizing).
  bool live(std::size_t ordinal) const noexcept {
    return !tag_.empty() && tag_[ordinal] == window_;
  }

  std::vector<std::uint32_t> above_, below_, tag_;  ///< sized on 1st touch
  std::vector<std::uint32_t> touched_;  ///< ordinals touched this window
  std::uint32_t rows_ = 0;              ///< weak-row count (array size)
  std::uint32_t window_ = 1;            ///< current epoch (tags start at 0)
};

/// The finite TRR activation sampler: at most `capacity` (row, count)
/// pairs in parallel arrays. Linear scans beat hashing at the 32-entry
/// scale real samplers have, and eviction is deterministic: the coldest
/// entry, ties broken towards the lowest row number.
class TrrSampler {
 public:
  /// Returned by find() when a row is not tracked.
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  /// An untracked sampler (capacity 0); assign a sized one before use.
  TrrSampler() = default;
  /// A sampler tracking at most `capacity` rows.
  explicit TrrSampler(std::uint32_t capacity) : capacity_(capacity) {}

  /// Number of rows currently tracked.
  std::size_t size() const noexcept { return rows_.size(); }
  /// Slot of `row`, or kNpos if untracked.
  std::size_t find(std::uint64_t row) const noexcept;
  /// Start tracking `row` at count 0, evicting the coldest tracked row
  /// (min count, tie -> lowest row) if at capacity. Returns the slot.
  std::size_t insert(std::uint64_t row);
  /// Tracked row at `slot`.
  std::uint64_t row(std::size_t slot) const { return rows_[slot]; }
  /// Activation count at `slot`.
  std::uint32_t count(std::size_t slot) const { return counts_[slot]; }
  /// Overwrite the count at `slot` (post-intervention reset).
  void set_count(std::size_t slot, std::uint32_t value) {
    counts_[slot] = value;
  }
  /// Add `delta` activations at `slot` (modular, like the seed's u32).
  void add(std::size_t slot, std::uint32_t delta) { counts_[slot] += delta; }
  /// Refresh: forget every tracked row.
  void clear() noexcept {
    rows_.clear();
    counts_.clear();
  }

  /// Heap bytes of the parallel arrays.
  std::uint64_t heap_bytes() const noexcept {
    return rows_.capacity() * sizeof(std::uint64_t) +
           counts_.capacity() * sizeof(std::uint32_t);
  }
  /// Logical equality: same capacity and same (row, count) set, order
  /// independent — the seed's map had no slot order either.
  friend bool operator==(const TrrSampler& a, const TrrSampler& b);

 private:
  std::uint32_t capacity_ = 0;
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint32_t> counts_;
};

/// Flipped-but-not-yet-rewritten bits (the ECC bookkeeping), held as
/// parallel arrays sorted by flat row; within a row, records keep
/// insertion order like the seed's per-row vectors. Rows are found by
/// binary search; inserts shift the tail (live flips are rare and the
/// table stays small).
class LiveFlipTable {
 public:
  /// Half-open index range of one row's records.
  struct Range {
    std::size_t begin = 0, end = 0;
  };

  /// Total live-flip records.
  std::size_t size() const noexcept { return rows_.size(); }
  /// True when no bits are pending rewrite.
  bool empty() const noexcept { return rows_.empty(); }
  /// Record a flipped bit (appended at the end of the row's run).
  void add(std::uint64_t row, std::uint32_t col, std::uint8_t bit);
  /// Drop records of `row` with col in [col, col+len) (bytes rewritten).
  void erase_cols(std::uint64_t row, std::uint64_t col, std::uint64_t len);
  /// Index range of `row`'s records (empty if none).
  Range row_range(std::uint64_t row) const noexcept;
  /// Column of record `i`.
  std::uint32_t col_at(std::size_t i) const { return cols_[i]; }
  /// Bit index of record `i`.
  std::uint8_t bit_at(std::size_t i) const { return bits_[i]; }

  /// Heap bytes of the parallel arrays.
  std::uint64_t heap_bytes() const noexcept {
    return rows_.capacity() * sizeof(std::uint64_t) +
           cols_.capacity() * sizeof(std::uint32_t) + bits_.capacity();
  }
  /// Logical (content) equality.
  friend bool operator==(const LiveFlipTable&, const LiveFlipTable&) = default;

 private:
  std::vector<std::uint64_t> rows_;
  std::vector<std::uint32_t> cols_;
  std::vector<std::uint8_t> bits_;
};

/// Append-only flip event log as parallel arrays. Only the physical
/// address, bit|direction byte and timestamp are stored — 17 bytes per
/// event against the seed's 40+-byte FlipEvent — and events are emitted
/// in index order, with the DRAM coordinate re-derived via the bijective
/// address mapping at drain time.
class FlipLog {
 public:
  /// Number of logged events.
  std::size_t size() const noexcept { return addrs_.size(); }
  /// True when nothing has been logged since the last drain.
  bool empty() const noexcept { return addrs_.empty(); }
  /// Log one flip.
  void append(std::uint64_t addr, std::uint8_t bit, bool to_one,
              SimTime time) {
    addrs_.push_back(addr);
    meta_.push_back(static_cast<std::uint8_t>(bit | (to_one ? 0x8u : 0u)));
    times_.push_back(time);
  }
  /// Physical byte address of event `i`.
  std::uint64_t addr_at(std::size_t i) const { return addrs_[i]; }
  /// Flipped bit index of event `i`.
  std::uint8_t bit_at(std::size_t i) const {
    return static_cast<std::uint8_t>(meta_[i] & 0x7u);
  }
  /// Direction of event `i` (true = 0->1).
  bool to_one_at(std::size_t i) const { return (meta_[i] & 0x8u) != 0; }
  /// Device clock at event `i`.
  SimTime time_at(std::size_t i) const { return times_[i]; }
  /// Drop all events (after a drain).
  void clear() noexcept {
    addrs_.clear();
    meta_.clear();
    times_.clear();
  }

  /// Heap bytes of the parallel arrays.
  std::uint64_t heap_bytes() const noexcept {
    return addrs_.capacity() * sizeof(std::uint64_t) + meta_.capacity() +
           times_.capacity() * sizeof(SimTime);
  }
  /// Logical (content) equality.
  friend bool operator==(const FlipLog&, const FlipLog&) = default;

 private:
  std::vector<std::uint64_t> addrs_;
  std::vector<std::uint8_t> meta_;
  std::vector<SimTime> times_;
};

}  // namespace explframe::dram
