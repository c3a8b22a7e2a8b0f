// Property/fuzz tests for the bit-packed SoA containers behind the DRAM
// state refactor: PackedVector and RowIndex (support/packed.hpp) and the
// DisturbanceTable / TrrSampler / LiveFlipTable device tables
// (dram/packed_state.hpp).
//
// Each container is driven through seeded random operation storms alongside
// a plain-STL oracle (std::vector / std::map) and must agree on every
// observable after every operation batch. Width saturation is a CHECK, not
// a truncation: storing a value wider than the declared field (threshold
// >= 2^19, col >= 2^28, ...) must abort, never wrap. Snapshot round trips
// are fixed points: capture -> restore -> capture reproduces the identical
// image.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "dram/dram_device.hpp"
#include "dram/packed_state.hpp"
#include "dram/weak_cells.hpp"
#include "support/packed.hpp"
#include "support/rng.hpp"
#include "support/units.hpp"

namespace explframe {
namespace {

// ---- PackedVector ----------------------------------------------------------

/// Random assign storm against a std::vector oracle, at every interesting
/// field width including the cross-word-spill widths. Each round
/// re-assigns the same vector, growing or shrinking it over the stale
/// words of the previous round; every element must read back exactly.
TEST(PackedVectorProperty, AssignStormMatchesVectorOracle) {
  for (const unsigned bits :
       {1u, 3u, 7u, 8u, 19u, 27u, 28u, 33u, 40u, 63u, 64u}) {
    SCOPED_TRACE(bits);
    Rng rng(0xbead + bits);
    PackedVector packed(bits);
    const std::uint64_t mask =
        bits == 64 ? ~0ull : (1ull << bits) - 1;
    EXPECT_EQ(packed.max_value(), mask);
    EXPECT_TRUE(packed.empty());

    for (int round = 0; round < 60; ++round) {
      std::vector<std::uint64_t> oracle(rng.uniform(300));
      // Mostly random values, with all-ones and zero runs so that spill
      // words and stale bits are both exercised.
      for (std::uint64_t& v : oracle) {
        switch (rng.uniform(4)) {
          case 0: v = mask; break;
          case 1: v = 0; break;
          default: v = rng.next() & mask; break;
        }
      }
      packed.assign(oracle);
      ASSERT_EQ(packed.size(), oracle.size());
      ASSERT_EQ(packed.empty(), oracle.empty());
      for (std::size_t i = 0; i < oracle.size(); ++i)
        ASSERT_EQ(packed.get(i), oracle[i])
            << "round " << round << " index " << i;
    }
  }
}

/// A value one past the field's maximum must CHECK, not truncate; so must
/// a read past the end.
TEST(PackedVectorProperty, OverWidthValuesDieInsteadOfTruncating) {
  PackedVector packed(19);
  const std::uint64_t in_range[] = {packed.max_value()};
  packed.assign(in_range);  // in range: fine
  EXPECT_EQ(packed.get(0), packed.max_value());
  const std::uint64_t over[] = {1, 1ull << 19, 2};
  EXPECT_DEATH(packed.assign(over), "exceeds field width");
  EXPECT_DEATH(packed.get(1), "");
}

/// heap_bytes() after assign is 8 * max(previous word capacity,
/// ceil(n * bits / 64)): a fresh vector holds exactly the words its values
/// need, a larger re-assign grows to that, and a smaller one keeps the
/// capacity it had.
TEST(PackedVectorProperty, AssignHeapBytesFormula) {
  for (const unsigned bits : {1u, 3u, 19u, 27u, 28u, 33u, 63u, 64u}) {
    Rng rng(0xa55 + bits);
    const auto words = [bits](std::size_t n) -> std::uint64_t {
      return (n * bits + 63) / 64;
    };
    PackedVector packed(bits);
    EXPECT_EQ(packed.heap_bytes(), 0u);
    std::uint64_t capacity = 0;
    for (int trial = 0; trial < 60; ++trial) {
      SCOPED_TRACE(testing::Message() << bits << " bits, trial " << trial);
      std::vector<std::uint64_t> values(rng.uniform(300));
      packed.assign(values);
      capacity = std::max(capacity, words(values.size()));
      EXPECT_EQ(packed.heap_bytes(), 8 * capacity);
      PackedVector fresh(bits);
      fresh.assign(values);
      EXPECT_EQ(fresh.heap_bytes(), 8 * words(values.size()));
    }
  }
}

/// The weak-cell arena inherits the saturation contract: a threshold at or
/// above 2^19 or a column at or above 2^28 aborts model construction.
TEST(PackedVectorProperty, WeakCellFieldSaturationDies) {
  // A row universe wide enough that the absurd column is the only error.
  dram::Geometry g = dram::Geometry::with_capacity(64 * kMiB);
  const dram::WeakCellParams params;

  dram::WeakCell oversized_threshold;
  oversized_threshold.threshold = 1u << 19;
  const std::pair<std::uint64_t, dram::WeakCell> pop_a[] = {
      {5, oversized_threshold}};
  EXPECT_DEATH(dram::WeakCellModel(g, params, pop_a), "exceeds field width");

  dram::WeakCell oversized_col;
  oversized_col.threshold = 30'000;
  oversized_col.col = 1u << 28;
  const std::pair<std::uint64_t, dram::WeakCell> pop_b[] = {{5, oversized_col}};
  EXPECT_DEATH(dram::WeakCellModel(g, params, pop_b), "exceeds field width");
}

/// A column inside its 28-bit field but at or past the row width, or a row
/// past the geometry, aborts construction too: the device would otherwise
/// index a row_bytes buffer out of bounds when it applies the flip.
TEST(PackedVectorProperty, WeakCellOutsideGeometryDies) {
  const dram::Geometry g = dram::Geometry::with_capacity(64 * kMiB);
  const dram::WeakCellParams params;

  dram::WeakCell past_row_end;
  past_row_end.threshold = 30'000;
  past_row_end.col = g.row_bytes;
  const std::pair<std::uint64_t, dram::WeakCell> pop_col[] = {
      {5, past_row_end}};
  EXPECT_DEATH(dram::WeakCellModel(g, params, pop_col),
               "col outside the row");

  dram::WeakCell last_col = past_row_end;
  last_col.col = g.row_bytes - 1;
  const std::pair<std::uint64_t, dram::WeakCell> pop_ok[] = {
      {g.total_rows() - 1, last_col}};
  EXPECT_EQ(dram::WeakCellModel(g, params, pop_ok).total_cells(), 1u);

  const std::pair<std::uint64_t, dram::WeakCell> pop_row[] = {
      {g.total_rows(), last_col}};
  EXPECT_DEATH(dram::WeakCellModel(g, params, pop_row),
               "row outside the geometry");
}

// ---- RowIndex --------------------------------------------------------------

/// Random sparse key sets over random universes: every lookup observable
/// must match the sorted-vector oracle (find == binary-search index,
/// key_at is its inverse, misses are kNpos) — including block-boundary
/// keys and a multi-GB-scale universe.
TEST(RowIndexProperty, LookupsMatchSortedVectorOracle) {
  Rng rng(0x10de);
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE(round);
    // One round over a beyond-32-bit universe (the multi-GB-geometry
    // regime); its directory is ~64 MiB, so it runs once with fewer
    // probes. The rest stay dense enough to stress block collisions.
    const bool giant = round == 0;
    const std::uint64_t limit =
        giant ? (1ull << 33) : 1 + rng.uniform(1ull << 20);
    const std::size_t want = static_cast<std::size_t>(rng.uniform(600));

    std::vector<std::uint64_t> keys;
    keys.reserve(want + 4);
    for (std::size_t i = 0; i < want; ++i) keys.push_back(rng.uniform(limit));
    // Force block-edge coverage: keys adjacent to a 512-key block seam.
    if (limit > 1030) {
      keys.push_back(511);
      keys.push_back(512);
      keys.push_back(1024);
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

    const RowIndex index(keys, limit);
    ASSERT_EQ(index.size(), keys.size());
    EXPECT_EQ(index.key_limit(), limit);

    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(index.find(keys[i]), i);
      ASSERT_EQ(index.key_at(i), keys[i]);
    }

    for (int probe = 0; probe < (giant ? 50 : 400); ++probe) {
      const std::uint64_t key = rng.uniform(limit);
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      const std::size_t lb = static_cast<std::size_t>(it - keys.begin());
      const bool present = it != keys.end() && *it == key;
      ASSERT_EQ(index.find(key), present ? lb : RowIndex::kNpos)
          << "key " << key;
    }
    // Past-the-universe probes are misses.
    EXPECT_EQ(index.find(limit), RowIndex::kNpos);
  }
}

/// Dense blocks, checked exhaustively: universes of at most 2^16 keys built
/// from blocks with a chosen number of occupied 8-key groups — 1, 8 and 9
/// (a lookup's rank crosses its first whole mask word), 56, 63 and 64 (up
/// to seven whole words before the cut one), full 512-key blocks, and
/// random sparse ones — with every key of the universe, and the one past
/// it, looked up against lower_bound; key_at inverts every hit. Some
/// rounds end on a full block, so the cut word of the universe's last
/// keys runs into the mask padding.
TEST(RowIndexProperty, DenseBlocksMatchLowerBoundExhaustively) {
  Rng rng(0xb10c);
  constexpr std::uint64_t kBlock = std::uint64_t{1} << RowIndex::kBlockBits;
  const unsigned kGroupCounts[] = {1, 8, 9, 56, 63, 64};
  for (int round = 0; round < 24; ++round) {
    SCOPED_TRACE(round);
    const std::uint64_t blocks = 1 + rng.uniform(128);
    // Even rounds cut the last block short; odd rounds end on a full one.
    const std::uint64_t limit =
        round % 2 == 0 ? (blocks - 1) * kBlock + 1 + rng.uniform(kBlock)
                       : blocks * kBlock;
    std::vector<std::uint64_t> keys;
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t base = b * kBlock;
      const bool last = b + 1 == blocks;
      const std::uint64_t shape = last && round % 2 == 1 ? 7 : rng.uniform(9);
      if (shape == 0) continue;  // empty block
      if (shape == 7) {          // full block
        for (std::uint64_t k = 0; k < kBlock; ++k) keys.push_back(base + k);
        continue;
      }
      if (shape == 8) {  // random sparse
        for (std::uint64_t k = 0; k < kBlock; ++k)
          if (rng.bernoulli(0.05)) keys.push_back(base + k);
        continue;
      }
      // Exactly kGroupCounts[shape - 1] occupied groups, each with a random
      // non-empty mask.
      std::vector<std::uint64_t> groups(kBlock / 8);
      for (std::uint64_t g = 0; g < groups.size(); ++g) groups[g] = g;
      rng.shuffle(std::span(groups));
      groups.resize(kGroupCounts[shape - 1]);
      std::sort(groups.begin(), groups.end());
      for (const std::uint64_t g : groups) {
        const std::uint64_t mask = 1 + rng.uniform(255);
        for (unsigned bit = 0; bit < 8; ++bit)
          if ((mask >> bit) & 1) keys.push_back(base + 8 * g + bit);
      }
    }
    while (!keys.empty() && keys.back() >= limit) keys.pop_back();

    const RowIndex index(keys, limit);
    ASSERT_EQ(index.size(), keys.size());
    for (std::uint64_t key = 0; key <= limit; ++key) {
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      const std::size_t lb = static_cast<std::size_t>(it - keys.begin());
      const bool present = it != keys.end() && *it == key;
      ASSERT_EQ(index.find(key), present ? lb : RowIndex::kNpos)
          << "key " << key;
      if (present) {
        ASSERT_EQ(index.key_at(lb), key);
      }
    }
  }
}

/// Degenerate shapes: the empty index never hits, and construction rejects
/// unsorted, duplicate and out-of-universe keys.
TEST(RowIndexProperty, EmptyAndInvalidConstruction) {
  const RowIndex empty({}, 1ull << 30);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.find(0), RowIndex::kNpos);
  EXPECT_EQ(empty.find(123), RowIndex::kNpos);

  const std::uint64_t unsorted[] = {9, 3};
  EXPECT_DEATH(RowIndex(unsorted, 100), "strictly increasing");
  const std::uint64_t dup[] = {3, 3};
  EXPECT_DEATH(RowIndex(dup, 100), "strictly increasing");
  const std::uint64_t outside[] = {100};
  EXPECT_DEATH(RowIndex(outside, 100), "out of universe");
}

// ---- DisturbanceTable ------------------------------------------------------

/// Counter storm against a map oracle with the same window semantics:
/// touch/increment, targeted reset, window clears and snapshot
/// capture/restore all agree with the obvious map implementation.
TEST(DisturbanceTableProperty, StormMatchesMapOracle) {
  Rng rng(0xd157);
  const dram::Geometry geometry = dram::Geometry::with_capacity(64 * kMiB);
  std::vector<std::uint64_t> weak_rows;
  for (std::uint64_t r = 0; r < geometry.total_rows(); ++r)
    if (rng.bernoulli(0.01)) weak_rows.push_back(r);
  ASSERT_FALSE(weak_rows.empty());
  const RowIndex index(weak_rows, geometry.total_rows());

  dram::DisturbanceTable table(index.size());
  std::map<std::size_t, std::pair<std::uint32_t, std::uint32_t>> oracle;
  std::vector<dram::DisturbanceTable::Entry> saved_entries;
  std::map<std::size_t, std::pair<std::uint32_t, std::uint32_t>> saved_oracle;
  bool have_snapshot = false;

  for (int step = 0; step < 20'000; ++step) {
    const std::size_t ordinal = rng.uniform(index.size());
    switch (rng.uniform(10)) {
      case 0: {  // refresh
        table.clear_window();
        oracle.clear();
        break;
      }
      case 1: {  // TRR-style targeted reset
        table.reset(ordinal);
        if (const auto it = oracle.find(ordinal); it != oracle.end())
          it->second = {0, 0};
        break;
      }
      case 2: {  // snapshot
        saved_entries = table.capture();
        saved_oracle = oracle;
        have_snapshot = true;
        break;
      }
      case 3: {  // rollback
        if (!have_snapshot) break;
        table.restore(saved_entries);
        oracle = saved_oracle;
        break;
      }
      default: {  // disturb one neighbour side
        const auto counters = table.touch(ordinal);
        auto& entry = oracle[ordinal];
        if (rng.bernoulli(0.5)) {
          ++counters.above;
          ++entry.first;
        } else {
          ++counters.below;
          ++entry.second;
        }
        break;
      }
    }
    // Probe a few ordinals (absent entries must read zero).
    for (int probe = 0; probe < 4; ++probe) {
      const std::size_t o = rng.uniform(index.size());
      const auto it = oracle.find(o);
      const std::uint32_t above = it == oracle.end() ? 0 : it->second.first;
      const std::uint32_t below = it == oracle.end() ? 0 : it->second.second;
      ASSERT_EQ(table.above(o), above) << "ordinal " << o;
      ASSERT_EQ(table.below(o), below) << "ordinal " << o;
    }
  }
}

/// capture() -> restore() -> capture() is a fixed point, entry for entry.
TEST(DisturbanceTableProperty, SnapshotRoundTripFixedPoint) {
  Rng rng(0xf1f0);
  const dram::Geometry geometry = dram::Geometry::with_capacity(64 * kMiB);
  std::vector<std::uint64_t> weak_rows;
  for (std::uint64_t r = 0; r < geometry.total_rows(); r += 1 + rng.uniform(50))
    weak_rows.push_back(r);
  const RowIndex index(weak_rows, geometry.total_rows());
  dram::DisturbanceTable table(index.size());

  for (int i = 0; i < 500; ++i) {
    const auto counters = table.touch(rng.uniform(index.size()));
    counters.above += static_cast<std::uint32_t>(rng.uniform(5));
    counters.below += static_cast<std::uint32_t>(rng.uniform(5));
  }
  table.reset(index.size() / 2);  // keep one zeroed-but-touched entry

  const auto first = table.capture();
  table.restore(first);
  const auto second = table.capture();
  EXPECT_EQ(first, second);

  // And restoring over a dirtied window still reproduces the snapshot.
  for (int i = 0; i < 200; ++i) table.touch(rng.uniform(index.size()));
  table.restore(first);
  EXPECT_EQ(table.capture(), first);
}

/// The arrays are sized on the first touch: a fresh table holds no heap
/// and reads zero everywhere; one touch sizes all three arrays to the row
/// count without disturbing any other ordinal; a window clear makes the
/// touched ordinal read zero again.
TEST(DisturbanceTableProperty, SizedOnFirstTouch) {
  constexpr std::size_t kRows = 1000;
  dram::DisturbanceTable table(kRows);
  EXPECT_EQ(table.heap_bytes(), 0u);
  for (std::size_t o = 0; o < kRows; ++o) {
    ASSERT_EQ(table.above(o), 0u) << "ordinal " << o;
    ASSERT_EQ(table.below(o), 0u) << "ordinal " << o;
  }
  table.reset(7);  // resetting an unsized table is a no-op
  EXPECT_EQ(table.heap_bytes(), 0u);
  EXPECT_TRUE(table.capture().empty());

  constexpr std::size_t kTouched = 421;
  const auto counters = table.touch(kTouched);
  counters.above = 3;
  counters.below = 5;
  // Three u32 arrays of kRows entries plus the one-entry touched list.
  EXPECT_GE(table.heap_bytes(), (3 * kRows + 1) * sizeof(std::uint32_t));
  EXPECT_EQ(table.above(kTouched), 3u);
  EXPECT_EQ(table.below(kTouched), 5u);
  for (std::size_t o = 0; o < kRows; ++o) {
    if (o == kTouched) continue;
    ASSERT_EQ(table.above(o), 0u) << "ordinal " << o;
    ASSERT_EQ(table.below(o), 0u) << "ordinal " << o;
  }
  // The last ordinal is in range once sized.
  EXPECT_EQ(table.touch(kRows - 1).above, 0u);

  table.clear_window();
  EXPECT_EQ(table.above(kTouched), 0u);
  EXPECT_EQ(table.below(kTouched), 0u);
  EXPECT_TRUE(table.capture().empty());
}

// ---- TrrSampler ------------------------------------------------------------

/// Sampler storm against a map oracle implementing the documented policy:
/// bounded size, deterministic coldest-entry eviction (count, then row),
/// and order-independent equality.
TEST(TrrSamplerProperty, StormMatchesMapOracle) {
  Rng rng(0x7aa5);
  constexpr std::uint32_t kCapacity = 8;
  dram::TrrSampler sampler(kCapacity);
  std::map<std::uint64_t, std::uint32_t> oracle;

  for (int step = 0; step < 30'000; ++step) {
    const std::uint64_t row = rng.uniform(40);  // small space: collisions
    switch (rng.uniform(8)) {
      case 0: {  // refresh
        sampler.clear();
        oracle.clear();
        break;
      }
      case 1: {  // intervention-style count reset
        const std::size_t slot = sampler.find(row);
        if (slot == dram::TrrSampler::kNpos) break;
        sampler.set_count(slot, 0);
        oracle[row] = 0;
        break;
      }
      default: {  // observe an activation (find-or-insert + add)
        std::size_t slot = sampler.find(row);
        if (slot == dram::TrrSampler::kNpos) {
          if (oracle.size() >= kCapacity) {
            auto coldest = oracle.begin();
            for (auto it = oracle.begin(); it != oracle.end(); ++it)
              if (it->second < coldest->second) coldest = it;
            // std::map iterates rows ascending, so the first minimum is
            // the lowest row — the documented tie-break.
            oracle.erase(coldest);
          }
          slot = sampler.insert(row);
          oracle[row] = 0;
        }
        sampler.add(slot, 1);
        ++oracle[row];
        break;
      }
    }
    ASSERT_EQ(sampler.size(), oracle.size());
    ASSERT_LE(sampler.size(), kCapacity);
    if (step % 37 == 0) {
      for (const auto& [r, count] : oracle) {
        const std::size_t slot = sampler.find(r);
        ASSERT_NE(slot, dram::TrrSampler::kNpos) << "row " << r;
        ASSERT_EQ(sampler.row(slot), r);
        ASSERT_EQ(sampler.count(slot), count);
      }
    }
  }
}

/// Equality is over (row, count) content, not slot order — the seed's
/// unordered_map had no order to preserve.
TEST(TrrSamplerProperty, EqualityIsOrderIndependent) {
  dram::TrrSampler a(8), b(8);
  a.add(a.insert(10), 3);
  a.add(a.insert(20), 5);
  b.add(b.insert(20), 5);
  b.add(b.insert(10), 3);
  EXPECT_TRUE(a == b);
  b.add(b.find(10), 1);
  EXPECT_FALSE(a == b);
  dram::TrrSampler c(4);  // same content, different capacity: not equal
  c.add(c.insert(10), 3);
  c.add(c.insert(20), 5);
  EXPECT_FALSE(a == c);
}

// ---- LiveFlipTable ---------------------------------------------------------

/// Record storm against a map-of-vectors oracle: per-row insertion order,
/// range erase on rewrite, and row_range lookups all agree.
TEST(LiveFlipTableProperty, StormMatchesMapOracle) {
  Rng rng(0x11fe);
  dram::LiveFlipTable table;
  std::map<std::uint64_t,
           std::vector<std::pair<std::uint32_t, std::uint8_t>>>
      oracle;

  for (int step = 0; step < 20'000; ++step) {
    const std::uint64_t row = rng.uniform(64);
    if (rng.bernoulli(0.7)) {  // flip a bit
      const std::uint32_t col = static_cast<std::uint32_t>(rng.uniform(256));
      const std::uint8_t bit = static_cast<std::uint8_t>(rng.uniform(8));
      table.add(row, col, bit);
      oracle[row].emplace_back(col, bit);
    } else {  // rewrite a byte range
      const std::uint64_t col = rng.uniform(256);
      const std::uint64_t len = 1 + rng.uniform(64);
      table.erase_cols(row, col, len);
      if (const auto it = oracle.find(row); it != oracle.end()) {
        auto& vec = it->second;
        std::erase_if(vec, [&](const auto& f) {
          return f.first >= col && f.first < col + len;
        });
        if (vec.empty()) oracle.erase(it);
      }
    }
    if (step % 29 == 0) {
      std::size_t total = 0;
      for (const auto& [r, records] : oracle) {
        total += records.size();
        const auto range = table.row_range(r);
        ASSERT_EQ(range.end - range.begin, records.size()) << "row " << r;
        for (std::size_t i = 0; i < records.size(); ++i) {
          ASSERT_EQ(table.col_at(range.begin + i), records[i].first);
          ASSERT_EQ(table.bit_at(range.begin + i), records[i].second);
        }
      }
      ASSERT_EQ(table.size(), total);
    }
  }
}

// ---- Device image round trip -----------------------------------------------

/// Device-level snapshot fixed point: capture -> restore -> capture yields
/// an identical image (every packed table compares equal; only the
/// mutation epoch advances, by contract).
TEST(PackedImageProperty, DeviceSnapshotRoundTripFixedPoint) {
  dram::DeviceParams params;
  params.weak_cells.cells_per_mib = 64.0;
  params.weak_cells.threshold_log_mean = 10.4;
  params.weak_cells.threshold_min = 25'000;
  params.trr.enabled = true;
  params.trr.threshold = 9'000;
  params.ecc.enabled = true;
  const dram::Geometry g = dram::Geometry::with_capacity(64 * kMiB);
  dram::DramDevice dev(g, params, 42);

  // Dirty every table: stored bytes, disturbance, TRR, flips, live flips.
  const auto rows = dev.weak_cells().vulnerable_rows();
  ASSERT_FALSE(rows.empty());
  dram::AddressMapping mapping(g, params.mapping);
  dram::DramAddress coord;
  coord.row = static_cast<std::uint32_t>(rows.front() % g.rows_per_bank);
  coord.bank = static_cast<std::uint32_t>(rows.front() / g.rows_per_bank %
                                          g.banks);
  const dram::PhysAddr victim = mapping.encode(coord);
  dev.fill(victim, 0xFF, g.row_bytes);
  if (coord.row + 1 < g.rows_per_bank) {
    auto agg = coord;
    agg.row += 1;
    const dram::PhysAddr aggs[] = {mapping.encode(agg)};
    dev.hammer_burst(aggs, 30'000);
  }
  dev.inject_flip(victim + 1, 3);
  dev.inject_flip(victim + 100, 6);

  const auto first = dev.capture_image();
  dev.restore_image(first);
  const auto second = dev.capture_image();

  EXPECT_EQ(first.state.open_row, second.state.open_row);
  EXPECT_EQ(first.disturbance, second.disturbance);
  EXPECT_TRUE(first.state.flips == second.state.flips);
  EXPECT_TRUE(first.state.live_flips == second.state.live_flips);
  EXPECT_TRUE(first.state.trr_sampler == second.state.trr_sampler);
  EXPECT_EQ(first.state.now, second.state.now);
  EXPECT_EQ(first.state.next_refresh, second.state.next_refresh);
  EXPECT_EQ(first.state.total_flips, second.state.total_flips);
  EXPECT_EQ(first.state.total_acts, second.state.total_acts);
  EXPECT_EQ(first.state.refreshes, second.state.refreshes);
  EXPECT_EQ(first.state.trr_hits, second.state.trr_hits);
  EXPECT_EQ(first.state.ecc_corrected, second.state.ecc_corrected);
  EXPECT_EQ(first.state.ecc_uncorrectable, second.state.ecc_uncorrectable);
  // The epoch strictly advances.
  EXPECT_GT(second.state.mutation_epoch, first.state.mutation_epoch);
  ASSERT_EQ(first.state.rows.size(), second.state.rows.size());
  for (const auto& [row, bytes] : first.state.rows) {
    const auto it = second.state.rows.find(row);
    ASSERT_NE(it, second.state.rows.end());
    EXPECT_EQ(0, std::memcmp(bytes.get(), it->second.get(), g.row_bytes));
  }
}

}  // namespace
}  // namespace explframe
