#include "dram/dram_device.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "support/check.hpp"

namespace explframe::dram {

namespace {

/// Validated before any member is built: a zero refresh window would make
/// advance() loop forever the first time the clock moves, and a row-less
/// geometry has no storage to model (and would trip the address-mapping
/// bit-width asserts with a far less helpful message).
const Geometry& validate_device_config(const Geometry& geometry,
                                       const DeviceParams& params) {
  EXPLFRAME_CHECK_MSG(params.timings.refresh_window_ns > 0,
                      "refresh_window_ns must be positive");
  EXPLFRAME_CHECK_MSG(geometry.total_rows() > 0 && geometry.row_bytes > 0,
                      "geometry must have at least one non-empty row");
  return geometry;
}

}  // namespace

DramDevice::DramDevice(const Geometry& geometry, const DeviceParams& params,
                       std::uint64_t seed)
    : geometry_(validate_device_config(geometry, params)),
      params_(params),
      mapping_(geometry, params.mapping),
      weak_cells_(geometry, params.weak_cells, seed),
      zero_row_(std::make_unique<std::uint8_t[]>(geometry.row_bytes)),
      disturbance_(weak_cells_.row_index().size()) {
  std::memset(zero_row_.get(), 0, geometry_.row_bytes);
  state_.open_row.assign(geometry.total_banks(), -1);
  state_.trr_sampler = TrrSampler(params.trr.sampler_entries);
  state_.next_refresh = params.timings.refresh_window_ns;
}

std::uint8_t* DramDevice::row_storage(std::uint64_t flat_row) {
  auto it = state_.rows.find(flat_row);
  if (it == state_.rows.end()) {
    std::shared_ptr<std::uint8_t[]> buf(new std::uint8_t[geometry_.row_bytes]);
    std::memset(buf.get(), 0, geometry_.row_bytes);
    it = state_.rows.emplace(flat_row, std::move(buf)).first;
  } else if (it->second.use_count() > 1) {
    // The payload is shared with at least one snapshot Image: clone before
    // handing out a mutable pointer (copy-on-write).
    std::shared_ptr<std::uint8_t[]> buf(new std::uint8_t[geometry_.row_bytes]);
    std::memcpy(buf.get(), it->second.get(), geometry_.row_bytes);
    it->second = std::move(buf);
  }
  return it->second.get();
}

const std::uint8_t* DramDevice::row_view(std::uint64_t flat_row) const {
  const auto it = state_.rows.find(flat_row);
  // Untouched rows hold zeros; serve them from the shared zero row instead
  // of allocating (keeps pure reads allocation- and clone-free).
  return it != state_.rows.end() ? it->second.get() : zero_row_.get();
}

DramDevice::Image DramDevice::capture_image() const {
  // Copying the row map bumps refcounts only: payloads stay shared.
  return {state_, disturbance_.capture()};
}

void DramDevice::restore_image(const Image& image) {
  const std::uint64_t epoch = state_.mutation_epoch;
  state_ = image.state;  // shares the rows again; the image stays reusable
  disturbance_.restore(image.disturbance);
  // The epoch must move strictly FORWARD across a rollback: a cache keyed
  // on the pre-restore epoch (victim batch-encrypt context) would otherwise
  // collide with a revived value and serve stale bytes.
  state_.mutation_epoch = std::max(epoch, image.state.mutation_epoch) + 1;
}

void DramDevice::advance(SimTime dt) {
  state_.now += dt;
  while (state_.now >= state_.next_refresh) {
    disturbance_.clear_window();
    state_.trr_sampler.clear();
    ++state_.refreshes;
    state_.next_refresh += params_.timings.refresh_window_ns;
  }
}

void DramDevice::refresh_now() {
  // An explicit refresh also restarts the retention window.
  disturbance_.clear_window();
  state_.trr_sampler.clear();
  ++state_.refreshes;
  state_.next_refresh = state_.now + params_.timings.refresh_window_ns;
}

void DramDevice::trr_observe(std::uint64_t aggressor_flat) {
  std::size_t slot = state_.trr_sampler.find(aggressor_flat);
  if (slot == TrrSampler::kNpos)
    slot = state_.trr_sampler.insert(aggressor_flat);
  state_.trr_sampler.add(slot, 1);
  if (state_.trr_sampler.count(slot) < params_.trr.threshold) return;
  // Targeted refresh of both neighbours: their disturbance is reset.
  ++state_.trr_hits;
  state_.trr_sampler.set_count(slot, 0);
  const std::uint64_t row_in_bank =
      aggressor_flat % geometry_.rows_per_bank;
  const RowIndex& weak = weak_cells_.row_index();
  if (row_in_bank > 0) {
    const std::size_t o = weak.find(aggressor_flat - 1);
    if (o != RowIndex::kNpos) disturbance_.reset(o);
  }
  if (row_in_bank + 1 < geometry_.rows_per_bank) {
    const std::size_t o = weak.find(aggressor_flat + 1);
    if (o != RowIndex::kNpos) disturbance_.reset(o);
  }
}

void DramDevice::clear_live_flips(std::uint64_t flat_row, std::uint32_t col,
                                  std::uint64_t len) {
  state_.live_flips.erase_cols(flat_row, col, len);
}

void DramDevice::ecc_filter(std::uint64_t flat_row, std::uint32_t col,
                            std::span<std::uint8_t> chunk) {
  const LiveFlipTable::Range range = state_.live_flips.row_range(flat_row);
  if (range.begin == range.end) return;
  // Act per 64-bit word on the row's live flips: one flip in a word is
  // corrected if the read covers it, two or more in a word that the read
  // overlaps are uncorrectable. Sorting the row's (col, bit) records
  // groups words deterministically regardless of flip order.
  std::vector<std::pair<std::uint32_t, std::uint8_t>> flips;
  flips.reserve(range.end - range.begin);
  for (std::size_t i = range.begin; i < range.end; ++i)
    flips.emplace_back(state_.live_flips.col_at(i),
                       state_.live_flips.bit_at(i));
  std::sort(flips.begin(), flips.end());
  for (std::size_t i = 0; i < flips.size();) {
    const std::uint32_t word = flips[i].first / 8;
    std::size_t j = i;
    while (j < flips.size() && flips[j].first / 8 == word) ++j;
    // Does this word overlap the chunk at all?
    const std::uint32_t word_lo = word * 8;
    if (word_lo + 8 > col && word_lo < col + chunk.size()) {
      if (j - i == 1) {
        const auto [fcol, fbit] = flips[i];
        if (fcol >= col && fcol < col + chunk.size()) {
          chunk[fcol - col] ^= static_cast<std::uint8_t>(1u << fbit);
          ++state_.ecc_corrected;
        }
      } else {
        ++state_.ecc_uncorrectable;  // Detected, not corrected (machine check).
      }
    }
    i = j;
  }
}

void DramDevice::read(PhysAddr addr, std::span<std::uint8_t> out) {
  EXPLFRAME_CHECK(addr + out.size() <= geometry_.total_bytes());
  std::size_t done = 0;
  while (done < out.size()) {
    const DramAddress c = mapping_.decode(addr + done);
    const std::uint64_t fr = flat_row(geometry_, c);
    const std::size_t chunk = std::min<std::size_t>(
        out.size() - done, geometry_.row_bytes - c.col);
    std::memcpy(out.data() + done, row_view(fr) + c.col, chunk);
    if (params_.ecc.enabled)
      ecc_filter(fr, c.col, out.subspan(done, chunk));
    done += chunk;
  }
}

void DramDevice::write(PhysAddr addr, std::span<const std::uint8_t> in) {
  EXPLFRAME_CHECK(addr + in.size() <= geometry_.total_bytes());
  ++state_.mutation_epoch;
  std::size_t done = 0;
  while (done < in.size()) {
    const DramAddress c = mapping_.decode(addr + done);
    const std::uint64_t fr = flat_row(geometry_, c);
    const std::size_t chunk = std::min<std::size_t>(
        in.size() - done, geometry_.row_bytes - c.col);
    std::memcpy(row_storage(fr) + c.col, in.data() + done, chunk);
    clear_live_flips(fr, c.col, chunk);
    done += chunk;
  }
}

std::uint8_t DramDevice::read_byte(PhysAddr addr) {
  std::uint8_t v = 0;
  read(addr, {&v, 1});
  return v;
}

void DramDevice::write_byte(PhysAddr addr, std::uint8_t value) {
  write(addr, {&value, 1});
}

void DramDevice::fill(PhysAddr addr, std::uint8_t value, std::uint64_t len) {
  EXPLFRAME_CHECK(addr + len <= geometry_.total_bytes());
  ++state_.mutation_epoch;
  std::uint64_t done = 0;
  while (done < len) {
    const DramAddress c = mapping_.decode(addr + done);
    const std::uint64_t fr = flat_row(geometry_, c);
    const std::uint64_t chunk =
        std::min<std::uint64_t>(len - done, geometry_.row_bytes - c.col);
    std::memset(row_storage(fr) + c.col, value, chunk);
    clear_live_flips(fr, c.col, chunk);
    done += chunk;
  }
}

DramDevice::Neighbours DramDevice::neighbours(
    std::uint64_t victim_flat, const DramAddress& victim) const {
  // Peek without allocating: untouched rows are the shared zero row.
  const std::uint8_t* zeros = zero_row_.get();
  return {victim.row > 0 ? row_view(victim_flat - 1) : zeros,
          victim.row + 1 < geometry_.rows_per_bank ? row_view(victim_flat + 1)
                                                   : zeros};
}

double DramDevice::pattern_factor(const Neighbours& n, std::uint32_t col,
                                  std::uint8_t bit, bool stored) const {
  // Stripe patterns (aggressor bit opposite to victim bit) couple at full
  // strength; matching bits couple more weakly.
  const bool above = (n.above[col] >> bit) & 1u;
  const bool below = (n.below[col] >> bit) & 1u;
  return above != stored || below != stored ? 1.0
                                            : params_.same_pattern_coupling;
}

void DramDevice::check_victim_row(std::uint64_t victim_flat,
                                  std::size_t weak_ordinal,
                                  const DramAddress& victim,
                                  const RowDisturbance& d) {
  const WeakCellSpan cells = weak_cells_.cells_of(weak_ordinal);
  // Read through the const view and clone (CoW) only when a bit actually
  // flips — the common no-flip check must not copy snapshot-shared rows.
  // Cell fields are read straight from the packed arena by ordinal; only
  // the fields a step needs are decoded. The neighbour rows are read once,
  // at the first charged cell (a flip here never changes them).
  const std::uint8_t* data = row_view(victim_flat);
  std::uint8_t* mut = nullptr;
  Neighbours near{};
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const std::size_t o = cells.ordinal(k);
    const std::uint32_t ccol = weak_cells_.col_at(o);
    const std::uint8_t cbit = weak_cells_.bit_at(o);
    const bool stored = ((mut ? mut : data)[ccol] >> cbit) & 1u;
    // Only charged cells can lose charge: true-cell charged at 1, anti at 0.
    if (stored != weak_cells_.true_cell_at(o)) continue;

    double effective =
        static_cast<double>(d.acts_above) * weak_cells_.couple_above_at(o) +
        static_cast<double>(d.acts_below) * weak_cells_.couple_below_at(o);
    if (params_.data_pattern_sensitivity) {
      if (near.above == nullptr) near = neighbours(victim_flat, victim);
      effective *= pattern_factor(near, ccol, cbit, stored);
    }
    if (effective < static_cast<double>(weak_cells_.threshold_at(o))) continue;

    if (!mut) mut = row_storage(victim_flat);  // may clone a shared row
    mut[ccol] = static_cast<std::uint8_t>(mut[ccol] ^ (1u << cbit));
    DramAddress at = victim;
    at.col = ccol;
    state_.flips.append(mapping_.encode(at), cbit, !stored, state_.now);
    state_.live_flips.add(victim_flat, ccol, cbit);
    ++state_.total_flips;
    ++state_.mutation_epoch;
  }
}

void DramDevice::apply_disturbance(const DramAddress& aggressor) {
  const std::uint64_t agg_flat = flat_row(geometry_, aggressor);
  if (params_.trr.enabled) trr_observe(agg_flat);
  const RowIndex& weak = weak_cells_.row_index();
  // Victim above the aggressor (row-1): the aggressor is its below-neighbour.
  if (aggressor.row > 0) {
    const std::uint64_t victim_flat = agg_flat - 1;
    const std::size_t o = weak.find(victim_flat);
    if (o != RowIndex::kNpos) {
      const DisturbanceTable::Counters c = disturbance_.touch(o);
      ++c.below;
      DramAddress victim = aggressor;
      victim.row -= 1;
      check_victim_row(victim_flat, o, victim, {c.above, c.below});
    }
  }
  // Victim below the aggressor (row+1): the aggressor is its above-neighbour.
  if (aggressor.row + 1 < geometry_.rows_per_bank) {
    const std::uint64_t victim_flat = agg_flat + 1;
    const std::size_t o = weak.find(victim_flat);
    if (o != RowIndex::kNpos) {
      const DisturbanceTable::Counters c = disturbance_.touch(o);
      ++c.above;
      DramAddress victim = aggressor;
      victim.row += 1;
      check_victim_row(victim_flat, o, victim, {c.above, c.below});
    }
  }
}

SimTime DramDevice::access(PhysAddr addr) {
  EXPLFRAME_CHECK(addr < geometry_.total_bytes());
  const DramAddress c = mapping_.decode(addr);
  const std::uint64_t bank = flat_bank(geometry_, c);
  SimTime latency;
  if (state_.open_row[bank] == static_cast<std::int64_t>(c.row)) {
    latency = params_.timings.row_hit_ns;
  } else {
    latency = params_.timings.row_conflict_ns;
    state_.open_row[bank] = static_cast<std::int64_t>(c.row);
    ++state_.total_acts;
    apply_disturbance(c);
  }
  advance(latency);
  return latency;
}

void DramDevice::hammer_burst(std::span<const PhysAddr> aggressors,
                              std::uint64_t iterations) {
  for (const PhysAddr a : aggressors)
    EXPLFRAME_CHECK(a < geometry_.total_bytes());
  if (aggressors.empty() || iterations == 0) return;

  // --- Warm-up: run the first iteration exactly, then the second while
  // recording which accesses activate. After any full pass, the open row of
  // every touched bank is whatever row the pass last accessed there, so the
  // hit/conflict pattern of iteration 1 repeats verbatim in every later
  // iteration (only these aggressors touch these banks during the burst).
  std::uint64_t done = 0;
  for (const PhysAddr a : aggressors) access(a);
  if (++done == iterations) return;

  // --- Steady-state schedule, read off the second iteration: per-iteration
  // latency and activation count, the per-iteration disturbance increments
  // of each weak victim row, and the per-iteration activation multiplicity
  // of each aggressor row (what the TRR sampler observes).
  SimTime iter_latency = 0;
  std::uint64_t acts_per_iter = 0;
  std::vector<BurstVictim>& victims = burst_.victims;
  std::vector<BurstAggressor>& agg_rows = burst_.aggressors;
  victims.clear();
  agg_rows.clear();
  const RowIndex& weak = weak_cells_.row_index();
  const auto victim_at = [&](std::uint64_t flat, std::size_t ordinal,
                             const DramAddress& coord) -> BurstVictim& {
    for (BurstVictim& v : victims)
      if (v.flat == flat) return v;
    victims.push_back({flat, ordinal, coord, 0, 0});
    return victims.back();
  };
  for (const PhysAddr a : aggressors) {
    const DramAddress coord = mapping_.decode(a);
    const std::uint64_t flat = flat_row(geometry_, coord);
    const bool activates = state_.open_row[flat_bank(geometry_, coord)] !=
                           static_cast<std::int64_t>(coord.row);
    access(a);
    iter_latency += activates ? params_.timings.row_conflict_ns
                              : params_.timings.row_hit_ns;
    if (!activates) continue;
    ++acts_per_iter;
    bool known = false;
    for (BurstAggressor& r : agg_rows)
      if (r.flat == flat) {
        ++r.per_iter;
        known = true;
        break;
      }
    if (!known) agg_rows.push_back({flat, 1});
    if (coord.row > 0) {
      const std::size_t o = weak.find(flat - 1);
      if (o != RowIndex::kNpos) {
        DramAddress v = coord;
        v.row -= 1;
        v.col = 0;
        ++victim_at(flat - 1, o, v).below;
      }
    }
    if (coord.row + 1 < geometry_.rows_per_bank) {
      const std::size_t o = weak.find(flat + 1);
      if (o != RowIndex::kNpos) {
        DramAddress v = coord;
        v.row += 1;
        v.col = 0;
        ++victim_at(flat + 1, o, v).above;
      }
    }
  }
  if (++done == iterations) return;

  // --- Fast-path eligibility. The analytic sampler model relies on every
  // activated row staying tracked between refreshes: true when the rows fit
  // the sampler and all survived the warm-up insertions (after the first
  // refresh clears the sampler, only burst rows repopulate it, so no later
  // insertion can evict). A zero per-iteration latency would make the
  // refresh boundary unsolvable. Otherwise, stay on the exact loop.
  bool fast = iter_latency > 0;
  if (fast && params_.trr.enabled) {
    if (agg_rows.size() > params_.trr.sampler_entries) fast = false;
    for (const BurstAggressor& r : agg_rows)
      if (fast && state_.trr_sampler.find(r.flat) == TrrSampler::kNpos)
        fast = false;
  }
  if (!fast) {
    for (; done < iterations; ++done)
      for (const PhysAddr a : aggressors) access(a);
    return;
  }

  // Apply `n` eventless iterations in bulk. Counter arithmetic is modular
  // like the slow path's, and touch() validates absent entries exactly
  // where the per-access increments would have created them.
  const auto bulk_apply = [&](std::uint64_t n) {
    state_.now += n * iter_latency;
    state_.total_acts += n * acts_per_iter;
    for (const BurstVictim& v : victims) {
      const DisturbanceTable::Counters c = disturbance_.touch(v.ordinal);
      c.above += static_cast<std::uint32_t>(n * v.above);
      c.below += static_cast<std::uint32_t>(n * v.below);
    }
    if (params_.trr.enabled)
      for (const BurstAggressor& r : agg_rows) {
        std::size_t slot = state_.trr_sampler.find(r.flat);
        if (slot == TrrSampler::kNpos) slot = state_.trr_sampler.insert(r.flat);
        state_.trr_sampler.add(slot,
                               static_cast<std::uint32_t>(n * r.per_iter));
      }
  };

  // TRR cycles. Record the burst's dynamic state after each replayed
  // iteration that held an intervention: the aggressor rows' sampler counts
  // (an untracked row counts as 0; it is re-inserted without eviction, since
  // only burst rows populate the sampler after a refresh) and every victim
  // row's counters. Everything else the step reads is constant while
  // (total_flips, refreshes) is: stored bytes, open rows at an iteration
  // boundary, the sampler's other rows. So when a later intervention
  // iteration reproduces a record of the same key, the iterations between
  // the two are an exact cycle of the model, and it repeats until the next
  // refresh. The history keeps the last kCycleHistory records, so a cycle
  // spanning several interventions is found too: aggressors that intervene
  // out of phase, or at different rates ({a, b, a, c} activates a twice).
  constexpr std::size_t kCycleHistory = 8;
  const std::size_t width = agg_rows.size() + 2 * victims.size();
  std::vector<std::uint32_t>& states = burst_.cycle_states;
  std::vector<CycleMark>& marks = burst_.cycle_marks;
  states.resize((kCycleHistory + 1) * width);
  marks.resize(kCycleHistory);
  std::uint64_t key_flips = state_.total_flips;
  std::uint64_t key_refreshes = state_.refreshes;
  std::size_t recorded = 0;
  // Called after an intervention iteration, `at` iterations into the
  // burst with `left` to go: applies every whole cycle that ends before
  // the next refresh and within the burst, and returns the iterations
  // skipped (0 when the state is new, which records it).
  const auto skip_cycles = [&](std::uint64_t at,
                               std::uint64_t left) -> std::uint64_t {
    if (state_.total_flips != key_flips || state_.refreshes != key_refreshes) {
      key_flips = state_.total_flips;
      key_refreshes = state_.refreshes;
      recorded = 0;
    }
    std::uint32_t* current = states.data() + kCycleHistory * width;
    std::size_t w = 0;
    for (const BurstAggressor& r : agg_rows) {
      const std::size_t slot = state_.trr_sampler.find(r.flat);
      current[w++] =
          slot != TrrSampler::kNpos ? state_.trr_sampler.count(slot) : 0;
    }
    for (const BurstVictim& v : victims) {
      current[w++] = disturbance_.above(v.ordinal);
      current[w++] = disturbance_.below(v.ordinal);
    }
    for (std::size_t j = 0; j < std::min(recorded, kCycleHistory); ++j) {
      if (!std::equal(current, current + width, states.data() + j * width))
        continue;
      // advance() keeps state_.now < state_.next_refresh, and a cycle must
      // end strictly before the boundary (reaching it refreshes).
      const std::uint64_t period = at - marks[j].at;
      const SimTime cycle_ns = period * iter_latency;
      const std::uint64_t hits_per_cycle = state_.trr_hits - marks[j].trr_hits;
      const std::uint64_t k =
          std::min(left / period,
                   (state_.next_refresh - state_.now - 1) / cycle_ns);
      state_.now += k * cycle_ns;
      state_.total_acts += k * period * acts_per_iter;
      state_.trr_hits += k * hits_per_cycle;
      return k * period;
    }
    const std::size_t slot = recorded % kCycleHistory;
    std::copy(current, current + width, states.data() + slot * width);
    marks[slot] = {at, state_.trr_hits};
    ++recorded;
    return 0;
  };

  std::uint64_t rem = iterations - done;
  while (rem > 0) {
    // Find the earliest iteration (1-based from here) containing an event.
    // Between events nothing observable happens, so those iterations can be
    // bulk-applied; the event iteration itself is replayed per-access,
    // which reproduces intra-iteration ordering (flip vs TRR vs refresh)
    // exactly.
    std::uint64_t next_event = rem + 1;

    // (a) Refresh: first iteration whose running clock reaches the window
    // boundary (advance() guarantees state_.now < state_.next_refresh here).
    {
      const SimTime until = state_.next_refresh - state_.now;
      const std::uint64_t i = (until + iter_latency - 1) / iter_latency;
      next_event = std::min(next_event, std::max<std::uint64_t>(i, 1));
    }

    // (b) TRR intervention: a tracked aggressor's activation count reaches
    // the threshold. Counts stay below the threshold between events, so the
    // crossing iteration follows from the per-iteration multiplicity.
    if (params_.trr.enabled) {
      for (const BurstAggressor& r : agg_rows) {
        const std::size_t slot = state_.trr_sampler.find(r.flat);
        const std::uint64_t count =
            slot != TrrSampler::kNpos ? state_.trr_sampler.count(slot) : 0;
        const std::uint64_t needed =
            params_.trr.threshold > count ? params_.trr.threshold - count : 1;
        next_event =
            std::min(next_event, (needed + r.per_iter - 1) / r.per_iter);
      }
    }

    // (c) Weak-cell flip: the first iteration whose end-of-iteration
    // disturbance satisfies the flip condition — a FlipCrossing over the
    // very expression check_victim_row uses, reading thresholds and
    // couplings straight from the packed arena, so the crossing point is
    // exact. Cell data and coupling are constant between events (flips are
    // events themselves), making the condition monotone in the iteration
    // count. Only iterations before the earliest event so far (next_event
    // <= rem + 1) can matter.
    for (const BurstVictim& v : victims) {
      if (next_event == 1) break;
      const WeakCellSpan cells = weak_cells_.cells_of(v.ordinal);
      const std::uint8_t* data = row_view(v.flat);
      Neighbours near{};
      FlipCrossing x;
      x.above = disturbance_.above(v.ordinal);
      x.below = disturbance_.below(v.ordinal);
      x.per_above = v.above;
      x.per_below = v.below;
      for (std::size_t k = 0; k < cells.size(); ++k) {
        const std::size_t o = cells.ordinal(k);
        const std::uint32_t ccol = weak_cells_.col_at(o);
        const std::uint8_t cbit = weak_cells_.bit_at(o);
        const bool stored = (data[ccol] >> cbit) & 1u;
        if (stored != weak_cells_.true_cell_at(o))
          continue;  // not charged: cannot flip
        x.factor = 1.0;
        if (params_.data_pattern_sensitivity) {
          if (near.above == nullptr) near = neighbours(v.flat, v.coord);
          x.factor = pattern_factor(near, ccol, cbit, stored);
        }
        x.couple_above = weak_cells_.couple_above_at(o);
        x.couple_below = weak_cells_.couple_below_at(o);
        x.threshold = static_cast<double>(weak_cells_.threshold_at(o));
        next_event = x.first(next_event - 1);
      }
    }

    if (next_event > rem) {  // nothing left to observe: finish in bulk
      bulk_apply(rem);
      return;
    }
    if (next_event > 1) bulk_apply(next_event - 1);
    rem -= next_event - 1;
    const std::uint64_t hits = state_.trr_hits;
    for (const PhysAddr a : aggressors) access(a);
    --rem;
    if (state_.trr_hits != hits) rem -= skip_cycles(iterations - rem, rem);
  }
}

std::uint64_t FlipCrossing::first(std::uint64_t limit) const noexcept {
  if (limit == 0 || !crosses(limit)) return limit + 1;
  // The real root of the linear condition, rounded up. Rounding can put it
  // an iteration off either way, and a zero factor or slope makes it NaN or
  // infinite; clamping keeps any of those a valid starting point.
  const double slope = static_cast<double>(per_above) * couple_above +
                       static_cast<double>(per_below) * couple_below;
  const double root =
      std::ceil((threshold / factor - static_cast<double>(above) * couple_above -
                 static_cast<double>(below) * couple_below) /
                slope);
  std::uint64_t guess = 1;
  if (root >= static_cast<double>(limit)) {
    guess = limit;
  } else if (root > 1.0) {
    guess = static_cast<std::uint64_t>(root);
  }
  // Gallop from the guess to a bracket (lo, hi] with crosses(hi) and, unless
  // lo == 0, !crosses(lo); then bisect it. Steps double, so both phases
  // take O(log limit) evaluations.
  std::uint64_t lo = 0;
  std::uint64_t hi = limit;
  if (crosses(guess)) {
    hi = guess;
    for (std::uint64_t step = 1; step < hi; step *= 2) {
      if (!crosses(hi - step)) {
        lo = hi - step;
        break;
      }
      hi -= step;
    }
  } else {
    lo = guess;
    for (std::uint64_t step = 1; lo + step < hi; step *= 2) {
      if (crosses(lo + step)) {
        hi = lo + step;
        break;
      }
      lo += step;
    }
  }
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (crosses(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

void DramDevice::inject_flip(PhysAddr addr, std::uint8_t bit) {
  EXPLFRAME_CHECK(addr < geometry_.total_bytes() && bit < 8);
  const DramAddress c = mapping_.decode(addr);
  const std::uint64_t fr = flat_row(geometry_, c);
  std::uint8_t* data = row_storage(fr);
  const bool was_set = (data[c.col] >> bit) & 1u;
  data[c.col] = static_cast<std::uint8_t>(data[c.col] ^ (1u << bit));
  state_.flips.append(addr, bit, !was_set, state_.now);
  state_.live_flips.add(fr, c.col, bit);
  ++state_.total_flips;
  ++state_.mutation_epoch;
}

std::vector<FlipEvent> DramDevice::drain_flips() {
  // Index-sorted emit: events leave in append order, coordinates
  // re-derived from the bijective mapping — no map iteration anywhere.
  std::vector<FlipEvent> out;
  out.reserve(state_.flips.size());
  for (std::size_t i = 0; i < state_.flips.size(); ++i) {
    FlipEvent ev;
    ev.addr = state_.flips.addr_at(i);
    ev.coord = mapping_.decode(ev.addr);
    ev.bit = state_.flips.bit_at(i);
    ev.to_one = state_.flips.to_one_at(i);
    ev.time = state_.flips.time_at(i);
    out.push_back(ev);
  }
  state_.flips.clear();
  return out;
}

std::uint64_t DramDevice::state_bytes() const noexcept {
  return weak_cells_.state_bytes() + disturbance_.heap_bytes() +
         state_.trr_sampler.heap_bytes() + state_.live_flips.heap_bytes() +
         state_.flips.heap_bytes() +
         state_.open_row.capacity() * sizeof(std::int64_t);
}

}  // namespace explframe::dram
