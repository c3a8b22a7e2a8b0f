// The simulated DRAM main memory: byte storage, row-buffer timing, refresh,
// and the Rowhammer disturbance mechanism.
//
// Every physical-memory byte in the simulated machine lives here, so a bit
// flip induced by hammering mutates exactly the data a victim process later
// reads — the fault-analysis pipeline never "declares" a fault out of band.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "dram/address_mapping.hpp"
#include "dram/geometry.hpp"
#include "dram/packed_state.hpp"
#include "dram/weak_cells.hpp"
#include "support/units.hpp"

namespace explframe::dram {

/// Access timings (ns) for the row-buffer model. Values follow typical
/// DDR3-1600 parts.
struct DramTimings {
  SimTime row_hit_ns = 50;       ///< Load served from an open row.
  SimTime row_conflict_ns = 90;  ///< Precharge + activate + read.
  SimTime refresh_window_ns = 64 * kMillisecond;  ///< tREFW.

  bool operator==(const DramTimings&) const = default;
};

/// Target Row Refresh: the in-DRAM mitigation on post-2014 parts. A small
/// per-device sampler tracks frequently activated rows; when a sampled row
/// crosses the threshold its neighbours get a targeted refresh, resetting
/// their disturbance. The finite sampler is what many-sided bypasses exploit
/// (not modelled as an attack here, but the capacity knob exists).
struct TrrParams {
  bool enabled = false;
  std::uint32_t threshold = 20'000;    ///< Activations before intervention.
  std::uint32_t sampler_entries = 32;  ///< Rows tracked concurrently.

  bool operator==(const TrrParams&) const = default;
};

/// SECDED ECC at 64-bit word granularity: one flipped bit per word is
/// corrected on read; two or more are counted as uncorrectable (a machine
/// check on real hardware). Rewriting a word clears its flip records.
struct EccParams {
  bool enabled = false;

  bool operator==(const EccParams&) const = default;
};

/// Everything configurable about the simulated module: timings, weak-cell
/// population, address mapping, data-pattern coupling and the TRR/ECC
/// mitigations.
struct DeviceParams {
  DramTimings timings;
  WeakCellParams weak_cells;
  MappingScheme mapping = MappingScheme::kRowMajor;
  /// If true, a victim cell whose stored bit matches the aggressor-row bit
  /// at the same column couples more weakly (stripe patterns flip best).
  bool data_pattern_sensitivity = true;
  double same_pattern_coupling = 0.6;
  TrrParams trr;
  EccParams ecc;

  bool operator==(const DeviceParams&) const = default;
};

/// Record of one induced bit flip.
struct FlipEvent {
  PhysAddr addr = 0;       ///< Physical byte address of the flipped bit.
  DramAddress coord;       ///< Decoded coordinate.
  std::uint8_t bit = 0;    ///< Bit index within the byte.
  bool to_one = false;     ///< Direction: false = 1->0, true = 0->1.
  SimTime time = 0;        ///< Device clock at flip.
};

/// The flip condition of one charged weak cell over a steady hammer burst,
/// as a function of the iteration count `i`: its disturbance starts at
/// (`above`, `below`) and grows by (`per_above`, `per_below`) per
/// iteration. `crosses(i)` is the expression DramDevice's per-access victim
/// check evaluates after `i` more iterations. Every step of it is monotone
/// for non-negative couplings and factor, so it is false up to one
/// iteration and true from there on.
struct FlipCrossing {
  std::uint32_t above = 0;      ///< acts_above at iteration 0.
  std::uint32_t below = 0;      ///< acts_below at iteration 0.
  std::uint32_t per_above = 0;  ///< acts_above added per iteration.
  std::uint32_t per_below = 0;  ///< acts_below added per iteration.
  float couple_above = 0.0F;    ///< The cell's coupling to row-1.
  float couple_below = 0.0F;    ///< The cell's coupling to row+1.
  /// Data-pattern factor: 1, or same_pattern_coupling when neither
  /// neighbour holds the opposite bit.
  double factor = 1.0;
  double threshold = 0.0;  ///< The cell's activation threshold.

  /// Whether the cell has flipped by the end of iteration `i`.
  bool crosses(std::uint64_t i) const noexcept {
    double effective =
        static_cast<double>(above + i * per_above) * couple_above +
        static_cast<double>(below + i * per_below) * couple_below;
    effective *= factor;
    return effective >= threshold;
  }
  /// The first `i` in [1, limit] with crosses(i), or limit + 1 if none.
  /// Starts from the linear condition's real root, rounded up and clamped
  /// to [1, limit], then gallops and bisects to the exact answer: a few
  /// evaluations when the root is close, O(log limit) at worst (a zero
  /// factor or slope, a NaN or infinite root).
  std::uint64_t first(std::uint64_t limit) const noexcept;
};

/// The simulated DRAM module: row storage (CoW, lazily allocated),
/// row-buffer and refresh bookkeeping, disturbance accumulation with an
/// event-stepped burst fast path, TRR sampling and SECDED ECC filtering.
/// Every stored byte and flip event is deterministic in (geometry,
/// params, seed).
class DramDevice {
 public:
  DramDevice(const Geometry& geometry, const DeviceParams& params,
             std::uint64_t seed);

  /// Disturbance accumulated by one weak row this refresh window.
  struct RowDisturbance {
    std::uint32_t acts_above = 0;  ///< Activations of row-1 this window.
    std::uint32_t acts_below = 0;  ///< Activations of row+1 this window.
  };
  /// A flipped-but-not-yet-rewritten bit (ECC bookkeeping).
  struct LiveFlip {
    std::uint32_t col;
    std::uint8_t bit;
  };

  /// Every mutable member except the disturbance counters: a snapshot
  /// copies it whole. Row payloads are refcounted, so the copy shares them
  /// with the live device and a row is cloned only when one side writes
  /// (see row_storage()); capturing is O(rows touched), not O(bytes
  /// stored). The immutable members (geometry, params, mapping, weak-cell
  /// model) stay out of it: an image only ever goes back into the device
  /// that produced it.
  struct State {
    std::unordered_map<std::uint64_t, std::shared_ptr<std::uint8_t[]>> rows;
    std::vector<std::int64_t> open_row;  ///< Per flat bank; -1 = closed.
    FlipLog flips;              ///< Flip events since the last drain.
    LiveFlipTable live_flips;   ///< Flipped, not yet rewritten (ECC).
    TrrSampler trr_sampler;     ///< Tracked rows' activations this window.
    SimTime now = 0;
    SimTime next_refresh = 0;
    std::uint64_t mutation_epoch = 0;
    std::uint64_t total_flips = 0;
    std::uint64_t total_acts = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t trr_hits = 0;
    std::uint64_t ecc_corrected = 0;
    std::uint64_t ecc_uncorrectable = 0;
  };
  /// A snapshot of the device: the State plus the disturbance entries
  /// touched this window (captured in O(entries touched), not O(weak
  /// rows)).
  struct Image {
    State state;
    std::vector<DisturbanceTable::Entry> disturbance;
  };

  /// Capture the full mutable state (CoW; see Image).
  Image capture_image() const;
  /// Restore a previously captured image exactly — except the mutation
  /// epoch, which lands strictly above both the live and the captured
  /// value so epoch-keyed caches can never mistake pre-rollback state for
  /// post-rollback state (see mutation_epoch()).
  void restore_image(const Image& image);

  const Geometry& geometry() const noexcept { return geometry_; }
  const AddressMapping& mapping() const noexcept { return mapping_; }
  const WeakCellModel& weak_cells() const noexcept { return weak_cells_; }
  const DeviceParams& params() const noexcept { return params_; }

  // ---- Data path -----------------------------------------------------
  void read(PhysAddr addr, std::span<std::uint8_t> out);
  void write(PhysAddr addr, std::span<const std::uint8_t> in);
  std::uint8_t read_byte(PhysAddr addr);
  void write_byte(PhysAddr addr, std::uint8_t value);
  void fill(PhysAddr addr, std::uint8_t value, std::uint64_t len);

  // ---- Timing-visible access path (the attacker's view) ---------------
  /// Perform one uncached access: opens the row (activating it, which also
  /// exerts Rowhammer disturbance on neighbours), advances the clock by the
  /// latency and returns it. hammer_burst is the production path over it;
  /// this single step is the per-access oracle the burst is tested against.
  SimTime access(PhysAddr addr);

  /// Batched hammer: equivalent to `iterations` rounds of `access()` over
  /// `aggressors` in order, but instead of stepping the model once per
  /// activation it advances the clock analytically between "interesting"
  /// events — refresh-window boundaries, TRR interventions and weak-cell
  /// threshold crossings — and replays only the iterations containing such
  /// an event through the exact per-access path. The next refresh and the
  /// next TRR intervention follow in closed form from the clock and the
  /// sampler counts; each charged cell's crossing is a FlipCrossing guessed
  /// in closed form and settled exactly. Finding the next event costs
  /// O(weak cells of the victim rows), with no weak-row lookups.
  ///
  /// TRR makes the events periodic: between two refreshes, with no flip,
  /// the burst's dynamic state (the aggressor rows' sampler counts and the
  /// victim rows' disturbance counters) after an intervention iteration
  /// recurs after a fixed number of iterations. Every other input of the
  /// step — stored bytes, open rows, the rest of the sampler — is constant
  /// while no bit flips, so from a recurring state the model repeats the
  /// same iterations exactly. The burst records that state after each
  /// replayed intervention iteration, keyed by (flips, refreshes); when a
  /// later one reproduces a record, it applies as many whole cycles as end
  /// before the next refresh and within the burst in O(1) (clock,
  /// activations and TRR interventions advance by whole multiples), then
  /// resumes stepping. A burst therefore costs O(refresh windows), not
  /// O(TRR interventions).
  ///
  /// Bit-identical to the slow loop: same flip sequence
  /// (addr/bit/direction/time), same refresh count, same TRR interventions
  /// and ECC bookkeeping, same sampler and disturbance state. Falls back to
  /// the per-access loop for configurations the analytic model does not
  /// cover (zero-latency timings, TRR sampler thrashing). Allocates nothing
  /// once the device's burst scratch has grown to the burst's shape.
  void hammer_burst(std::span<const PhysAddr> aggressors,
                    std::uint64_t iterations);

  // ---- Maintenance -----------------------------------------------------
  /// Advance the device clock by `dt` without accesses (models the
  /// attacker waiting), running every refresh that falls due.
  void advance(SimTime dt);

  /// Force a full refresh now (normally triggered by the internal clock).
  void refresh_now();

  /// Deterministically flip one stored bit (fault-injection hook for tests
  /// and controlled experiments): toggles the bit, logs a FlipEvent and
  /// registers it with the ECC bookkeeping exactly like a disturbance flip.
  void inject_flip(PhysAddr addr, std::uint8_t bit);

  SimTime now() const noexcept { return state_.now; }

  /// Memory-mutation epoch: increments whenever stored bytes (or the ECC
  /// bookkeeping that shapes what read() returns) may have changed — every
  /// write/fill, every disturbance flip, every injected flip. Two read()s of
  /// the same range bracketed by an unchanged epoch return identical bytes,
  /// which is the invalidation contract the victim service's batched
  /// encrypt snapshot cache is built on.
  std::uint64_t mutation_epoch() const noexcept {
    return state_.mutation_epoch;
  }

  // ---- Flip log / statistics -------------------------------------------
  /// All flips since the last drain (in occurrence order).
  std::vector<FlipEvent> drain_flips();
  std::uint64_t total_flips() const noexcept { return state_.total_flips; }
  std::uint64_t total_activations() const noexcept { return state_.total_acts; }
  std::uint64_t refresh_count() const noexcept { return state_.refreshes; }
  std::uint64_t trr_interventions() const noexcept { return state_.trr_hits; }
  std::uint64_t ecc_corrected_bits() const noexcept {
    return state_.ecc_corrected;
  }
  std::uint64_t ecc_uncorrectable_words() const noexcept {
    return state_.ecc_uncorrectable;
  }

  /// Heap bytes of the representation-dependent bookkeeping (weak-cell
  /// arena, disturbance counters, TRR sampler, flip tables, row-buffer
  /// state) — what bench_geometry compares against the seed layout. Row
  /// payloads are excluded: both representations store those identically.
  std::uint64_t state_bytes() const noexcept;

 private:
  std::uint8_t* row_storage(std::uint64_t flat_row);
  const std::uint8_t* row_view(std::uint64_t flat_row) const;
  void apply_disturbance(const DramAddress& aggressor);
  void check_victim_row(std::uint64_t victim_flat, std::size_t weak_ordinal,
                        const DramAddress& victim, const RowDisturbance& d);
  /// The bytes of the rows above and below a victim row, for the
  /// data-pattern check: an untouched or out-of-bank neighbour reads as
  /// zeros.
  struct Neighbours {
    const std::uint8_t* above;
    const std::uint8_t* below;
  };
  Neighbours neighbours(std::uint64_t victim_flat,
                        const DramAddress& victim) const;
  /// The data-pattern factor of a charged cell: 1 when either neighbour
  /// holds the opposite bit at (col, bit) (a stripe), else
  /// same_pattern_coupling.
  double pattern_factor(const Neighbours& n, std::uint32_t col,
                        std::uint8_t bit, bool stored) const;
  void trr_observe(std::uint64_t aggressor_flat);
  void clear_live_flips(std::uint64_t flat_row, std::uint32_t col,
                        std::uint64_t len);
  void ecc_filter(std::uint64_t flat_row, std::uint32_t col,
                  std::span<std::uint8_t> chunk);

  /// A weak row the burst disturbs, with its per-iteration increments.
  struct BurstVictim {
    std::uint64_t flat = 0;
    std::size_t ordinal = 0;  ///< Weak-row ordinal in the packed arena.
    DramAddress coord;        ///< Victim row, col 0 (for the pattern check).
    std::uint32_t above = 0;  ///< acts_above increments per iteration.
    std::uint32_t below = 0;  ///< acts_below increments per iteration.
  };
  /// An aggressor row and its activations per iteration (what the TRR
  /// sampler observes).
  struct BurstAggressor {
    std::uint64_t flat = 0;
    std::uint32_t per_iter = 0;
  };
  /// Where a recorded TRR cycle state was taken.
  struct CycleMark {
    std::uint64_t at = 0;        ///< Burst iterations done.
    std::uint64_t trr_hits = 0;  ///< TRR interventions so far.
  };
  /// hammer_burst's working lists, reused from burst to burst so that a
  /// burst allocates nothing once they have grown. Every burst rebuilds
  /// them, so they are not device state: snapshots neither copy nor
  /// compare them.
  struct BurstScratch {
    std::vector<BurstVictim> victims;
    std::vector<BurstAggressor> aggressors;
    /// Recorded cycle states, one per mark, each the aggressors' sampler
    /// counts then every victim's (above, below); one more slot at the end
    /// holds the state under test.
    std::vector<std::uint32_t> cycle_states;
    std::vector<CycleMark> cycle_marks;
  };

  Geometry geometry_;
  DeviceParams params_;
  AddressMapping mapping_;
  WeakCellModel weak_cells_;

  // Canonical all-zeros row, backing row_view() for untouched rows.
  std::unique_ptr<std::uint8_t[]> zero_row_;

  // Disturbance counters for rows that contain weak cells, this window —
  // flat arrays over weak-row ordinals, allocated on the first activation
  // (the weak-cell arena's RowIndex doubles as the presence test the
  // seed's weak_row_ byte array provided, without the byte-per-row memory
  // floor).
  DisturbanceTable disturbance_;

  State state_;
  BurstScratch burst_;
};

}  // namespace explframe::dram
