// snap::Snapshot / snap::Restorable — the copy-on-write checkpoint seam.
//
// A Restorable object can capture its complete observable state into an
// opaque Snapshot and later restore it exactly. The contract is strict:
//
//   * snapshot() is CHEAP. Implementations share bulk payloads (DRAM row
//     backing stores) between the live object and the snapshot via
//     refcounted pages; the live side copies a page only when it is next
//     written (copy-on-write). Capturing must not deep-copy row data.
//   * restore() is EXACT. After restore(s), every subsequent observable
//     behaviour (simulated time, RNG-free replay of the same operation
//     sequence, report bytes) is bit-identical to what it would have been
//     right after s was captured — with one deliberate exception: the
//     memory mutation epoch strictly advances across restore so caches
//     keyed on it (attack::VictimCipherService's batch context) can never
//     confuse pre- and post-rollback state.
//   * A Snapshot is immutable and reusable: restoring from it any number
//     of times, in any order with other snapshots of the same object,
//     always reproduces the same state.
//
// Campaigns "fork a trial from the post-templating snapshot" by restoring
// the machine and re-running the per-trial phases.
#pragma once

#include <memory>

namespace explframe::snap {

/// Opaque state capture. Concrete Restorable implementations define a
/// private subclass holding their image; the base exists so callers can
/// hold and sequence snapshots (snap::Timeline) without knowing the type.
class Snapshot {
 public:
  virtual ~Snapshot() = default;

 protected:
  Snapshot() = default;
};

/// Interface for objects that support exact checkpoint/rollback.
class Restorable {
 public:
  virtual ~Restorable() = default;

  /// Capture the current state. Cheap (CoW): bulk payloads are shared,
  /// not copied. The returned snapshot stays valid for the lifetime of
  /// this object and may be restored from any number of times.
  virtual std::unique_ptr<Snapshot> snapshot() const = 0;

  /// Roll state back to `state`, which must have been produced by this
  /// object's snapshot() (CHECK-fails otherwise). Exact, per the contract
  /// in the file comment.
  virtual void restore(const Snapshot& state) = 0;
};

}  // namespace explframe::snap
