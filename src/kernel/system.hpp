// The simulated machine: DRAM device + zoned page allocator + tasks, with
// the syscall-level operations the attack story is written in (mmap, munmap,
// memory access, and the flush+load hammer burst).
//
// Demand paging is the linchpin: mmap only reserves virtual space; the
// physical frame is allocated on first touch, on the CPU the faulting task
// runs on, through that CPU's page frame cache — which is exactly the
// machinery §V of the paper exploits.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dram/dram_device.hpp"
#include "mm/page_allocator.hpp"
#include "kernel/task.hpp"
#include "snapshot/restorable.hpp"

namespace explframe::kernel {

/// Machine shape: memory size, CPUs, DRAM module parameters, allocator
/// tuning and the master seed everything deterministic derives from.
struct SystemConfig {
  std::uint64_t memory_bytes = 256 * kMiB;
  std::uint32_t num_cpus = 2;
  mm::PcpConfig pcp;
  dram::DeviceParams dram;
  std::uint64_t seed = 1;
  /// Zero user pages on allocation (Linux __GFP_ZERO for anon memory).
  bool zero_on_alloc = true;
  /// Charge page-table node pages to the allocator (realistic; see the
  /// `design-ablations` experiment).
  bool charge_page_tables = true;

  bool operator==(const SystemConfig&) const = default;
};

/// Kernel-side event counters (faults, OOM kills, charged table frames).
struct SystemStats {
  std::uint64_t page_faults = 0;
  std::uint64_t oom_kills = 0;
  std::uint64_t table_frames = 0;

  bool operator==(const SystemStats&) const = default;
};

/// The simulated machine: DRAM device + zoned page allocator + tasks,
/// exposing the syscall-level surface (mmap/munmap/mem access), the
/// flush+load hammer burst, and exact snapshot/restore of the whole state
/// (snap::Restorable).
class System : public snap::Restorable {
 public:
  explicit System(const SystemConfig& config);
  /// Tears tasks down LIFO with tasks_ kept consistent throughout: a dying
  /// task's ~PageTable releases node frames through a FrameClient that calls
  /// find_task(), so the implicit vector destruction (which iterates a
  /// half-destroyed tasks_) would be undefined behaviour.
  ~System() override;

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // ---- Snapshot / fork (snap::Restorable) --------------------------------
  /// Capture the complete machine state — DRAM (CoW row payloads), page
  /// allocator, every task's address space, stats. Cheap: row data is
  /// shared with the snapshot, not copied.
  std::unique_ptr<snap::Snapshot> snapshot() const override;
  /// Roll the machine back exactly. Tasks spawned after the capture are
  /// destroyed; surviving Task objects are restored IN PLACE (their
  /// addresses stay valid, so components holding Task& keep working across
  /// a rollback). The memory epoch strictly advances so epoch-keyed caches
  /// (victim batch-encrypt) can never serve pre-rollback state.
  void restore(const snap::Snapshot& state) override;
  /// The machine's own mutable state beside its layers (DRAM, allocator,
  /// tasks); a snapshot copies it whole.
  struct State {
    SystemStats stats;
    std::int32_t next_task_id = 1;
  };

  // ---- Process management -----------------------------------------------
  Task& spawn(const std::string& name, std::uint32_t cpu);
  Task* find_task(std::int32_t id);

  // ---- Syscalls ----------------------------------------------------------
  vm::VirtAddr sys_mmap(Task& task, std::uint64_t length);
  bool sys_munmap(Task& task, vm::VirtAddr addr, std::uint64_t length);

  // ---- Memory access (cached data path) ----------------------------------
  /// Copy to/from the task's memory; demand-faults absent pages. Returns
  /// false on an invalid access (segfault) or allocation failure (OOM).
  bool mem_write(Task& task, vm::VirtAddr va, std::span<const std::uint8_t> in);
  bool mem_read(Task& task, vm::VirtAddr va, std::span<std::uint8_t> out);
  /// Fault one page in; false on a segfault or OOM.
  bool touch(Task& task, vm::VirtAddr va) {
    return frame_of(task, va) != mm::kInvalidPfn;
  }

  // ---- Hammer path (flush+load; also the row-conflict timing probe) -------
  /// `iterations` rounds of one flush+load of each of `aggressors` in order:
  /// demand-faults and translates each address once, then drives
  /// DramDevice::hammer_burst (bit-identical to per-access
  /// DramDevice::access: flips, refreshes and simulated time). Returns the
  /// simulated time spent, which is the sum of the per-access latencies, so
  /// a short burst over a pair is also the row-conflict timing probe.
  /// Returns 0 if any address is invalid (nothing is accessed then).
  SimTime hammer_burst(Task& task, std::span<const vm::VirtAddr> aggressors,
                       std::uint64_t iterations);

  // ---- Kernel-side introspection (harness ground truth, not attack API) ---
  /// Current translation, or kInvalidPfn if not present. Does not fault.
  mm::Pfn translate(const Task& task, vm::VirtAddr va) const;
  dram::PhysAddr phys_of(const Task& task, vm::VirtAddr va) const;

  dram::DramDevice& dram() noexcept { return *dram_; }
  const dram::DramDevice& dram() const noexcept { return *dram_; }
  mm::PageAllocator& allocator() noexcept { return *alloc_; }
  const mm::PageAllocator& allocator() const noexcept { return *alloc_; }
  const SystemConfig& config() const noexcept { return config_; }
  const SystemStats& stats() const noexcept { return state_.stats; }
  std::uint32_t num_cpus() const noexcept { return config_.num_cpus; }

  SimTime now() const noexcept { return dram_->now(); }

  /// Memory-mutation epoch of the backing DRAM: changes whenever any stored
  /// byte (or ECC bookkeeping shaping reads) may have changed — hammer
  /// flips, defence interventions, any task's writes, demand-fault zeroing.
  /// Snapshot caches (VictimCipherService::encrypt_batch) revalidate
  /// against it.
  std::uint64_t memory_epoch() const noexcept {
    return dram_->mutation_epoch();
  }

 private:
  /// The frame backing `va`'s page, demand-faulting it in on a miss;
  /// kInvalidPfn on a segfault or OOM.
  mm::Pfn frame_of(Task& task, vm::VirtAddr va);
  /// Fault in each page `bytes` spans from `va`, in order, and call
  /// access(phys, chunk) with the part of `bytes` that page holds. Stops
  /// with false at the first page that cannot be faulted in.
  template <typename Bytes, typename Access>
  bool for_each_chunk(Task& task, vm::VirtAddr va, Bytes bytes, Access access);
  mm::Pfn alloc_user_frame(Task& task);
  vm::FrameClient table_frame_client(std::int32_t task_id,
                                     std::uint32_t spawn_cpu);

  SystemConfig config_;
  std::unique_ptr<dram::DramDevice> dram_;
  std::unique_ptr<mm::PageAllocator> alloc_;
  std::vector<std::unique_ptr<Task>> tasks_;
  State state_;
  /// hammer_burst's translated aggressors, reused from call to call so a
  /// burst allocates nothing; not machine state (snapshots skip it).
  std::vector<dram::PhysAddr> burst_phys_;
};

}  // namespace explframe::kernel
