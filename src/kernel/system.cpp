#include "kernel/system.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/log.hpp"

namespace explframe::kernel {

namespace {

/// The physical address of `va` within its page's frame `pfn`.
dram::PhysAddr phys_addr(mm::Pfn pfn, vm::VirtAddr va) {
  return static_cast<dram::PhysAddr>(pfn) * kPageSize + (va & (kPageSize - 1));
}

}  // namespace

/// The concrete snapshot System produces: one image per layer, bound to
/// the owning System so a foreign snapshot is rejected on restore. Task id
/// and name are immutable and identify each task's slot.
class MachineSnapshot final : public snap::Snapshot {
 public:
  struct TaskImage {
    std::int32_t id = 0;
    Task::State state;
    vm::AddressSpace::Image space;
  };
  const System* owner = nullptr;
  dram::DramDevice::Image dram;
  mm::PageAllocator::Image alloc;
  std::vector<TaskImage> tasks;
  System::State state;
};

std::unique_ptr<snap::Snapshot> System::snapshot() const {
  auto snap = std::make_unique<MachineSnapshot>();
  snap->owner = this;
  snap->dram = dram_->capture_image();
  snap->alloc = alloc_->capture_image();
  for (const auto& t : tasks_)
    snap->tasks.push_back({t->id(), t->state(), t->space().capture_image()});
  snap->state = state_;
  return snap;
}

void System::restore(const snap::Snapshot& state) {
  const auto* snap = dynamic_cast<const MachineSnapshot*>(&state);
  EXPLFRAME_CHECK_MSG(snap != nullptr && snap->owner == this,
                      "restore from a snapshot of a different machine");
  // Task ids are monotonic and tasks_ is append-only, so the snapshot's
  // task list is a strict prefix of the live one.
  EXPLFRAME_CHECK(tasks_.size() >= snap->tasks.size());
  for (std::size_t i = 0; i < snap->tasks.size(); ++i)
    EXPLFRAME_CHECK(tasks_[i]->id() == snap->tasks[i].id);
  // Destroy tasks spawned after the capture FIRST: their page-table frame
  // releases mutate the live (doomed) allocator, which is restored right
  // after. Move each task out of tasks_ before destroying it — the dtor's
  // FrameClient calls find_task(), which iterates tasks_.
  while (tasks_.size() > snap->tasks.size()) {
    std::unique_ptr<Task> dying = std::move(tasks_.back());
    tasks_.pop_back();
    dying.reset();
  }
  dram_->restore_image(snap->dram);  // epoch strictly advances here
  alloc_->restore_image(snap->alloc);
  // Surviving tasks restore in place: Task addresses (held by campaign
  // components as Task&) stay valid across the rollback.
  for (std::size_t i = 0; i < snap->tasks.size(); ++i) {
    tasks_[i]->restore(snap->tasks[i].state);
    tasks_[i]->space().restore_image(snap->tasks[i].space);
  }
  state_ = snap->state;
}

System::System(const SystemConfig& config) : config_(config) {
  dram_ = std::make_unique<dram::DramDevice>(
      dram::Geometry::with_capacity(config.memory_bytes), config.dram,
      config.seed);
  mm::AllocatorConfig ac;
  ac.total_bytes = config.memory_bytes;
  ac.num_cpus = config.num_cpus;
  ac.pcp = config.pcp;
  alloc_ = std::make_unique<mm::PageAllocator>(ac);
}

System::~System() {
  // Same discipline as restore(): move each task out of tasks_ before its
  // destructor runs, newest first. The FrameClient free hook a dying
  // ~PageTable fires walks tasks_ via find_task(), so the vector must only
  // ever hold live tasks while any destructor is in flight (the implicit
  // member destruction order would hand it half-destroyed entries).
  while (!tasks_.empty()) {
    std::unique_ptr<Task> dying = std::move(tasks_.back());
    tasks_.pop_back();
  }
}

vm::FrameClient System::table_frame_client(std::int32_t task_id,
                                           std::uint32_t spawn_cpu) {
  if (!config_.charge_page_tables) return {};
  return vm::FrameClient{
      // Page-table pages are kernel order-0 allocations on the faulting
      // task's current CPU — they travel through the same pcp cache as
      // user data pages. During spawn (before the task is registered) the
      // spawn CPU is used.
      [this, task_id, spawn_cpu]() -> mm::Pfn {
        Task* task = find_task(task_id);
        const std::uint32_t cpu = task ? task->cpu() : spawn_cpu;
        const auto a =
            alloc_->alloc_pages(0, mm::GfpFlags::kernel(), cpu, task_id);
        if (!a) return mm::kInvalidPfn;
        ++state_.stats.table_frames;
        return a->pfn;
      },
      [this, task_id, spawn_cpu](mm::Pfn pfn) {
        Task* task = find_task(task_id);
        const std::uint32_t cpu = task ? task->cpu() : spawn_cpu;
        alloc_->free_pages(pfn, 0, cpu);
        --state_.stats.table_frames;
      }};
}

Task& System::spawn(const std::string& name, std::uint32_t cpu) {
  EXPLFRAME_CHECK(cpu < config_.num_cpus);
  const std::int32_t id = state_.next_task_id++;
  tasks_.push_back(
      std::make_unique<Task>(id, name, cpu, table_frame_client(id, cpu)));
  EXPLFRAME_LOG_DEBUG("spawn task ", id, " '", name, "' on cpu ", cpu);
  return *tasks_.back();
}

Task* System::find_task(std::int32_t id) {
  for (auto& t : tasks_)
    if (t && t->id() == id) return t.get();
  return nullptr;
}

vm::VirtAddr System::sys_mmap(Task& task, std::uint64_t length) {
  return task.space().mmap(length);
}

bool System::sys_munmap(Task& task, vm::VirtAddr addr, std::uint64_t length) {
  const std::uint32_t cpu = task.cpu();
  return task.space().munmap(addr, length, [this, cpu](mm::Pfn pfn) {
    // The freed frame lands at the hot head of this CPU's page frame cache.
    alloc_->free_pages(pfn, 0, cpu);
  });
}

mm::Pfn System::alloc_user_frame(Task& task) {
  const auto a =
      alloc_->alloc_pages(0, mm::GfpFlags::user(), task.cpu(), task.id());
  if (!a) return mm::kInvalidPfn;
  if (config_.zero_on_alloc) {
    dram_->fill(static_cast<dram::PhysAddr>(a->pfn) * kPageSize, 0, kPageSize);
  }
  return a->pfn;
}

mm::Pfn System::frame_of(Task& task, vm::VirtAddr va) {
  const vm::VirtAddr page = va & ~vm::VirtAddr{kPageSize - 1};
  vm::PageTable& table = task.space().page_table();
  if (const vm::Pte* pte = table.find(page)) return pte->pfn;
  if (!task.space().valid(page)) return mm::kInvalidPfn;  // SIGSEGV
  // As in Linux's do_anonymous_page: the page-table path is allocated
  // (pte_alloc) before the data page itself.
  if (!table.prepare(page)) {
    ++state_.stats.oom_kills;
    return mm::kInvalidPfn;
  }
  const mm::Pfn pfn = alloc_user_frame(task);
  if (pfn == mm::kInvalidPfn) {
    ++state_.stats.oom_kills;
    return mm::kInvalidPfn;
  }
  EXPLFRAME_CHECK(table.map(page, pfn));
  ++state_.stats.page_faults;
  ++task.space().counters().minor_faults;
  return pfn;
}

template <typename Bytes, typename Access>
bool System::for_each_chunk(Task& task, vm::VirtAddr va, Bytes bytes,
                            Access access) {
  for (std::size_t done = 0; done < bytes.size();) {
    const vm::VirtAddr cur = va + done;
    const mm::Pfn pfn = frame_of(task, cur);
    if (pfn == mm::kInvalidPfn) return false;
    const std::size_t chunk =
        std::min(bytes.size() - done, kPageSize - (cur & (kPageSize - 1)));
    access(phys_addr(pfn, cur), bytes.subspan(done, chunk));
    done += chunk;
  }
  return true;
}

bool System::mem_write(Task& task, vm::VirtAddr va,
                       std::span<const std::uint8_t> in) {
  return for_each_chunk(task, va, in, [this](dram::PhysAddr phys, auto chunk) {
    dram_->write(phys, chunk);
  });
}

bool System::mem_read(Task& task, vm::VirtAddr va,
                      std::span<std::uint8_t> out) {
  return for_each_chunk(task, va, out, [this](dram::PhysAddr phys, auto chunk) {
    dram_->read(phys, chunk);
  });
}

SimTime System::hammer_burst(Task& task,
                             std::span<const vm::VirtAddr> aggressors,
                             std::uint64_t iterations) {
  burst_phys_.clear();
  for (const vm::VirtAddr va : aggressors) {
    const mm::Pfn pfn = frame_of(task, va);
    if (pfn == mm::kInvalidPfn) return 0;
    burst_phys_.push_back(phys_addr(pfn, va));
  }
  const SimTime start = dram_->now();
  dram_->hammer_burst(burst_phys_, iterations);
  return dram_->now() - start;
}

mm::Pfn System::translate(const Task& task, vm::VirtAddr va) const {
  const vm::VirtAddr page = va & ~vm::VirtAddr{kPageSize - 1};
  const vm::Pte* pte = task.space().page_table().find(page);
  return pte ? pte->pfn : mm::kInvalidPfn;
}

dram::PhysAddr System::phys_of(const Task& task, vm::VirtAddr va) const {
  const mm::Pfn pfn = translate(task, va);
  EXPLFRAME_CHECK_MSG(pfn != mm::kInvalidPfn, "phys_of on unmapped va");
  return phys_addr(pfn, va);
}

}  // namespace explframe::kernel
