// A simulated process: identity, CPU placement, scheduling state, and its
// virtual address space.
#pragma once

#include <cstdint>
#include <string>

#include "vm/address_space.hpp"

namespace explframe::kernel {

/// Scheduling state of a simulated process. The campaign marks the
/// attacker kSleeping around the noise phase of the `attacker_sleeps`
/// ablation; the state is snapshotted with the task, but no simulated
/// component reads it.
enum class TaskState : std::uint8_t { kRunnable, kSleeping };

class System;

/// Created via System::spawn(); lifetime owned by the System.
class Task {
 public:
  Task(std::int32_t id, std::string name, std::uint32_t cpu,
       vm::FrameClient table_frames)
      : id_(id),
        name_(std::move(name)),
        cpu_(cpu),
        space_(std::move(table_frames)) {}

  std::int32_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  /// The CPU this task currently runs on. The paper's exploit requires
  /// attacker and victim to share a CPU; migration is modelled by set_cpu.
  std::uint32_t cpu() const noexcept { return cpu_; }
  void set_cpu(std::uint32_t cpu) noexcept { cpu_ = cpu; }

  TaskState state() const noexcept { return state_; }
  void set_state(TaskState s) noexcept { state_ = s; }

  vm::AddressSpace& space() noexcept { return space_; }
  const vm::AddressSpace& space() const noexcept { return space_; }

 private:
  std::int32_t id_;
  std::string name_;
  std::uint32_t cpu_;
  TaskState state_ = TaskState::kRunnable;
  vm::AddressSpace space_;
};

}  // namespace explframe::kernel
