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
        state_{cpu},
        space_(std::move(table_frames)) {}

  std::int32_t id() const noexcept { return id_; }
  const std::string& name() const noexcept { return name_; }

  /// The CPU this task currently runs on. The paper's exploit requires
  /// attacker and victim to share a CPU; migration is modelled by set_cpu.
  std::uint32_t cpu() const noexcept { return state_.cpu; }
  void set_cpu(std::uint32_t cpu) noexcept { state_.cpu = cpu; }

  /// Set the scheduling state (State::sched).
  void set_state(TaskState s) noexcept { state_.sched = s; }

  vm::AddressSpace& space() noexcept { return space_; }
  const vm::AddressSpace& space() const noexcept { return space_; }

  /// Everything mutable about the task except its address space; a
  /// snapshot copies it whole (id and name are immutable).
  struct State {
    std::uint32_t cpu = 0;
    TaskState sched = TaskState::kRunnable;
  };
  const State& state() const noexcept { return state_; }
  /// Restore a previously captured state exactly.
  void restore(const State& state) noexcept { state_ = state; }

 private:
  std::int32_t id_;
  std::string name_;
  State state_;
  vm::AddressSpace space_;
};

}  // namespace explframe::kernel
