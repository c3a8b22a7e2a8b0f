#include "vm/address_space.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace explframe::vm {

AddressSpace::AddressSpace(FrameClient table_frames)
    : table_(std::move(table_frames)) {}

VirtAddr AddressSpace::mmap(std::uint64_t length) {
  EXPLFRAME_CHECK(length > 0);
  const std::uint64_t bytes =
      bytes_to_pages(length) * static_cast<std::uint64_t>(kPageSize);
  const VirtAddr start = state_.mmap_cursor;
  // One guard page between mappings keeps ranges unambiguous.
  state_.mmap_cursor += bytes + kPageSize;
  state_.vmas.emplace(start, Vma{start, start + bytes});
  ++state_.counters.mmap_calls;
  return start;
}

bool AddressSpace::valid(VirtAddr va) const {
  auto it = state_.vmas.upper_bound(va);
  if (it == state_.vmas.begin()) return false;
  --it;
  return it->second.contains(va);
}

bool AddressSpace::munmap(VirtAddr addr, std::uint64_t length,
                          const std::function<void(mm::Pfn)>& release) {
  EXPLFRAME_CHECK_MSG((addr & (kPageSize - 1)) == 0, "unaligned munmap");
  EXPLFRAME_CHECK(length > 0);
  const VirtAddr end =
      addr + bytes_to_pages(length) * static_cast<std::uint64_t>(kPageSize);

  bool any = false;
  // Collect overlapping VMAs, then rewrite them (split / trim / drop).
  std::vector<Vma> overlapped;
  for (auto it = state_.vmas.begin(); it != state_.vmas.end();) {
    if (it->second.end <= addr || it->second.start >= end) {
      ++it;
      continue;
    }
    overlapped.push_back(it->second);
    it = state_.vmas.erase(it);
    any = true;
  }
  for (const Vma& vma : overlapped) {
    if (vma.start < addr) state_.vmas.emplace(vma.start, Vma{vma.start, addr});
    if (vma.end > end) state_.vmas.emplace(end, Vma{end, vma.end});
    const VirtAddr lo = std::max(vma.start, addr);
    const VirtAddr hi = std::min(vma.end, end);
    for (VirtAddr va = lo; va < hi; va += kPageSize) {
      if (const auto pfn = table_.unmap(va)) release(*pfn);
    }
  }
  if (any) ++state_.counters.munmap_calls;
  return any;
}

}  // namespace explframe::vm
