#include "vm/page_table.hpp"

#include "support/check.hpp"

namespace explframe::vm {

namespace {

constexpr std::uint32_t kFanout = 1u << kLevelBits;  // 512

/// The node at `level` whose region covers vaddr. A level-L node maps
/// kFanout slots of 2^(12 + 9L) bytes each.
PageTable::NodeKey key_of(VirtAddr vaddr, std::uint32_t level) noexcept {
  const std::uint32_t shift =
      static_cast<std::uint32_t>(kPageShift) + kLevelBits * (level + 1);
  return {level, vaddr >> shift << shift};
}

/// vaddr's PTE slot in its leaf (bits 20:12).
std::uint32_t leaf_slot(VirtAddr vaddr) noexcept {
  return static_cast<std::uint32_t>((vaddr >> kPageShift) & (kFanout - 1));
}

}  // namespace

PageTable::PageTable(FrameClient client) : client_(std::move(client)) {
  Node& root = state_.nodes[key_of(0, kLevels - 1)];
  if (client_.alloc) root.frame = client_.alloc();
}

PageTable::~PageTable() {
  if (!client_.free) return;
  for (const auto& [key, node] : state_.nodes)
    if (node.frame != mm::kInvalidPfn) client_.free(node.frame);
}

bool PageTable::prepare(VirtAddr vaddr) {
  EXPLFRAME_CHECK(vaddr < (VirtAddr{1} << kVaBits));
  // A leaf's ancestors always exist, so one lookup serves most faults.
  if (state_.nodes.contains(key_of(vaddr, 0))) return true;
  Node* parent = &state_.nodes.at(key_of(vaddr, kLevels - 1));
  for (std::uint32_t level = kLevels - 1; level-- > 0;) {
    const NodeKey key = key_of(vaddr, level);
    auto it = state_.nodes.find(key);
    if (it == state_.nodes.end()) {
      Node node;
      if (client_.alloc) {
        node.frame = client_.alloc();
        if (node.frame == mm::kInvalidPfn) return false;
      }
      if (level == 0) node.ptes.resize(kFanout);
      it = state_.nodes.emplace(key, std::move(node)).first;
      ++parent->used;
    }
    parent = &it->second;
  }
  return true;
}

bool PageTable::map(VirtAddr vaddr, mm::Pfn pfn) {
  EXPLFRAME_CHECK_MSG((vaddr & (kPageSize - 1)) == 0, "unaligned map");
  EXPLFRAME_CHECK_MSG(pfn != mm::kInvalidPfn, "map of kInvalidPfn");
  // A demand fault has prepared the path already (before allocating its
  // page), so one leaf lookup serves it; prepare only a missing leaf.
  auto leaf = state_.nodes.find(key_of(vaddr, 0));
  if (leaf == state_.nodes.end()) {
    if (!prepare(vaddr)) return false;
    leaf = state_.nodes.find(key_of(vaddr, 0));
  }
  Pte& pte = leaf->second.ptes[leaf_slot(vaddr)];
  EXPLFRAME_CHECK_MSG(pte.pfn == mm::kInvalidPfn, "double map");
  pte.pfn = pfn;
  ++leaf->second.used;
  ++state_.mapped;
  return true;
}

std::optional<mm::Pfn> PageTable::unmap(VirtAddr vaddr) {
  EXPLFRAME_CHECK_MSG((vaddr & (kPageSize - 1)) == 0, "unaligned unmap");
  auto it = state_.nodes.find(key_of(vaddr, 0));
  if (it == state_.nodes.end()) return std::nullopt;
  Pte& pte = it->second.ptes[leaf_slot(vaddr)];
  if (pte.pfn == mm::kInvalidPfn) return std::nullopt;
  const mm::Pfn pfn = std::exchange(pte.pfn, mm::kInvalidPfn);
  --it->second.used;
  --state_.mapped;

  // Prune empty table nodes bottom-up (frees their frames).
  for (std::uint32_t level = 1; level < kLevels && it->second.used == 0;
       ++level) {
    if (client_.free && it->second.frame != mm::kInvalidPfn)
      client_.free(it->second.frame);
    state_.nodes.erase(it);
    it = state_.nodes.find(key_of(vaddr, level));
    --it->second.used;
  }
  return pfn;
}

const Pte* PageTable::find(VirtAddr vaddr) const {
  const auto it = state_.nodes.find(key_of(vaddr, 0));
  if (it == state_.nodes.end()) return nullptr;
  const Pte& pte = it->second.ptes[leaf_slot(vaddr)];
  return pte.pfn == mm::kInvalidPfn ? nullptr : &pte;
}

}  // namespace explframe::vm
