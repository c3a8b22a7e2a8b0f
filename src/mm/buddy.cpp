#include "mm/buddy.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"

namespace explframe::mm {

BuddyAllocator::BuddyAllocator(PageFrameDatabase& db, Pfn start_pfn,
                               std::uint64_t pages, std::uint8_t zone_index)
    : db_(&db), start_(start_pfn), pages_(pages), zone_index_(zone_index) {
  EXPLFRAME_CHECK(start_pfn + pages <= db.size());
  for (Pfn p = start_; p < start_ + pages_; ++p) {
    db_->at(p).zone_index = zone_index_;
    db_->at(p).state = PageState::kAllocated;  // insert_free flips below
  }
  // Tile the range with maximal aligned blocks.
  Pfn rel = 0;
  while (rel < pages_) {
    std::uint32_t order = kMaxOrder - 1;
    while (order > 0 &&
           ((rel & ((Pfn{1} << order) - 1)) != 0 ||
            rel + (Pfn{1} << order) > pages_)) {
      --order;
    }
    insert_free(rel, order);
    rel += Pfn{1} << order;
  }
}

void BuddyAllocator::insert_free(Pfn rel, std::uint32_t order) {
  const auto [it, inserted] = state_.free_lists[order].insert(rel);
  EXPLFRAME_CHECK(inserted);
  PageFrame& head = db_->at(start_ + rel);
  head.state = PageState::kFreeBuddy;
  head.order = static_cast<std::uint8_t>(order);
  const Pfn n = Pfn{1} << order;
  for (Pfn i = 1; i < n; ++i)
    db_->at(start_ + rel + i).state = PageState::kFreeTail;
  state_.free_pages += n;
}

void BuddyAllocator::remove_free(Pfn rel, std::uint32_t order) {
  const auto erased = state_.free_lists[order].erase(rel);
  EXPLFRAME_CHECK(erased == 1);
  state_.free_pages -= Pfn{1} << order;
}

void BuddyAllocator::mark_allocated(Pfn rel, std::uint32_t order) {
  const Pfn n = Pfn{1} << order;
  for (Pfn i = 0; i < n; ++i)
    db_->at(start_ + rel + i).state = PageState::kAllocated;
}

Pfn BuddyAllocator::alloc_block(std::uint32_t order,
                                std::vector<SplitTraceEntry>* trace) {
  EXPLFRAME_CHECK(order < kMaxOrder);
  std::uint32_t o = order;
  while (o < kMaxOrder && state_.free_lists[o].empty()) ++o;
  if (o == kMaxOrder) {
    ++state_.stats.failed;
    return kInvalidPfn;
  }
  const Pfn rel = *state_.free_lists[o].begin();
  remove_free(rel, o);
  if (trace != nullptr && o != order)
    trace->push_back({start_ + rel, o, order});
  // Split down to the requested order, returning the upper buddy of each
  // split to the free list (Fig. 1, left panel).
  while (o > order) {
    --o;
    const Pfn upper = rel + (Pfn{1} << o);
    insert_free(upper, o);
    ++state_.stats.splits;
  }
  mark_allocated(rel, order);
  ++state_.stats.allocs;
  return start_ + rel;
}

void BuddyAllocator::free_block(Pfn pfn, std::uint32_t order) {
  EXPLFRAME_CHECK(order < kMaxOrder);
  EXPLFRAME_CHECK(pfn >= start_ && pfn + (Pfn{1} << order) <= start_ + pages_);
  Pfn rel = pfn - start_;
  EXPLFRAME_CHECK_MSG((rel & ((Pfn{1} << order) - 1)) == 0,
                      "free of unaligned block");
  EXPLFRAME_CHECK_MSG(db_->at(pfn).state == PageState::kAllocated ||
                          db_->at(pfn).state == PageState::kPcp,
                      "double free");
  ++state_.stats.frees;
  // Coalesce with the buddy while it is free and the same order
  // (Fig. 1, right panel).
  std::uint32_t o = order;
  while (o < kMaxOrder - 1) {
    const Pfn buddy = buddy_of(rel, o);
    if (buddy + (Pfn{1} << o) > pages_) break;
    const PageFrame& bf = db_->at(start_ + buddy);
    if (bf.state != PageState::kFreeBuddy || bf.order != o) break;
    remove_free(buddy, o);
    rel = std::min(rel, buddy);
    ++o;
    ++state_.stats.coalesces;
  }
  insert_free(rel, o);
}

std::uint64_t BuddyAllocator::free_blocks(std::uint32_t order) const {
  EXPLFRAME_CHECK(order < kMaxOrder);
  return state_.free_lists[order].size();
}

std::array<std::uint64_t, kMaxOrder> BuddyAllocator::buddyinfo() const {
  std::array<std::uint64_t, kMaxOrder> info{};
  for (std::uint32_t o = 0; o < kMaxOrder; ++o)
    info[o] = state_.free_lists[o].size();
  return info;
}

void BuddyAllocator::verify() const {
  std::uint64_t counted = 0;
  std::vector<bool> covered(pages_, false);
  for (std::uint32_t o = 0; o < kMaxOrder; ++o) {
    for (const Pfn rel : state_.free_lists[o]) {
      const Pfn n = Pfn{1} << o;
      EXPLFRAME_CHECK_MSG((rel & (n - 1)) == 0, "unaligned free block");
      EXPLFRAME_CHECK_MSG(rel + n <= pages_, "free block out of range");
      const PageFrame& head = db_->at(start_ + rel);
      EXPLFRAME_CHECK(head.state == PageState::kFreeBuddy);
      EXPLFRAME_CHECK(head.order == o);
      for (Pfn i = 0; i < n; ++i) {
        EXPLFRAME_CHECK_MSG(!covered[rel + i], "overlapping free blocks");
        covered[rel + i] = true;
        if (i > 0)
          EXPLFRAME_CHECK(db_->at(start_ + rel + i).state ==
                          PageState::kFreeTail);
      }
      counted += n;
      // A free block must never coexist with a free buddy of equal order
      // (they should have been coalesced).
      if (o < kMaxOrder - 1) {
        const Pfn buddy = buddy_of(rel, o);
        if (buddy + n <= pages_) {
          const PageFrame& bf = db_->at(start_ + buddy);
          EXPLFRAME_CHECK_MSG(
              !(bf.state == PageState::kFreeBuddy && bf.order == o),
              "uncoalesced buddy pair");
        }
      }
    }
  }
  EXPLFRAME_CHECK_MSG(counted == state_.free_pages,
                      "free page accounting drift");
}

}  // namespace explframe::mm
