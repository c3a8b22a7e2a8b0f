// Fig. 1 as a trace: the split path taken when a small block is carved out
// of a large free block, and the coalesce cascade when it is freed again.
#include <string>
#include <vector>

#include "exp/bodies.hpp"
#include "mm/buddy.hpp"

namespace explframe::exp {

using namespace explframe::mm;

std::vector<Section> buddy_trace() {
  std::vector<Section> out;
  PageFrameDatabase db(4096);
  BuddyAllocator buddy(db, 0, 4096, 0);

  Table before({"order", "block pages", "free blocks"});
  auto info = buddy.buddyinfo();
  for (std::uint32_t o = 0; o < kMaxOrder; ++o)
    before.row(o, std::size_t{1} << o, info[o]);
  out.push_back({"Free blocks per order before allocation (buddyinfo)",
                 std::move(before), ""});

  std::vector<SplitTraceEntry> trace;
  const Pfn p = buddy.alloc_block(0, &trace);
  Table split({"took block at pfn", "from order", "split down to"});
  for (const auto& e : trace) split.row(e.block, e.from_order, e.to_order);
  out.push_back({"`alloc_block(order=0)` -> pfn " + std::to_string(p) +
                     " (split path, Fig. 1 left)",
                 std::move(split),
                 "Splits performed: " + std::to_string(buddy.stats().splits) +
                     "."});

  Table after({"order", "free blocks"});
  info = buddy.buddyinfo();
  for (std::uint32_t o = 0; o < kMaxOrder; ++o) after.row(o, info[o]);
  buddy.free_block(p, 0);
  std::string notes =
      "`free_block(pfn " + std::to_string(p) +
      ")` coalesced back (Fig. 1 right): coalesce events = " +
      std::to_string(buddy.stats().coalesces) +
      ", max-order blocks restored = " +
      std::to_string(buddy.free_blocks(kMaxOrder - 1)) + ".";

  // The paper's 1 MiB example: a 2^8-page request.
  PageFrameDatabase db2(4096);
  BuddyAllocator buddy2(db2, 0, 4096, 0);
  const Pfn big = buddy2.alloc_block(8);
  buddy2.verify();
  notes += "\n\n`alloc_block(order=8)` [the paper's 1 MiB example] -> pfn " +
           std::to_string(big) +
           ", splits = " + std::to_string(buddy2.stats().splits) + ".";
  out.push_back({"Free blocks per order after the order-0 allocation",
                 std::move(after), notes});
  return out;
}

}  // namespace explframe::exp
