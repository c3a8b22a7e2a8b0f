// EXP-T3 — Rowhammer characterisation on the DRAM model.
//
//   (a) flips vs hammer budget, double-sided vs single-sided;
//   (b) templating yield: vulnerable rows/pages found per scanned capacity;
//   (c) flip reproducibility at the same cell across repeated hammering —
//       the §VI observation ExplFrame's re-hammer phase relies on.
#include <iostream>
#include <set>
#include <vector>

#include "dram/hammer.hpp"
#include "support/table.hpp"
#include "support/units.hpp"

using namespace explframe;
using namespace explframe::dram;

namespace {

DeviceParams bench_params(double density) {
  DeviceParams p;
  p.weak_cells.cells_per_mib = density;
  return p;
}

void flips_vs_budget() {
  std::cout << "\n(a) flips in targeted rows vs hammer budget (100 rows per "
               "point, density 64 cells/MiB):\n";
  Table t({"activations per aggressor", "double-sided flips",
           "single-sided flips"});
  const auto g = Geometry::with_capacity(64 * kMiB);
  for (const std::uint64_t budget :
       {20'000ull, 40'000ull, 80'000ull, 160'000ull, 320'000ull}) {
    std::uint64_t dbl = 0, sgl = 0;
    for (const bool double_sided : {true, false}) {
      DramDevice dev(g, bench_params(64.0), 99);
      dev.fill(0, 0xFF, 16 * kMiB);  // charge true cells in the scanned area
      HammerEngine engine(dev);
      AddressMapping map(g, MappingScheme::kRowMajor);
      for (std::uint32_t row = 2; row < 202; row += 2) {
        const PhysAddr target = map.encode({0, 0, 0, row, 0});
        // Recharge: collateral disturbance from neighbouring sessions may
        // have discharged cells here already.
        dev.fill(target, 0xFF, g.row_bytes);
        HammerResult r;
        if (double_sided) {
          r = engine.hammer_double_sided(target, budget);
        } else {
          PhysAddr agg = 0;
          map.neighbor_row_addr(target, -1, 0, agg);
          r = engine.hammer_single_sided(agg, budget);
        }
        for (const auto& f : r.flips)
          if (f.coord.row == row && f.coord.bank == 0)
            (double_sided ? dbl : sgl)++;
        dev.refresh_now();  // fresh disturbance window per row
      }
    }
    t.row(budget, dbl, sgl);
  }
  t.print(std::cout);
  std::cout << "shape check (Kim et al. ISCA'14): no flips below the "
               "threshold knee, then rising with budget; double-sided >= "
               "single-sided throughout.\n";
}

void templating_yield() {
  std::cout << "\n(b) templating yield vs module vulnerability (256 rows "
               "scanned at 300K activations, extrapolated per GiB):\n";
  Table t({"cells/MiB (module)", "rows w/ flips", "pages w/ flips",
           "flips", "est. vulnerable pages/GiB"});
  const auto g = Geometry::with_capacity(64 * kMiB);
  for (const double density : {1.0, 4.0, 16.0, 64.0}) {
    DramDevice dev(g, bench_params(density), 7);
    dev.fill(0, 0xFF, 16 * kMiB);
    HammerEngine engine(dev);
    AddressMapping map(g, MappingScheme::kRowMajor);
    std::set<std::uint32_t> rows_with;
    std::set<std::uint64_t> pages_with;
    std::uint64_t flips = 0;
    constexpr std::uint32_t kRows = 256;
    for (std::uint32_t row = 2; row < 2 + kRows; ++row) {
      const PhysAddr target = map.encode({0, 0, 0, row, 0});
      dev.fill(target, 0xFF, g.row_bytes);
      const auto r = engine.hammer_double_sided(target, 300'000);
      for (const auto& f : r.flips) {
        if (f.coord.row != row || f.coord.bank != 0) continue;
        ++flips;
        rows_with.insert(row);
        pages_with.insert(f.addr / kPageSize);
      }
      dev.refresh_now();
    }
    const double scanned_bytes = static_cast<double>(kRows) * g.row_bytes;
    const double per_gib =
        static_cast<double>(pages_with.size()) * (double{kGiB} / scanned_bytes);
    t.row(density, rows_with.size(), pages_with.size(), flips, per_gib);
  }
  t.print(std::cout);
}

void reproducibility() {
  std::cout << "\n(c) flip reproducibility at the same cell (SVI: \"high "
               "probability of getting bit flips in the same location\"):\n";
  const auto g = Geometry::with_capacity(64 * kMiB);
  DramDevice dev(g, bench_params(64.0), 13);
  dev.fill(0, 0xFF, 16 * kMiB);
  HammerEngine engine(dev);
  AddressMapping map(g, MappingScheme::kRowMajor);

  // Template pass: find flips.
  struct Found {
    std::uint32_t row;
    PhysAddr addr;
    std::uint8_t bit;
    bool to_one;
  };
  std::vector<Found> found;
  for (std::uint32_t row = 2; row < 402 && found.size() < 24; row += 2) {
    const PhysAddr target = map.encode({0, 0, 0, row, 0});
    dev.fill(target, 0xFF, g.row_bytes);
    const auto r = engine.hammer_double_sided(target, 300'000);
    for (const auto& f : r.flips)
      if (f.coord.row == row && f.coord.bank == 0)
        found.push_back({row, f.addr, f.bit, f.to_one});
    dev.refresh_now();
  }

  std::size_t reproduced = 0, attempts = 0;
  constexpr int kRounds = 5;
  for (const auto& cell : found) {
    for (int round = 0; round < kRounds; ++round) {
      // Recharge the cell and re-hammer the same rows.
      const std::uint8_t byte = dev.read_byte(cell.addr);
      dev.write_byte(cell.addr,
                     cell.to_one
                         ? static_cast<std::uint8_t>(byte & ~(1u << cell.bit))
                         : static_cast<std::uint8_t>(byte | (1u << cell.bit)));
      dev.refresh_now();
      const PhysAddr target = map.encode({0, 0, cell.row, 0, 0});
      (void)target;
      const auto r = engine.hammer_double_sided(
          map.encode({0, 0, 0, cell.row, 0}), 300'000);
      ++attempts;
      for (const auto& f : r.flips)
        if (f.addr == cell.addr && f.bit == cell.bit) {
          ++reproduced;
          break;
        }
    }
  }
  Table t({"templated cells", "re-hammer attempts", "reproduced",
           "reproducibility"});
  t.row(found.size(), attempts, reproduced,
        rate_cell_wide(reproduced, attempts));
  t.print(std::cout);
}

}  // namespace

int main() {
  print_banner(std::cout, "EXP-T3: Rowhammer characterisation (SVI)");
  flips_vs_budget();
  templating_yield();
  reproducibility();
  return 0;
}
