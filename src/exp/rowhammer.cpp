// §VI on the DRAM model: flips against hammer budget (double- vs
// single-sided), templating yield against module vulnerability, and flip
// reproducibility at the same cell across repeated hammering — the
// observation ExplFrame's re-hammer phase relies on.
#include <set>
#include <string>
#include <vector>

#include "dram/hammer.hpp"
#include "exp/bodies.hpp"

namespace explframe::exp {

using namespace explframe::dram;

namespace {

DeviceParams params_with_density(double cells_per_mib) {
  DeviceParams p;
  p.weak_cells.cells_per_mib = cells_per_mib;
  return p;
}

Table flips_vs_budget() {
  Table t({"activations per aggressor", "double-sided flips",
           "single-sided flips"});
  const auto g = Geometry::with_capacity(64 * kMiB);
  for (const std::uint64_t budget :
       {20'000ull, 40'000ull, 80'000ull, 160'000ull, 320'000ull}) {
    std::uint64_t dbl = 0, sgl = 0;
    for (const bool double_sided : {true, false}) {
      DramDevice dev(g, params_with_density(64.0), 99);
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
  return t;
}

Table templating_yield() {
  Table t({"cells/MiB (module)", "rows w/ flips", "pages w/ flips", "flips",
           "est. vulnerable pages/GiB"});
  const auto g = Geometry::with_capacity(64 * kMiB);
  for (const double density : {1.0, 4.0, 16.0, 64.0}) {
    DramDevice dev(g, params_with_density(density), 7);
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
  return t;
}

Table reproducibility() {
  const auto g = Geometry::with_capacity(64 * kMiB);
  DramDevice dev(g, params_with_density(64.0), 13);
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
  return t;
}

}  // namespace

std::vector<Section> rowhammer() {
  std::vector<Section> out;
  out.push_back({"(a) Flips in targeted rows vs hammer budget (100 rows per "
                 "point, density 64 cells/MiB)",
                 flips_vs_budget(),
                 "Shape check (Kim et al. ISCA'14): no flips below the "
                 "threshold knee, then rising with budget; double-sided >= "
                 "single-sided throughout."});
  out.push_back({"(b) Templating yield vs module vulnerability (256 rows "
                 "scanned at 300K activations, extrapolated per GiB)",
                 templating_yield(), ""});
  out.push_back({"(c) Flip reproducibility at the same cell (SVI: \"high "
                 "probability of getting bit flips in the same location\")",
                 reproducibility(), ""});
  return out;
}

}  // namespace explframe::exp
