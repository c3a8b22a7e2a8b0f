// Result table printer: every report, experiment page and bench console
// table is rendered through this.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <vector>

namespace explframe {

/// Output formats for Table::render — ASCII for terminals, Markdown for
/// the generated handbook pages, CSV for downstream plotting.
enum class TableFormat {
  kAscii,
  kMarkdown,
  kCsv,
};

/// Column-aligned result table; render() emits any TableFormat.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  Table(std::initializer_list<std::string> headers);

  /// Append one row; row size must match the header count.
  void add_row(std::vector<std::string> cells);

  /// Convenience: format heterogeneous cells.
  template <typename... Ts>
  void row(const Ts&... cells) {
    add_row({to_cell(cells)...});
  }

  std::string render(TableFormat format = TableFormat::kAscii) const;
  void print(std::ostream& os, TableFormat format = TableFormat::kAscii) const;

  std::size_t rows() const noexcept { return rows_.size(); }

  // Cell formatting helpers (public so harnesses can reuse them).
  static std::string to_cell(const std::string& s) { return s; }
  static std::string to_cell(const char* s) { return s; }
  static std::string to_cell(double v);
  static std::string to_cell(std::size_t v);
  static std::string to_cell(int v);
  static std::string to_cell(unsigned v);
  static std::string to_cell(bool v);

  /// "12.3%" rendering of a proportion p in [0, 1].
  static std::string percent(double p, int precision = 1);

 private:
  std::string render_markdown() const;
  std::string render_csv() const;

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

class Samples;

/// Success-rate cell with its 95% Wilson interval, "p [lo, hi]" — the
/// spelling of the generated handbook's aggregate and marginal tables.
std::string rate_cell(std::size_t hits, std::size_t trials);

/// The same cell as "p  [lo, hi]" (two spaces) — the spelling of the phase
/// table and the experiment pages.
std::string rate_cell_wide(std::size_t hits, std::size_t trials);

/// "mean (min lo, max hi)", or "-" when there are no samples.
std::string samples_cell(const Samples& s);

/// Print a section banner used to delimit bench output.
void print_banner(std::ostream& os, const std::string& title);

}  // namespace explframe
