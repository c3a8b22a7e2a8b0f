#include "support/table.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "support/check.hpp"
#include "support/stats.hpp"

namespace explframe {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  EXPLFRAME_CHECK(!headers_.empty());
}

Table::Table(std::initializer_list<std::string> headers)
    : headers_(headers) {
  EXPLFRAME_CHECK(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  EXPLFRAME_CHECK_MSG(cells.size() == headers_.size(),
                      "row width must match header width");
  rows_.push_back(std::move(cells));
}

std::string Table::to_cell(double v) {
  std::ostringstream os;
  if (v != 0.0 && (std::fabs(v) < 1e-3 || std::fabs(v) >= 1e7)) {
    os << std::scientific << std::setprecision(3) << v;
  } else {
    os << std::fixed << std::setprecision(3) << v;
    // Trim trailing zeros but keep at least one decimal digit.
    std::string s = os.str();
    const auto dot = s.find('.');
    const auto last = s.find_last_not_of('0');
    s.erase(std::max(last + 1, dot + 2));
    return s;
  }
  return os.str();
}

std::string Table::to_cell(std::size_t v) { return std::to_string(v); }
std::string Table::to_cell(int v) { return std::to_string(v); }
std::string Table::to_cell(unsigned v) { return std::to_string(v); }
std::string Table::to_cell(bool v) { return v ? "yes" : "no"; }

std::string Table::percent(double p, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << p * 100.0 << "%";
  return os.str();
}

namespace {

std::string wilson_cell(std::size_t hits, std::size_t trials,
                        const char* gap) {
  const ProportionCi ci = wilson_interval(hits, trials);
  return Table::percent(ci.p) + gap + "[" + Table::percent(ci.lo) + ", " +
         Table::percent(ci.hi) + "]";
}

}  // namespace

std::string rate_cell(std::size_t hits, std::size_t trials) {
  return wilson_cell(hits, trials, " ");
}

std::string rate_cell_wide(std::size_t hits, std::size_t trials) {
  return wilson_cell(hits, trials, "  ");
}

std::string samples_cell(const Samples& s) {
  if (s.empty()) return "-";
  return Table::to_cell(s.mean()) + " (min " + Table::to_cell(s.min()) +
         ", max " + Table::to_cell(s.max()) + ")";
}

namespace {

/// CSV quoting per RFC 4180: quote when the cell contains a comma, a quote
/// or a newline; embedded quotes are doubled.
std::string csv_escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char c : cell) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

/// Markdown cells cannot contain the column separator.
std::string md_escape(const std::string& cell) {
  std::string out;
  for (const char c : cell) {
    if (c == '|') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

std::string Table::render_markdown() const {
  std::ostringstream os;
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (const auto& c : cells) os << ' ' << md_escape(c) << " |";
    os << '\n';
  };
  line(headers_);
  os << '|';
  for (std::size_t i = 0; i < headers_.size(); ++i) os << " --- |";
  os << '\n';
  for (const auto& r : rows_) line(r);
  return os.str();
}

std::string Table::render_csv() const {
  std::ostringstream os;
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) os << ',';
      os << csv_escape(cells[i]);
    }
    os << '\n';
  };
  line(headers_);
  for (const auto& r : rows_) line(r);
  return os.str();
}

std::string Table::render(TableFormat format) const {
  switch (format) {
    case TableFormat::kMarkdown:
      return render_markdown();
    case TableFormat::kCsv:
      return render_csv();
    case TableFormat::kAscii:
      break;
  }
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t i = 0; i < headers_.size(); ++i)
    widths[i] = headers_[i].size();
  for (const auto& r : rows_)
    for (std::size_t i = 0; i < r.size(); ++i)
      widths[i] = std::max(widths[i], r[i].size());

  std::ostringstream os;
  auto rule = [&] {
    os << '+';
    for (auto w : widths) {
      for (std::size_t i = 0; i < w + 2; ++i) os << '-';
      os << '+';
    }
    os << '\n';
  };
  auto line = [&](const std::vector<std::string>& cells) {
    os << '|';
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << ' ' << std::setw(static_cast<int>(widths[i])) << std::left
         << cells[i] << " |";
    }
    os << '\n';
  };
  rule();
  line(headers_);
  rule();
  for (const auto& r : rows_) line(r);
  rule();
  return os.str();
}

void Table::print(std::ostream& os, TableFormat format) const {
  os << render(format);
}

void print_banner(std::ostream& os, const std::string& title) {
  const std::string bar(title.size() + 8, '=');
  os << '\n' << bar << '\n' << "==  " << title << "  ==\n" << bar << '\n';
}

}  // namespace explframe
