#include "support/table.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace explframe {
namespace {

TEST(Table, RendersHeadersAndRows) {
  Table t({"name", "value"});
  t.row("alpha", 1);
  t.row("beta", 2);
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("beta"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ColumnsAligned) {
  Table t({"a", "long-header"});
  t.row("xxxxxxxxxx", 1);
  const std::string out = t.render();
  // Every line between rules must have the same length.
  std::istringstream is(out);
  std::string line;
  std::size_t len = 0;
  while (std::getline(is, line)) {
    if (len == 0) len = line.size();
    EXPECT_EQ(line.size(), len);
  }
}

TEST(Table, DoubleFormattingTrimsZeros) {
  EXPECT_EQ(Table::to_cell(1.5), "1.5");
  EXPECT_EQ(Table::to_cell(2.0), "2.0");
  EXPECT_EQ(Table::to_cell(0.125), "0.125");
}

TEST(Table, DoubleFormattingScientificForExtremes) {
  const std::string tiny = Table::to_cell(1e-9);
  EXPECT_NE(tiny.find('e'), std::string::npos);
  const std::string huge = Table::to_cell(3.2e12);
  EXPECT_NE(huge.find('e'), std::string::npos);
}

TEST(Table, PercentFormatting) {
  EXPECT_EQ(Table::percent(0.5), "50.0%");
  EXPECT_EQ(Table::percent(1.0, 0), "100%");
  EXPECT_EQ(Table::percent(0.987, 2), "98.70%");
}

TEST(Table, BoolCells) {
  EXPECT_EQ(Table::to_cell(true), "yes");
  EXPECT_EQ(Table::to_cell(false), "no");
}

TEST(Table, MarkdownRendering) {
  Table t({"phase", "rate"});
  t.row("steer | hammer", 1);  // pipe must be escaped in cells
  t.row("analyse", 2);
  const std::string out = t.render(TableFormat::kMarkdown);
  EXPECT_EQ(out, "| phase | rate |\n"
                 "| --- | --- |\n"
                 "| steer \\| hammer | 1 |\n"
                 "| analyse | 2 |\n");
}

TEST(Table, CsvRendering) {
  Table t({"name", "value"});
  t.row("plain", 1);
  t.row("with, comma", 2);
  t.add_row({"with \"quote\"", "3"});
  const std::string out = t.render(TableFormat::kCsv);
  EXPECT_EQ(out, "name,value\n"
                 "plain,1\n"
                 "\"with, comma\",2\n"
                 "\"with \"\"quote\"\"\",3\n");
}

TEST(Table, CsvEscapesNewlinesAndHeaders) {
  // Failure-stage names such as "steer, no frame" and free-form notes with
  // embedded newlines must not corrupt the CSV structure; headers go
  // through the same escaping as body cells.
  Table t({"failure, stage", "count"});
  t.row("steer, no frame", 3);
  t.add_row({"line1\nline2", "4"});
  const std::string out = t.render(TableFormat::kCsv);
  EXPECT_EQ(out, "\"failure, stage\",count\n"
                 "\"steer, no frame\",3\n"
                 "\"line1\nline2\",4\n");
}

TEST(Table, PrintHonoursFormat) {
  Table t({"a"});
  t.row(1);
  std::ostringstream ascii, csv;
  t.print(ascii);
  t.print(csv, TableFormat::kCsv);
  EXPECT_NE(ascii.str().find('+'), std::string::npos);
  EXPECT_EQ(csv.str(), "a\n1\n");
}

TEST(Table, BannerContainsTitle) {
  std::ostringstream os;
  print_banner(os, "PERF: harvest");
  EXPECT_NE(os.str().find("PERF: harvest"), std::string::npos);
}

}  // namespace
}  // namespace explframe
