#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/table.h"

namespace nocmap {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(out.find("| b     | 22    |"), std::string::npos);
}

TEST(TextTable, ArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
  EXPECT_THROW(TextTable({}), Error);
}

TEST(TextTable, RowCount) {
  TextTable t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TextTable, CsvExportMatchesContents) {
  TextTable t({"a", "b"});
  t.add_row({"1", "x,y"});
  const std::string path = ::testing::TempDir() + "/nocmap_table.csv";
  t.save_csv(path);
  std::ifstream in(path);
  std::string line1, line2;
  std::getline(in, line1);
  std::getline(in, line2);
  EXPECT_EQ(line1, "a,b");
  EXPECT_EQ(line2, "1,\"x,y\"");
  std::remove(path.c_str());
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 4), "3.1416");
  EXPECT_EQ(fmt(-1.0, 1), "-1.0");
}

TEST(FmtPercent, SignedPercent) {
  EXPECT_EQ(fmt_percent(0.0382), "+3.82%");
  EXPECT_EQ(fmt_percent(-0.105, 1), "-10.5%");
}

TEST(CsvEscape, PlainCellUnchanged) {
  EXPECT_EQ(csv_escape("hello"), "hello");
}

TEST(CsvEscape, QuotesCommasAndNewlines) {
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(TextTable, SaveCsvBadPathThrows) {
  const TextTable t({"a"});
  EXPECT_THROW(t.save_csv("/nonexistent-dir-xyz/file.csv"), Error);
}

}  // namespace
}  // namespace nocmap
