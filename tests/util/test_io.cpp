// Tests for TextTable, CsvWriter and CliArgs.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/require.hpp"
#include "util/table.hpp"

namespace hinet {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"model", "time"});
  t.add("alpha", 12);
  t.add("a-much-longer-name", 3);
  const std::string out = t.render();
  EXPECT_NE(out.find("| model"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  // All lines share one width.
  std::istringstream is(out);
  std::string line;
  std::size_t width = 0;
  while (std::getline(is, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width);
  }
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), PreconditionError);
}

TEST(TextTable, EmptyHeaderThrows) {
  EXPECT_THROW(TextTable({}), PreconditionError);
}

TEST(TextTable, NumericFormatting) {
  TextTable t({"v"});
  t.add(3.0);       // integral double -> no decimals
  t.add(3.14159);   // fractional -> fixed precision
  t.add(42);
  const std::string out = t.render();
  EXPECT_NE(out.find("| 3 "), std::string::npos);
  EXPECT_NE(out.find("3.142"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
}

TEST(CsvWriter, InMemoryRoundTrip) {
  CsvWriter w({"a", "b"});
  w.row(1, "x");
  w.row(2.5, "y,z");
  EXPECT_EQ(w.rows_written(), 2u);
  EXPECT_EQ(w.content(), "a,b\n1,x\n2.5,\"y,z\"\n");
}

TEST(CsvWriter, EscapesQuotesAndNewlines) {
  CsvWriter w({"c"});
  w.row("say \"hi\"");
  EXPECT_NE(w.content().find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(CsvWriter, WidthMismatchThrows) {
  CsvWriter w({"a", "b"});
  EXPECT_THROW(w.write_row({"only-one"}), PreconditionError);
}

TEST(CsvWriter, FileModeWrites) {
  const std::string path = ::testing::TempDir() + "/hinet_csv_test.csv";
  {
    CsvWriter w(path, {"h"});
    w.row(7);
  }
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "h\n7\n");
  std::remove(path.c_str());
}

TEST(CliArgs, ParsesTypedValues) {
  const char* argv[] = {"prog", "--n=42", "--rate=0.5", "--verbose",
                        "--name=trace"};
  CliArgs args(5, argv);
  EXPECT_EQ(args.get_int("n", 0, ""), 42);
  EXPECT_DOUBLE_EQ(args.get_double("rate", 0.0, ""), 0.5);
  EXPECT_TRUE(args.get_bool("verbose", false, ""));
  EXPECT_EQ(args.get_string("name", "", ""), "trace");
}

TEST(CliArgs, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  EXPECT_EQ(args.get_int("n", 7, ""), 7);
  EXPECT_FALSE(args.get_bool("flag", false, ""));
}

TEST(CliArgs, HelpFlagDetected) {
  const char* argv[] = {"prog", "--help"};
  CliArgs args(2, argv);
  EXPECT_TRUE(args.help_requested());
}

TEST(CliArgs, MalformedTokenThrows) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(CliArgs(2, argv), std::invalid_argument);
}

TEST(CliArgs, BadIntThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_int("n", 0, ""), std::invalid_argument);
}

TEST(CliArgs, BadBoolThrows) {
  const char* argv[] = {"prog", "--b=maybe"};
  CliArgs args(2, argv);
  EXPECT_THROW(args.get_bool("b", false, ""), std::invalid_argument);
}

TEST(CliArgs, UnknownOptionsReported) {
  const char* argv[] = {"prog", "--known=1", "--typo=2"};
  CliArgs args(3, argv);
  args.get_int("known", 0, "");
  const auto unknown = args.unknown_options();
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "typo");
}

TEST(CliArgs, UsageListsRegisteredOptions) {
  const char* argv[] = {"prog"};
  CliArgs args(1, argv);
  args.get_int("nodes", 100, "node count");
  const std::string usage = args.usage("test program");
  EXPECT_NE(usage.find("--nodes"), std::string::npos);
  EXPECT_NE(usage.find("node count"), std::string::npos);
  EXPECT_NE(usage.find("default: 100"), std::string::npos);
}

}  // namespace
}  // namespace hinet
