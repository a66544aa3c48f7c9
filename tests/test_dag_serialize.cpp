#include "dag/serialize.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>

#include "dag/generator.hpp"
#include "test_helpers.hpp"

namespace apt::dag {
namespace {

TEST(TextFormat, RoundTripsDiamond) {
  const Dag d = test::diamond(
      {{"nw", 16777216}, {"bfs", 2034736}, {"mm", 250000}, {"cd", 250000}});
  const Dag back = from_text(to_text(d));
  EXPECT_EQ(back.node_count(), d.node_count());
  EXPECT_EQ(back.edge_count(), d.edge_count());
  for (NodeId i = 0; i < d.node_count(); ++i) {
    EXPECT_EQ(back.node(i).kernel, d.node(i).kernel);
    EXPECT_EQ(back.node(i).data_size, d.node(i).data_size);
    EXPECT_EQ(back.successors(i), d.successors(i));
  }
}

TEST(TextFormat, RoundTripsPaperGraphs) {
  for (DfgType type : {DfgType::Type1, DfgType::Type2}) {
    const Dag d = paper_graph(type, 4);
    const Dag back = from_text(to_text(d));
    EXPECT_EQ(to_text(back), to_text(d));
  }
}

TEST(TextFormat, IgnoresCommentsAndBlankLines) {
  const Dag d = from_text(
      "# header comment\n"
      "\n"
      "node 0 nw 100\n"
      "  # indented comment\n"
      "node 1 bfs 200\n"
      "edge 0 1\n");
  EXPECT_EQ(d.node_count(), 2u);
  EXPECT_TRUE(d.has_edge(0, 1));
}

TEST(TextFormat, SplitsFieldsOnRunsOfSpacesAndTabs) {
  const Dag d = from_text(
      "node 0\tmm\t250000\n"
      "node 1  mm   250000 \t 2.5\n"
      "edge\t0 \t 1\n");
  EXPECT_EQ(to_text(d),
            to_text(from_text("node 0 mm 250000\nnode 1 mm 250000 2.5\n"
                              "edge 0 1\n")));
  ASSERT_EQ(d.node_count(), 2u);
  EXPECT_EQ(d.node(1).kernel, "mm");
  EXPECT_EQ(d.node(1).data_size, 250000u);
  EXPECT_EQ(d.node(1).release_ms, 2.5);
  EXPECT_TRUE(d.has_edge(0, 1));
  // Extra whitespace never makes an extra field.
  EXPECT_THROW(from_text("node 0\tmm\t\t250000\t1\t2\n"),
               std::runtime_error);
}

TEST(TextFormat, EmptyTextIsTheEmptyGraph) {
  EXPECT_EQ(from_text("").node_count(), 0u);
  EXPECT_EQ(from_text("# only a comment\n\n").node_count(), 0u);
}

TEST(TextFormat, RejectsMalformedLines) {
  EXPECT_THROW(from_text("node 0 nw\n"), std::runtime_error);
  EXPECT_THROW(from_text("node 1 nw 100\n"), std::runtime_error);  // sparse id
  EXPECT_THROW(from_text("node 0 nw 100\nedge 0\n"), std::runtime_error);
  EXPECT_THROW(from_text("frobnicate 1 2\n"), std::runtime_error);
}

// Every error names its line, value errors included, and an id too large
// for a NodeId is rejected rather than narrowed onto another node.
TEST(TextFormat, LocatesEveryErrorByLine) {
  const std::string head = "node 0 mm 250000\n# comment\n";
  const struct {
    std::string line;
    std::string message;
  } cases[] = {
      {"node 1 mm 250000 abc", "parse_double: not a number: 'abc'"},
      {"edge 0 7", "Dag::add_edge: unknown node id"},
      {"edge 4294967296 1", "node id 4294967296 out of range"},
      {"edge 0 4294967295", "node id 4294967295 out of range"},
      {"node 1 mm 250000 nan",
       "Dag::add_node: release time must be finite and >= 0"},
      {"node 1 mm x", "parse_uint: not an integer: 'x'"},
      {"node 1 nw", "expected 'node <id> <kernel> <size> [release_ms]'"},
      {"edge 0 0", "Dag::add_edge: self edge"},
  };
  for (const auto& c : cases) {
    try {
      from_text(head + c.line + "\n");
      ADD_FAILURE() << c.line << ": no error";
    } catch (const std::exception& e) {
      EXPECT_EQ(std::string(e.what()), "Dag::from_text line 3: " + c.message)
          << c.line;
    }
  }
  EXPECT_THROW(from_text(head + "edge 4294967296 1\n"), std::invalid_argument);
  EXPECT_THROW(from_text(head + "node 1 mm 250000 abc\n"),
               std::invalid_argument);
}

TEST(TextFormat, RejectsEdgesThatBreakTheDag) {
  EXPECT_THROW(
      from_text("node 0 a 1\nnode 1 b 1\nedge 0 1\nedge 1 0\n"),
      std::logic_error);
}

TEST(TextFile, SaveAndLoad) {
  const std::string path = ::testing::TempDir() + "/apt_dag_test.txt";
  const Dag d = paper_graph(DfgType::Type1, 0);
  save_text_file(d, path);
  const Dag back = load_text_file(path);
  EXPECT_EQ(to_text(back), to_text(d));
  std::remove(path.c_str());
}

TEST(TextFile, MissingFileThrows) {
  EXPECT_THROW(load_text_file("/nonexistent/dir/g.txt"), std::runtime_error);
}

TEST(TextFile, FileWithoutNodeLinesThrowsNamingThePath) {
  const std::string path = ::testing::TempDir() + "/apt_dag_nodeless.txt";
  for (const char* text : {"", "# comments only\n\n  # indented\n"}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text, f);
    std::fclose(f);
    try {
      load_text_file(path);
      ADD_FAILURE() << "no error for '" << text << "'";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()),
                "Dag::load_text_file: '" + path + "' has no node lines");
    }
  }
  std::remove(path.c_str());
}

TEST(Dot, ContainsNodesAndEdges) {
  const Dag d = test::chain({{"nw", 16777216}, {"cd", 250000}});
  const std::string dot = to_dot(d, "example");
  EXPECT_NE(dot.find("digraph example {"), std::string::npos);
  EXPECT_NE(dot.find("n0 [label=\"0:nw"), std::string::npos);
  EXPECT_NE(dot.find("n0 -> n1;"), std::string::npos);
  EXPECT_NE(dot.find("}"), std::string::npos);
}

TEST(Dot, EdgeCountMatches) {
  const Dag d = paper_graph(DfgType::Type2, 0);
  const std::string dot = to_dot(d);
  std::size_t arrows = 0;
  for (std::size_t pos = 0; (pos = dot.find("->", pos)) != std::string::npos;
       ++pos)
    ++arrows;
  EXPECT_EQ(arrows, d.edge_count());
}

}  // namespace
}  // namespace apt::dag
