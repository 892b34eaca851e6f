// Unit tests for graph serialization: round-trips and failure
// injection on malformed inputs; and io/journal, the one way gbis makes
// a file durable.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/gen/special.hpp"
#include "gbis/graph/builder.hpp"
#include "gbis/io/edge_list.hpp"
#include "gbis/io/journal.hpp"
#include "gbis/io/metis.hpp"

namespace gbis {
namespace {

Graph weighted_sample() {
  GraphBuilder b(4);
  b.add_edge(0, 1, 3);
  b.add_edge(1, 2);
  b.add_edge(2, 3, 7);
  b.set_vertex_weight(2, 5);
  return b.build();
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.edges(), b.edges());
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    EXPECT_EQ(a.vertex_weight(v), b.vertex_weight(v));
  }
}

TEST(EdgeList, RoundTripPlain) {
  const Graph g = make_cycle(6);
  std::stringstream ss;
  write_edge_list(ss, g);
  expect_same_graph(g, read_edge_list(ss));
}

TEST(EdgeList, RoundTripWeighted) {
  const Graph g = weighted_sample();
  std::stringstream ss;
  write_edge_list(ss, g);
  expect_same_graph(g, read_edge_list(ss));
}

TEST(EdgeList, ParsesCommentsAndBlankLines) {
  std::stringstream ss("# hello\n\n2 1\n# mid comment\n0 1\n");
  const Graph g = read_edge_list(ss);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(EdgeList, RejectsMissingHeader) {
  std::stringstream ss("# only a comment\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, RejectsBadHeader) {
  std::stringstream ss("abc def\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, RejectsTrailingHeaderTokens) {
  std::stringstream ss("2 1 9\n0 1\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, RejectsEdgeCountMismatch) {
  std::stringstream ss("3 2\n0 1\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, RejectsOutOfRangeEndpoint) {
  std::stringstream ss("2 1\n0 5\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, RejectsSelfLoop) {
  std::stringstream ss("2 1\n1 1\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, RejectsNonPositiveWeight) {
  std::stringstream ss("2 1\n0 1 0\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, RejectsTrailingEdgeTokens) {
  std::stringstream ss("2 1\n0 1 2 junk\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
}

TEST(EdgeList, RejectsBadVertexWeightLine) {
  std::stringstream ss("2 0\nv 0 0\n");
  EXPECT_THROW(read_edge_list(ss), std::runtime_error);
  std::stringstream ss2("2 0\nv 9 1\n");
  EXPECT_THROW(read_edge_list(ss2), std::runtime_error);
}

TEST(EdgeList, FileRoundTrip) {
  const Graph g = make_grid(3, 3);
  const std::string path = testing::TempDir() + "/gbis_io_test.txt";
  write_edge_list_file(path, g);
  expect_same_graph(g, read_edge_list_file(path));
}

TEST(EdgeList, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("/nonexistent/path/graph.txt"),
               std::runtime_error);
}

TEST(Metis, RoundTripPlain) {
  const Graph g = make_grid(4, 5);
  std::stringstream ss;
  write_metis(ss, g);
  expect_same_graph(g, read_metis(ss));
}

TEST(Metis, RoundTripWeighted) {
  const Graph g = weighted_sample();
  std::stringstream ss;
  write_metis(ss, g);
  expect_same_graph(g, read_metis(ss));
}

TEST(Metis, ParsesPercentComments) {
  std::stringstream ss("% comment\n3 2\n2\n1 3\n2\n");
  const Graph g = read_metis(ss);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 2));
}

TEST(Metis, RejectsMissingAdjacencyLine) {
  std::stringstream ss("3 1\n2\n1\n");  // third line missing
  EXPECT_THROW(read_metis(ss), std::runtime_error);
}

TEST(Metis, RejectsCountMismatch) {
  std::stringstream ss("3 2\n2\n1\n\n");  // only 2 half-entries, need 4
  EXPECT_THROW(read_metis(ss), std::runtime_error);
}

TEST(Metis, RejectsOutOfRangeNeighbor) {
  std::stringstream ss("2 1\n2\n5\n");
  EXPECT_THROW(read_metis(ss), std::runtime_error);
}

TEST(Metis, RejectsSelfLoop) {
  std::stringstream ss("2 1\n1\n2\n");
  EXPECT_THROW(read_metis(ss), std::runtime_error);
}

TEST(Metis, RejectsUnsupportedFormat) {
  std::stringstream ss("2 1 100\n1 2\n1 1\n");
  EXPECT_THROW(read_metis(ss), std::runtime_error);
}

TEST(Metis, RejectsMissingEdgeWeight) {
  std::stringstream ss("2 1 1\n2\n1 7\n");  // first line lacks the weight
  EXPECT_THROW(read_metis(ss), std::runtime_error);
}

TEST(Metis, CrossFormatConsistency) {
  // A graph written to both formats parses to the same structure.
  const Graph g = make_binary_tree(10);
  std::stringstream el, mt;
  write_edge_list(el, g);
  write_metis(mt, g);
  expect_same_graph(read_edge_list(el), read_metis(mt));
}

// --- io/journal ------------------------------------------------------------

std::string journal_file(const std::string& name, const std::string& bytes) {
  const std::string path = testing::TempDir() + name;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  return path;
}

struct ReadBack {
  bool opened = false;
  bool torn = true;
  std::vector<std::string> lines;
};

ReadBack read_back(const std::string& path) {
  ReadBack r;
  r.opened = read_lines(
      path, [&r](const std::string& line) { r.lines.push_back(line); },
      r.torn);
  return r;
}

TEST(Journal, ReadLinesVisitsOnlyTerminatedLines) {
  using Lines = std::vector<std::string>;
  const ReadBack terminated =
      read_back(journal_file("journal_terminated.txt", "a\n\nbc\n"));
  EXPECT_TRUE(terminated.opened);
  EXPECT_FALSE(terminated.torn);
  EXPECT_EQ(terminated.lines, (Lines{"a", "", "bc"}));

  // The tail after the last '\n' is an append that never finished.
  const ReadBack unterminated =
      read_back(journal_file("journal_unterminated.txt", "a\nbc"));
  EXPECT_TRUE(unterminated.opened);
  EXPECT_TRUE(unterminated.torn);
  EXPECT_EQ(unterminated.lines, (Lines{"a"}));

  const ReadBack empty = read_back(journal_file("journal_empty.txt", ""));
  EXPECT_TRUE(empty.opened);
  EXPECT_FALSE(empty.torn);
  EXPECT_TRUE(empty.lines.empty());

  const std::string missing = testing::TempDir() + "journal_missing.txt";
  std::remove(missing.c_str());
  const ReadBack none = read_back(missing);
  EXPECT_FALSE(none.opened);
  EXPECT_FALSE(none.torn);
  EXPECT_TRUE(none.lines.empty());
}

TEST(Journal, AppendLineFlushesOneTerminatedLine) {
  const std::string path = journal_file("journal_append.txt", "");
  std::ofstream out(path, std::ios::app);
  ASSERT_TRUE(append_line(out, "{\"a\":1}"));
  // Flushed: a reader sees the line while the writer is still open.
  const ReadBack r = read_back(path);
  EXPECT_FALSE(r.torn);
  EXPECT_EQ(r.lines, std::vector<std::string>{"{\"a\":1}"});
}

TEST(Journal, PublishFileReplacesTheWholeFile) {
  const std::string path = journal_file("journal_publish.txt", "old\nold\n");
  EXPECT_EQ(publish_file(path, [](std::ostream& out) { out << "new\n"; }),
            "");
  EXPECT_EQ(read_back(path).lines, std::vector<std::string>{"new"});
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(Journal, PublishIntoAMissingDirectoryNamesTheTmpFile) {
  const std::string dir = testing::TempDir() + "journal_no_such_dir";
  std::filesystem::remove_all(dir);
  const std::string path = dir + "/out.txt";
  bool wrote = false;
  const std::string error = publish_file(path, [&wrote](std::ostream&) {
    wrote = true;
  });
  EXPECT_NE(error.find(path + ".tmp"), std::string::npos) << error;
  EXPECT_FALSE(wrote);
  EXPECT_FALSE(std::filesystem::exists(dir));
}

}  // namespace
}  // namespace gbis
