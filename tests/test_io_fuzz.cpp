// Failure-injection fuzzing of every parser: random byte soup and
// random structured-ish input must either parse or throw — never
// crash, hang, or return a structurally invalid object. The edge-list
// reader is also checked differentially against the istream reader it
// replaced, kept here as the reference.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "gbis/graph/builder.hpp"
#include "gbis/io/edge_list.hpp"
#include "gbis/io/hmetis.hpp"
#include "gbis/io/io_error.hpp"
#include "gbis/io/metis.hpp"
#include "gbis/io/partition_io.hpp"
#include "gbis/rng/rng.hpp"
#include "gbis/svc/fingerprint.hpp"
#include "gbis/util/json_lite.hpp"

namespace gbis {
namespace {

// --- Reference: the istream edge-list reader ------------------------------

[[noreturn]] void reference_fail(std::size_t line_no, const std::string& what) {
  throw IoError("edge_list: line " + std::to_string(line_no) + ": " + what);
}

/// The edge-list reader as it was before the in-place scanner: two
/// std::istringstreams per edge line. Only the builder type is a
/// parameter, so a screening builder can watch the same calls.
template <typename Builder>
Graph reference_read_edge_list(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;

  auto next_content_line = [&](std::string& out_line) -> bool {
    while (std::getline(in, line)) {
      ++line_no;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string::npos || line[first] == '#') continue;
      out_line = line;
      return true;
    }
    return false;
  };

  std::string content;
  if (!next_content_line(content)) {
    throw IoError("edge_list: missing header");
  }
  std::istringstream header(content);
  std::uint64_t n = 0, m = 0;
  if (!(header >> n >> m)) {
    reference_fail(line_no,
                   "bad header \"" + content + "\" (expected '<n> <m>')");
  }
  std::string extra;
  if (header >> extra) reference_fail(line_no, "trailing tokens in header");
  if (n > 0xFFFFFFFFull) {
    reference_fail(line_no, "vertex count " + std::to_string(n) +
                                " exceeds the 2^32-1 limit");
  }

  Builder builder(static_cast<std::uint32_t>(n));
  std::uint64_t edges_read = 0;
  while (next_content_line(content)) {
    std::istringstream ls(content);
    std::string first_tok;
    ls >> first_tok;
    if (first_tok == "v") {
      std::uint64_t v = 0;
      Weight w = 0;
      if (!(ls >> v >> w)) reference_fail(line_no, "bad vertex-weight line");
      if (v >= n) {
        reference_fail(line_no, "vertex id " + std::to_string(v) +
                                    " out of range [0, " +
                                    std::to_string(n) + ")");
      }
      if (w <= 0) {
        reference_fail(line_no, "vertex weight " + std::to_string(w) +
                                    " must be positive");
      }
      builder.set_vertex_weight(static_cast<Vertex>(v), w);
      continue;
    }
    std::uint64_t u = 0, v = 0;
    Weight w = 1;
    std::istringstream es(content);
    if (!(es >> u >> v)) reference_fail(line_no, "bad edge line");
    es >> w;  // optional
    if (u >= n || v >= n) {
      reference_fail(line_no, "edge endpoint " +
                                  std::to_string(u >= n ? u : v) +
                                  " out of range [0, " + std::to_string(n) +
                                  ")");
    }
    if (u == v) {
      reference_fail(line_no, "self-loop on vertex " + std::to_string(u));
    }
    if (w <= 0) {
      reference_fail(line_no,
                     "edge weight " + std::to_string(w) + " must be positive");
    }
    std::string garbage;
    if (es >> garbage) reference_fail(line_no, "trailing tokens on edge line");
    builder.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v), w);
    ++edges_read;
  }
  if (edges_read != m) {
    throw IoError("edge_list: header declared " + std::to_string(m) +
                  " edges, found " + std::to_string(edges_read));
  }
  try {
    return builder.build();
  } catch (const std::invalid_argument& e) {  // the weight limit
    throw IoError(std::string("edge_list: ") + e.what());
  }
}

/// Thrown (not a std::exception, so it escapes outcome()) for a case
/// the differential test leaves out.
struct SkipCase {};

/// GraphBuilder that refuses the one input neither reader can be run
/// on: a header vertex count large enough to allocate gigabytes.
/// Weights need no screen: GraphBuilder::build rejects totals past the
/// 2^60 limit before it forms any sum that could overflow.
class ScreeningBuilder {
 public:
  static constexpr std::uint32_t kMaxVertices = 1u << 16;

  explicit ScreeningBuilder(std::uint32_t n)
      : builder_(n <= kMaxVertices ? n : throw SkipCase{}) {}

  void add_edge(Vertex u, Vertex v, Weight w) { builder_.add_edge(u, v, w); }

  void set_vertex_weight(Vertex v, Weight w) {
    builder_.set_vertex_weight(v, w);
  }

  Graph build() { return builder_.build(); }

 private:
  GraphBuilder builder_;
};

/// A graph as comparable text: vertex weights, edges and fingerprint.
std::string summary(const Graph& g) {
  std::string out = "graph n=" + std::to_string(g.num_vertices()) +
                    " fp=" + to_hex16(graph_fingerprint(g)) + " vw=";
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    out += std::to_string(g.vertex_weight(v)) + ",";
  }
  out += " edges=";
  for (const Edge& e : g.edges()) {
    out += std::to_string(e.u) + "-" + std::to_string(e.v) + ":" +
           std::to_string(e.weight) + ",";
  }
  return out;
}

/// A reader's result as text: the graph's summary, or the exception's
/// type and message.
template <typename Read>
std::string outcome(Read&& read) {
  try {
    return summary(read());
  } catch (const IoError& e) {
    return std::string("IoError: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("exception: ") + e.what();
  }
}

/// Control and non-ASCII bytes as \xNN, for failure messages.
std::string printable(std::string_view text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f) {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", byte);
      out += buf;
    }
  }
  return out;
}

/// The in-place reader's outcome on `text`, after checking that the
/// reference reader's outcome is the same.
std::string read_both(const std::string& text) {
  const std::string expected = outcome([&] {
    std::istringstream in(text);
    return reference_read_edge_list<GraphBuilder>(in);
  });
  const std::string actual =
      outcome([&] { return read_edge_list(std::string_view(text)); });
  EXPECT_EQ(actual, expected) << printable(text);
  return actual;
}

std::string graph_of(std::uint32_t n, const std::vector<Edge>& edges,
                     const std::vector<Weight>& vertex_weights = {}) {
  GraphBuilder b(n);
  for (const Edge& e : edges) b.add_edge(e.u, e.v, e.weight);
  for (Vertex v = 0; v < vertex_weights.size(); ++v) {
    b.set_vertex_weight(v, vertex_weights[v]);
  }
  return summary(b.build());
}

std::string io_error(const std::string& what) {
  return "IoError: edge_list: " + what;
}

// --- The token rules the in-place reader keeps ----------------------------

TEST(EdgeListRules, LinesEndAtNewlineAndAFinalUnterminatedLineCounts) {
  const std::string one_edge = graph_of(2, {{0, 1, 1}});
  EXPECT_EQ(read_both("2 1\n0 1"), one_edge);
  EXPECT_EQ(read_both("2 1\n0 1\n"), one_edge);
  EXPECT_EQ(read_both("2 1\n\n0 1\n\n\n"), one_edge);
  EXPECT_EQ(read_both("2 1\n\n0 5"),
            io_error("line 3: edge endpoint 5 out of range [0, 2)"));
  EXPECT_EQ(read_both(""), io_error("missing header"));
  EXPECT_EQ(read_both("\n \n# only a comment"), io_error("missing header"));
  EXPECT_EQ(read_both("2 2\n0 1\n"),
            io_error("header declared 2 edges, found 1"));
}

TEST(EdgeListRules, BlankLinesHoldOnlySpaceTabAndCr) {
  const std::string one_edge = graph_of(2, {{0, 1, 1}});
  EXPECT_EQ(read_both("2 1\n \t\r\n\t# comment\n0 1\n"), one_edge);
  // \v and \f are token separators but do not make a line blank, nor
  // let a comment start after them.
  EXPECT_EQ(read_both("2 1\n\v\n0 1\n"), io_error("line 2: bad edge line"));
  EXPECT_EQ(read_both("2 1\n\f# c\n0 1\n"),
            io_error("line 2: bad edge line"));
  EXPECT_EQ(read_both("2 1\n\f0 1\n"), one_edge);
}

TEST(EdgeListRules, TokensSplitOnAllSixSpaceBytes) {
  EXPECT_EQ(read_both("2\v1\n0\f1\t5\r\n"), graph_of(2, {{0, 1, 5}}));
  EXPECT_EQ(read_both("2 1\n0\r1\n"), graph_of(2, {{0, 1, 1}}));
  EXPECT_EQ(read_both(std::string("2 1\n0\0 1\n", 9)),
            io_error("line 2: bad edge line"));
}

TEST(EdgeListRules, IntegersTakeASignAndMinusWrapsUnsigned) {
  EXPECT_EQ(read_both("+2 +1\n+0 +1 +3\n"), graph_of(2, {{0, 1, 3}}));
  EXPECT_EQ(read_both("2 -0\n"), graph_of(2, {}));
  EXPECT_EQ(read_both("2 1\n-1 0\n"),
            io_error("line 2: edge endpoint 18446744073709551615 out of "
                     "range [0, 2)"));
  EXPECT_EQ(read_both("2 1\n0 1 -4\n"),
            io_error("line 2: edge weight -4 must be positive"));
  EXPECT_EQ(read_both("2 1\n0 1 0x5\n"),
            io_error("line 2: edge weight 0 must be positive"));
}

TEST(EdgeListRules, NoDigitsStoresZeroAndFails) {
  EXPECT_EQ(read_both("2 1\n0 1 x\n"),
            io_error("line 2: edge weight 0 must be positive"));
  EXPECT_EQ(read_both("2 1\n0 1 -\n"),
            io_error("line 2: edge weight 0 must be positive"));
  EXPECT_EQ(read_both("2 1\n0 1x\n"),
            io_error("line 2: edge weight 0 must be positive"));
  EXPECT_EQ(read_both("2 1\n0 1 .5\n"),
            io_error("line 2: edge weight 0 must be positive"));
  EXPECT_EQ(read_both("2 1\n0 +\n"), io_error("line 2: bad edge line"));
  EXPECT_EQ(read_both("2 x\n"),
            io_error("line 1: bad header \"2 x\" (expected '<n> <m>')"));
}

TEST(EdgeListRules, OverflowSaturatesAndFails) {
  // A saturated weight reads as INT64_MAX, which the 2^60 total weight
  // limit then rejects.
  const std::string over_limit =
      io_error("total edge weight exceeds the 2^60 limit");
  EXPECT_EQ(read_both("2 1\n0 1 99999999999999999999\n"), over_limit);
  EXPECT_EQ(read_both("2 1\n0 1 9223372036854775807\n"), over_limit);
  EXPECT_EQ(read_both("2 1\n0 1 -99999999999999999999\n"),
            io_error("line 2: edge weight -9223372036854775808 must be "
                     "positive"));
  EXPECT_EQ(read_both("2 1\n0 18446744073709551616\n"),
            io_error("line 2: bad edge line"));
  EXPECT_EQ(read_both("2 1\n0 18446744073709551615\n"),
            io_error("line 2: edge endpoint 18446744073709551615 out of "
                     "range [0, 2)"));
  EXPECT_EQ(read_both("2 1\nv 0 9223372036854775808\n"),
            io_error("line 2: bad vertex-weight line"));
  EXPECT_EQ(read_both("99999999999999999999 1\n"),
            io_error("line 1: bad header \"99999999999999999999 1\" "
                     "(expected '<n> <m>')"));
  EXPECT_EQ(read_both("4294967296 0\n"),
            io_error("line 1: vertex count 4294967296 exceeds the 2^32-1 "
                     "limit"));
}

TEST(EdgeListRules, AReadAfterAFailureFailsAndLeavesItsTargetAlone) {
  // The saturated weight fails its read, so the trailing-token read
  // after it fails too instead of reporting "junk"; the INT64_MAX it
  // stored is then over the weight limit.
  EXPECT_EQ(read_both("2 1\n0 1 99999999999999999999 junk\n"),
            io_error("total edge weight exceeds the 2^60 limit"));
  // A read past the end of the line keeps the default weight of 1.
  EXPECT_EQ(read_both("2 1\n0 1 \t\n"), graph_of(2, {{0, 1, 1}}));
  EXPECT_EQ(read_both("2 1\n0 1 3 junk\n"),
            io_error("line 2: trailing tokens on edge line"));
  EXPECT_EQ(read_both("2 1\n0 1 3.5\n"),
            io_error("line 2: trailing tokens on edge line"));
  EXPECT_EQ(read_both("2 1 x\n"),
            io_error("line 1: trailing tokens in header"));
}

TEST(EdgeListRules, TotalWeightsAreLimitedTo2To60) {
  constexpr Weight kLimit = kMaxTotalWeight;
  const std::string limit = std::to_string(kLimit);
  const std::string over = std::to_string(kLimit + 1);
  EXPECT_EQ(read_both("2 1\n0 1 " + limit + "\n"),
            graph_of(2, {{0, 1, kLimit}}));
  EXPECT_EQ(read_both("2 1\n0 1 " + over + "\n"),
            io_error("total edge weight exceeds the 2^60 limit"));
  // The limit is on the total, so two legal weights can cross it.
  EXPECT_EQ(read_both("3 2\n0 1 " + limit + "\n1 2 1\n"),
            io_error("total edge weight exceeds the 2^60 limit"));
  EXPECT_EQ(read_both("2 0\nv 0 " + std::to_string(kLimit - 1) + "\n"),
            graph_of(2, {}, {kLimit - 1, 1}));
  EXPECT_EQ(read_both("2 0\nv 0 " + limit + "\n"),
            io_error("total vertex weight exceeds the 2^60 limit"));
}

TEST(EdgeListRules, VertexWeightLinesIgnoreTrailingTokens) {
  EXPECT_EQ(read_both("2 1\nv 1 2 junk\n0 1\n"),
            graph_of(2, {{0, 1, 1}}, {1, 2}));
  EXPECT_EQ(read_both("2 1\nv 1\n"),
            io_error("line 2: bad vertex-weight line"));
  EXPECT_EQ(read_both("2 1\nv 2 1\n"),
            io_error("line 2: vertex id 2 out of range [0, 2)"));
  EXPECT_EQ(read_both("2 1\nv 1 0\n"),
            io_error("line 2: vertex weight 0 must be positive"));
  EXPECT_EQ(read_both("2 1\nv1 2\n"), io_error("line 2: bad edge line"));
}

TEST(EdgeListRules, CrlfLinesParse) {
  EXPECT_EQ(read_both("# c\r\n2 1\r\nv 0 3\r\n\r\n0 1 2\r\n"),
            graph_of(2, {{0, 1, 2}}, {3, 1}));
  EXPECT_EQ(read_both("2\r\n"),
            io_error("line 1: bad header \"2\r\" (expected '<n> <m>')"));
}

// --- Differential fuzzing against the reference ---------------------------

/// A valid payload in the syntax the reader tolerates: comments, blank
/// and indented lines, vertex-weight lines, explicit weights, tabs,
/// CRLF, and sometimes no final newline.
std::string valid_payload(Rng& rng) {
  const std::uint64_t n = 2 + rng.below(11);
  const std::uint64_t m = rng.below(2 * n + 1);
  const std::string eol = rng.below(4) == 0 ? "\r\n" : "\n";
  const char* const kSeparators[] = {" ", " ", "\t", "  "};
  std::string text;
  auto add_line = [&](const std::vector<std::string>& tokens) {
    if (rng.below(5) == 0) {
      const char* const kFiller[] = {"", " \t", "# comment", "  # x 1 2"};
      text += kFiller[rng.below(4)] + eol;
    }
    if (rng.below(6) == 0) text += kSeparators[rng.below(4)];
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (i > 0) text += kSeparators[rng.below(4)];
      text += tokens[i];
    }
    text += eol;
  };
  add_line({std::to_string(n), std::to_string(m)});
  for (std::uint64_t v = 0; v < n; ++v) {
    if (rng.below(4) == 0) {
      add_line({"v", std::to_string(v), std::to_string(1 + rng.below(9))});
    }
  }
  for (std::uint64_t e = 0; e < m; ++e) {
    const std::uint64_t u = rng.below(n);
    const std::uint64_t v = (u + 1 + rng.below(n - 1)) % n;
    std::vector<std::string> tokens = {std::to_string(u), std::to_string(v)};
    if (rng.below(2) == 0) tokens.push_back(std::to_string(1 + rng.below(99)));
    add_line(tokens);
  }
  if (rng.below(4) == 0) text.resize(text.size() - eol.size());
  return text;
}

/// A 19- or 20-digit number: around both the int64 and the uint64
/// limits.
std::string long_number(Rng& rng) {
  std::string digits(1, static_cast<char>('1' + rng.below(9)));
  const std::uint64_t length = 19 + rng.below(2);
  while (digits.size() < length) {
    digits += static_cast<char>('0' + rng.below(10));
  }
  return digits;
}

/// Inserts, deletes or replaces one to four bytes: the separators, the
/// bytes the token rules single out, a digit, or a long number.
void mutate(Rng& rng, std::string& text) {
  static constexpr char kBytes[] = {' ', '\t', '\r', '\v', '\f', '\0',
                                    '\xff', '#', 'v', '+', '-', '.',
                                    'x', '\n', '7'};
  const std::uint64_t edits = 1 + rng.below(4);
  for (std::uint64_t k = 0; k < edits; ++k) {
    const std::string piece = rng.below(8) == 0
                                  ? long_number(rng)
                                  : std::string(1, kBytes[rng.below(
                                                       sizeof kBytes)]);
    const std::size_t at = rng.below(text.size() + 1);
    switch (at == text.size() ? 0 : rng.below(3)) {
      case 0: text.insert(at, piece); break;
      case 1: text.erase(at, 1); break;
      default: text.replace(at, 1, piece); break;
    }
  }
}

class EdgeListDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(EdgeListDifferential, MatchesTheIstreamReader) {
  constexpr int kCases = 25000;
  Rng rng(GetParam());
  int parsed = 0, errors = 0, too_many_vertices = 0;
  for (int c = 0; c < kCases; ++c) {
    std::string text = valid_payload(rng);
    if (c % 16 != 0) mutate(rng, text);
    std::string expected;
    try {
      expected = outcome([&] {
        std::istringstream in(text);
        return reference_read_edge_list<ScreeningBuilder>(in);
      });
    } catch (const SkipCase&) {
      ++too_many_vertices;
      continue;
    }
    const std::string actual =
        outcome([&] { return read_edge_list(std::string_view(text)); });
    ASSERT_EQ(actual, expected) << "case " << c << ": " << printable(text);
    ++(expected.starts_with("graph") ? parsed : errors);
  }
  // Both sides of the reader get real coverage, and the screen leaves
  // out only a sliver.
  EXPECT_GT(parsed, kCases / 10);
  EXPECT_GT(errors, kCases / 10);
  EXPECT_LT(too_many_vertices, kCases / 50);
  std::printf("edge-list differential seed %llu: %d parsed, %d errors, "
              "%d skipped for size\n",
              static_cast<unsigned long long>(GetParam()), parsed, errors,
              too_many_vertices);
}

// 4 x 25000 = 100k cases.
INSTANTIATE_TEST_SUITE_P(Seeds, EdgeListDifferential,
                         testing::Values(11u, 12u, 13u, 14u));

TEST(EdgeListDifferential, LargeGeneratedListsMatchTheIstreamReader) {
  // 10^4 to 10^5 edges: sorted and shuffled, weighted, with parallel
  // edges, CRLF, comment, blank and `v` lines.
  Rng rng(77);
  for (const std::uint64_t m : {10000u, 30000u, 100000u}) {
    for (int variant = 0; variant < 4; ++variant) {
      const std::uint64_t n = 2 + m / 3;
      std::vector<std::pair<std::uint64_t, std::uint64_t>> pairs;
      for (std::uint64_t e = 0; e < m; ++e) {
        const std::uint64_t u = rng.below(n);
        const std::uint64_t v = (u + 1 + rng.below(n - 1)) % n;
        pairs.emplace_back(std::min(u, v), std::max(u, v));
        if (variant == 2 && e + 1 < m && rng.below(4) == 0) {
          pairs.emplace_back(v, u);  // a parallel edge, reversed
          ++e;
        }
      }
      if (variant % 2 == 0) {
        std::sort(pairs.begin(), pairs.end());
      } else {
        rng.shuffle(pairs);
      }
      const std::string eol = variant == 3 ? "\r\n" : "\n";
      std::string text = "# generated\n" + std::to_string(n) + " " +
                         std::to_string(pairs.size()) + eol;
      for (std::uint64_t v = 0; v < n; v += 97) {
        text += "v " + std::to_string(v) + " " + std::to_string(2 + v % 5) + eol;
      }
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        if (k % 1000 == 0) text += "# block\n\t\n";
        text += std::to_string(pairs[k].first) + (k % 7 == 0 ? "\t" : " ") +
                std::to_string(pairs[k].second);
        if (variant >= 1 && k % 3 == 0) {
          text += " " + std::to_string(1 + rng.below(1000));
        }
        text += eol;
      }
      SCOPED_TRACE("m=" + std::to_string(m) + " variant " +
                   std::to_string(variant));
      EXPECT_TRUE(read_both(text).starts_with("graph"));
    }
  }
}

// --- Crash-freedom fuzzing of every reader --------------------------------

std::string random_soup(Rng& rng, std::size_t length) {
  // Characters the tokenizers actually meet: digits, spaces, newlines,
  // signs, letters, comment markers.
  static constexpr char kAlphabet[] =
      "0123456789 \n\t-+#%vabc.";
  std::string soup;
  soup.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    soup += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  }
  return soup;
}

/// A header-plausible prefix followed by soup: exercises deeper parser
/// states than pure noise.
std::string structured_soup(Rng& rng, const char* header) {
  return std::string(header) + "\n" + random_soup(rng, 200);
}

class IoFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(IoFuzz, EdgeListNeverCrashes) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    std::stringstream ss(round % 2 == 0 ? random_soup(rng, 300)
                                        : structured_soup(rng, "10 5"));
    try {
      const Graph g = read_edge_list(ss);
      EXPECT_TRUE(g.validate());  // if it parses, it must be sound
    } catch (const std::runtime_error&) {
      // expected for malformed input
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(IoFuzz, MetisNeverCrashes) {
  Rng rng(GetParam() + 1000);
  for (int round = 0; round < 50; ++round) {
    std::stringstream ss(round % 2 == 0 ? random_soup(rng, 300)
                                        : structured_soup(rng, "4 3"));
    try {
      const Graph g = read_metis(ss);
      EXPECT_TRUE(g.validate());
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(IoFuzz, HmetisNeverCrashes) {
  Rng rng(GetParam() + 2000);
  for (int round = 0; round < 50; ++round) {
    std::stringstream ss(round % 2 == 0 ? random_soup(rng, 300)
                                        : structured_soup(rng, "3 6"));
    try {
      const Hypergraph h = read_hmetis(ss);
      EXPECT_TRUE(h.validate());
    } catch (const std::runtime_error&) {
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST_P(IoFuzz, PartitionNeverCrashes) {
  Rng rng(GetParam() + 3000);
  for (int round = 0; round < 50; ++round) {
    std::stringstream ss(random_soup(rng, 200));
    try {
      (void)read_partition(ss, 0, 4);
    } catch (const std::runtime_error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IoFuzz, testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace gbis
