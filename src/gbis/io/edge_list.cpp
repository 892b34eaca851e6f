#include "gbis/io/edge_list.hpp"

#include <algorithm>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>

#include "gbis/graph/builder.hpp"
#include "gbis/io/io_error.hpp"

namespace gbis {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw IoError("edge_list: line " + std::to_string(line_no) + ": " + what);
}

/// What `std::istream >>` skips between tokens in the C locale.
bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Reads one line's tokens the way `std::istringstream >>` reads them
/// in the C locale, without copying the line. Once a read fails, every
/// later read fails too and leaves its target alone, as a stream's
/// failbit does; a read past the end of the line fails the same way.
class LineScanner {
 public:
  explicit LineScanner(std::string_view line) : line_(line) {}

  explicit operator bool() const { return ok_; }

  /// `>> std::string`: the next whitespace-delimited token.
  LineScanner& operator>>(std::string_view& token) {
    if (skip_space()) {
      const std::size_t start = pos_;
      while (pos_ < line_.size() && !is_space(line_[pos_])) ++pos_;
      token = line_.substr(start, pos_ - start);
    }
    return *this;
  }

  /// True when the next token is exactly "v" (a vertex-weight line),
  /// which it then consumes. Otherwise it only skips spaces, failing at
  /// the end of the line as every read there does.
  bool take_v() {
    if (!skip_space() || line_[pos_] != 'v') return false;
    if (pos_ + 1 < line_.size() && !is_space(line_[pos_ + 1])) return false;
    ++pos_;
    return true;
  }

  /// `>> integer`: an optional sign, then decimal digits up to the
  /// first non-digit. No digits stores 0 and fails; overflow stores the
  /// saturated value and fails; '-' on an unsigned target wraps.
  template <typename Int>
  LineScanner& operator>>(Int& out) {
    if (!skip_space()) return *this;
    using Unsigned = std::make_unsigned_t<Int>;
    const bool negative = line_[pos_] == '-';
    if (negative || line_[pos_] == '+') ++pos_;
    const auto max = static_cast<Unsigned>(std::numeric_limits<Int>::max());
    const Unsigned limit = negative && std::is_signed_v<Int> ? max + 1 : max;
    const std::size_t digits = pos_;
    Unsigned value = 0;
    // digits10 digits cannot overflow Int: read them unchecked.
    const std::size_t unchecked = std::min(
        line_.size(), pos_ + std::numeric_limits<Int>::digits10);
    for (; pos_ < unchecked && line_[pos_] >= '0' && line_[pos_] <= '9';
         ++pos_) {
      value = value * 10 + static_cast<Unsigned>(line_[pos_] - '0');
    }
    bool overflow = false;
    for (; pos_ < line_.size() && line_[pos_] >= '0' && line_[pos_] <= '9';
         ++pos_) {
      const auto digit = static_cast<Unsigned>(line_[pos_] - '0');
      overflow = overflow || value > (limit - digit) / 10;
      if (!overflow) value = value * 10 + digit;
    }
    if (pos_ == digits) {
      out = 0;
      ok_ = false;
    } else if (overflow) {
      out = negative && std::is_signed_v<Int> ? std::numeric_limits<Int>::min()
                                              : std::numeric_limits<Int>::max();
      ok_ = false;
    } else {
      out = static_cast<Int>(negative ? Unsigned{0} - value : value);
    }
    return *this;
  }

 private:
  /// Skips whitespace; false, and failed, at the end of the line.
  bool skip_space() {
    while (ok_ && pos_ < line_.size() && is_space(line_[pos_])) ++pos_;
    ok_ = ok_ && pos_ < line_.size();
    return ok_;
  }

  std::string_view line_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace

void write_edge_list(std::ostream& out, const Graph& g) {
  out << "# gbis edge list\n";
  out << g.num_vertices() << ' ' << g.num_edges() << '\n';
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_weight(v) != 1) {
      out << "v " << v << ' ' << g.vertex_weight(v) << '\n';
    }
  }
  for (const Edge& e : g.edges()) {
    out << e.u << ' ' << e.v;
    if (e.weight != 1) out << ' ' << e.weight;
    out << '\n';
  }
}

void write_edge_list_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out) throw IoError("edge_list: cannot open " + path);
  write_edge_list(out, g);
  if (!out) throw IoError("edge_list: write failed: " + path);
}

Graph read_edge_list(std::string_view text) {
  std::size_t line_no = 0;
  std::size_t next = 0;  // start of the first unread line

  // Lines end at '\n', and a final unterminated line counts when it is
  // non-empty (std::getline's rule). Lines holding only " \t\r", and
  // comment lines, are skipped.
  auto next_content_line = [&](std::string_view& out_line) -> bool {
    while (next < text.size()) {
      const std::size_t end = std::min(text.find('\n', next), text.size());
      const std::string_view line = text.substr(next, end - next);
      next = end + 1;
      ++line_no;
      const auto first = line.find_first_not_of(" \t\r");
      if (first == std::string_view::npos || line[first] == '#') continue;
      out_line = line;
      return true;
    }
    return false;
  };

  std::string_view content;
  if (!next_content_line(content)) {
    throw IoError("edge_list: missing header");
  }
  LineScanner header(content);
  std::uint64_t n = 0, m = 0;
  if (!(header >> n >> m)) {
    fail(line_no, "bad header \"" + std::string(content) +
                      "\" (expected '<n> <m>')");
  }
  std::string_view extra;
  if (header >> extra) fail(line_no, "trailing tokens in header");
  if (n > 0xFFFFFFFFull) {
    fail(line_no,
         "vertex count " + std::to_string(n) + " exceeds the 2^32-1 limit");
  }

  GraphBuilder builder(static_cast<std::uint32_t>(n));
  // An edge line takes at least four bytes, so a header cannot make the
  // reader reserve more than the payload could hold.
  builder.reserve_edges(
      static_cast<std::size_t>(std::min<std::uint64_t>(m, text.size() / 4)));
  std::uint64_t edges_read = 0;
  while (next_content_line(content)) {
    // One scan per line: the first token is "v", or the line is an edge
    // read from the same position (skipped spaces skip again the same).
    LineScanner ls(content);
    if (ls.take_v()) {
      std::uint64_t v = 0;
      Weight w = 0;
      if (!(ls >> v >> w)) fail(line_no, "bad vertex-weight line");
      if (v >= n) {
        fail(line_no, "vertex id " + std::to_string(v) +
                          " out of range [0, " + std::to_string(n) + ")");
      }
      if (w <= 0) {
        fail(line_no, "vertex weight " + std::to_string(w) +
                          " must be positive");
      }
      builder.set_vertex_weight(static_cast<Vertex>(v), w);
      continue;
    }
    std::uint64_t u = 0, v = 0;
    Weight w = 1;
    if (!(ls >> u >> v)) fail(line_no, "bad edge line");
    ls >> w;  // optional
    if (u >= n || v >= n) {
      fail(line_no, "edge endpoint " + std::to_string(u >= n ? u : v) +
                        " out of range [0, " + std::to_string(n) + ")");
    }
    if (u == v) fail(line_no, "self-loop on vertex " + std::to_string(u));
    if (w <= 0) {
      fail(line_no, "edge weight " + std::to_string(w) + " must be positive");
    }
    std::string_view garbage;
    if (ls >> garbage) fail(line_no, "trailing tokens on edge line");
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

Graph read_edge_list(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return read_edge_list(text.view());
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("edge_list: cannot open " + path);
  return read_edge_list(in);
}

}  // namespace gbis
