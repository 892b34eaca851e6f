#include "gbis/io/metis.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "gbis/graph/builder.hpp"
#include "gbis/io/io_error.hpp"

namespace gbis {

namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& what) {
  throw IoError("metis: line " + std::to_string(line_no) + ": " + what);
}

bool next_content_line(std::istream& in, std::string& out_line,
                       std::size_t& line_no) {
  std::string line;
  while (std::getline(in, line)) {
    ++line_no;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '%') continue;
    out_line = line;
    return true;
  }
  return false;
}

}  // namespace

void write_metis(std::ostream& out, const Graph& g) {
  bool has_vw = false;
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    if (g.vertex_weight(v) != 1) has_vw = true;
  }
  bool has_ew = false;
  for (const Edge& e : g.edges()) {
    if (e.weight != 1) has_ew = true;
  }
  const int fmt = (has_vw ? 10 : 0) + (has_ew ? 1 : 0);
  out << g.num_vertices() << ' ' << g.num_edges();
  if (fmt != 0) out << ' ' << (fmt < 10 ? "0" : "") << fmt;
  out << '\n';
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    if (has_vw) {
      out << g.vertex_weight(v);
      first = false;
    }
    const auto nbrs = g.neighbors(v);
    const auto wts = g.edge_weights(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (!first) out << ' ';
      first = false;
      out << (nbrs[i] + 1);
      if (has_ew) out << ' ' << wts[i];
    }
    out << '\n';
  }
}

void write_metis_file(const std::string& path, const Graph& g) {
  std::ofstream out(path);
  if (!out) throw IoError("metis: cannot open " + path);
  write_metis(out, g);
  if (!out) throw IoError("metis: write failed: " + path);
}

Graph read_metis(std::istream& in) {
  std::size_t line_no = 0;
  std::string content;
  if (!next_content_line(in, content, line_no)) {
    throw IoError("metis: missing header");
  }
  std::istringstream header(content);
  std::uint64_t n = 0, m = 0;
  std::string fmt_str = "0";
  if (!(header >> n >> m)) {
    fail(line_no, "bad header \"" + content + "\" (expected '<n> <m> [fmt]')");
  }
  header >> fmt_str;
  if (n > 0xFFFFFFFFull) {
    fail(line_no, "vertex count " + std::to_string(n) +
                      " exceeds the 2^32-1 limit");
  }
  const bool has_ew = fmt_str == "1" || fmt_str == "11" || fmt_str == "011";
  const bool has_vw = fmt_str == "10" || fmt_str == "11" || fmt_str == "010" ||
                      fmt_str == "011";
  if (!has_ew && !has_vw && fmt_str != "0" && fmt_str != "00" &&
      fmt_str != "000") {
    fail(line_no, "unsupported fmt '" + fmt_str + "'");
  }

  GraphBuilder builder(static_cast<std::uint32_t>(n));
  std::uint64_t half_edges = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    if (!next_content_line(in, content, line_no)) {
      fail(line_no, "expected adjacency line for vertex " +
                        std::to_string(v + 1));
    }
    std::istringstream ls(content);
    if (has_vw) {
      Weight w = 0;
      if (!(ls >> w)) fail(line_no, "missing vertex weight");
      if (w <= 0) {
        fail(line_no, "vertex weight " + std::to_string(w) +
                          " must be positive");
      }
      builder.set_vertex_weight(static_cast<Vertex>(v), w);
    }
    std::uint64_t nbr = 0;
    while (ls >> nbr) {
      if (nbr < 1 || nbr > n) {
        fail(line_no, "vertex id " + std::to_string(nbr) +
                          " out of range [1, " + std::to_string(n) + "]");
      }
      const auto u = static_cast<Vertex>(nbr - 1);
      Weight w = 1;
      if (has_ew && !(ls >> w)) fail(line_no, "missing edge weight");
      if (w <= 0) {
        fail(line_no,
             "edge weight " + std::to_string(w) + " must be positive");
      }
      if (u == v) {
        fail(line_no, "self-loop on vertex " + std::to_string(v + 1));
      }
      ++half_edges;
      // Each undirected edge appears in both endpoint lines; stage it
      // only from the smaller endpoint. Halved weight tricks are not
      // needed because the builder merges duplicates by summing.
      if (v < u) builder.add_edge(static_cast<Vertex>(v), u, w);
    }
  }
  if (half_edges != 2 * m) {
    throw IoError("metis: header declared " + std::to_string(m) +
                  " edges, adjacency lists contain " +
                  std::to_string(half_edges) + " entries");
  }
  Graph g;
  try {
    g = builder.build();
  } catch (const std::invalid_argument& e) {  // the weight limit
    throw IoError(std::string("metis: ") + e.what());
  }
  if (g.num_edges() != m) {
    throw IoError("metis: duplicate adjacency entries");
  }
  return g;
}

Graph read_metis_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("metis: cannot open " + path);
  return read_metis(in);
}

}  // namespace gbis
