// Plain-text edge-list serialization.
//
// Format (0-indexed vertices):
//   # comment lines start with '#'
//   <num_vertices> <num_edges>
//   u v [weight]            (one line per edge; weight defaults to 1)
//   ...
// Vertex weights, when any differ from 1, are written as lines
//   v <vertex> <weight>
// after the header and before the edges. Readers reject malformed
// input with IoError (io/io_error.hpp, a std::runtime_error) carrying
// a line number. Tokens are read as `std::istream >>` reads them in
// the C locale; docs/FORMATS.md has the rules.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "gbis/graph/graph.hpp"

namespace gbis {

/// Writes g in edge-list format.
void write_edge_list(std::ostream& out, const Graph& g);

/// Writes g to a file; throws std::runtime_error if the file cannot be
/// opened.
void write_edge_list_file(const std::string& path, const Graph& g);

/// Parses a graph from edge-list text in place, one pass over the
/// bytes. Throws IoError on malformed input (bad header, out-of-range
/// endpoints, self-loops, non-positive weights, trailing garbage).
Graph read_edge_list(std::string_view text);

/// Reads the rest of `in` into memory and parses it as above.
Graph read_edge_list(std::istream& in);

/// Reads a graph from a file; throws IoError on open failure or
/// malformed content.
Graph read_edge_list_file(const std::string& path);

}  // namespace gbis
