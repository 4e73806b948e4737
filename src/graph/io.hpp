// Graph serialization: whitespace edge lists, DIMACS, and Graphviz DOT.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "graph/graph.hpp"

namespace selfstab::graph {

/// Thrown by the readers on malformed input.
class ParseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Writes "n m" followed by one "u v" line per edge (u < v, ascending), in
/// g's external numbering (Graph::labels()).
void writeEdgeList(std::ostream& out, const Graph& g);

/// Called with the header's (vertex, edge) counts before anything is
/// allocated; may throw to refuse a graph too large to hold.
using HeaderCheck = std::function<void(std::uint64_t, std::uint64_t)>;

/// Reads the format produced by writeEdgeList. Throws ParseError on
/// malformed input (bad counts, out-of-range or duplicate edges, self-loops).
Graph readEdgeList(std::istream& in, const HeaderCheck& checkHeader = {});

/// DIMACS format: "p edge n m" header, "e u v" lines with 1-based vertices.
/// The writers print external numbers, like writeEdgeList.
void writeDimacs(std::ostream& out, const Graph& g);
Graph readDimacs(std::istream& in);

/// Graphviz DOT (undirected), for eyeballing small experiment topologies.
void writeDot(std::ostream& out, const Graph& g,
              const std::string& name = "G");

}  // namespace selfstab::graph
