#include "graph/io.hpp"

#include <istream>
#include <ostream>
#include <sstream>
#include <string>

namespace selfstab::graph {

namespace {

[[noreturn]] void fail(const std::string& message) { throw ParseError(message); }

// Vertices are 32-bit with kNoVertex reserved, so a larger header count can
// never be a real graph. Stream extraction wraps "-1" into a huge unsigned
// value, which lands here too instead of in Graph's allocation.
void checkVertexCount(std::uint64_t n) {
  if (n >= kNoVertex) {
    fail("vertex count " + std::to_string(n) + " out of range (must be < " +
         std::to_string(kNoVertex) + ")");
  }
}

void addCheckedEdge(Graph& g, std::uint64_t u, std::uint64_t v) {
  if (u >= g.order() || v >= g.order()) fail("edge endpoint out of range");
  if (u == v) fail("self-loop not allowed");
  if (!g.addEdge(static_cast<Vertex>(u), static_cast<Vertex>(v))) {
    fail("duplicate edge");
  }
}

}  // namespace

void writeEdgeList(std::ostream& out, const Graph& g) {
  out << g.order() << ' ' << g.size() << '\n';
  for (const Edge& e : g.edges()) out << e.u << ' ' << e.v << '\n';
}

Graph readEdgeList(std::istream& in) {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  if (!(in >> n >> m)) fail("missing edge-list header");
  checkVertexCount(n);
  Graph g(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(in >> u >> v)) fail("truncated edge list");
    addCheckedEdge(g, u, v);
  }
  return g;
}

void writeDimacs(std::ostream& out, const Graph& g) {
  out << "p edge " << g.order() << ' ' << g.size() << '\n';
  for (const Edge& e : g.edges()) {
    out << "e " << (e.u + 1) << ' ' << (e.v + 1) << '\n';
  }
}

Graph readDimacs(std::istream& in) {
  Graph g;
  bool sawHeader = false;
  std::uint64_t expectedEdges = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == 'c') continue;
    std::istringstream ls(line);
    char kind = 0;
    ls >> kind;
    if (kind == 'p') {
      std::string format;
      std::uint64_t n = 0;
      if (!(ls >> format >> n >> expectedEdges) || format != "edge") {
        fail("bad DIMACS problem line");
      }
      checkVertexCount(n);
      g = Graph(n);
      sawHeader = true;
    } else if (kind == 'e') {
      if (!sawHeader) fail("DIMACS edge before problem line");
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      if (!(ls >> u >> v) || u == 0 || v == 0) fail("bad DIMACS edge line");
      addCheckedEdge(g, u - 1, v - 1);
    } else {
      fail("unknown DIMACS line kind");
    }
  }
  if (!sawHeader) fail("missing DIMACS problem line");
  if (g.size() != expectedEdges) fail("DIMACS edge count mismatch");
  return g;
}

void writeDot(std::ostream& out, const Graph& g, const std::string& name) {
  out << "graph " << name << " {\n";
  for (Vertex v = 0; v < g.order(); ++v) out << "  " << v << ";\n";
  for (const Edge& e : g.edges()) {
    out << "  " << e.u << " -- " << e.v << ";\n";
  }
  out << "}\n";
}

}  // namespace selfstab::graph
