#include "graph/io.hpp"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

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

// Gathers a reader's edges, each checked as it is read, and builds the
// graph in one bulk pass. Duplicates show only once the edges are sorted, so
// every failure first reports a duplicate among the edges read before it:
// the error an edge-by-edge reader would have stopped at.
class EdgeCollector {
 public:
  explicit EdgeCollector(std::uint64_t n = 0) : n_(n) {}

  void add(std::uint64_t u, std::uint64_t v) {
    if (u >= n_ || v >= n_) fail("edge endpoint out of range");
    if (u == v) fail("self-loop not allowed");
    edges_.push_back(makeEdge(static_cast<Vertex>(u), static_cast<Vertex>(v)));
  }

  [[noreturn]] void fail(const std::string& message) {
    rejectDuplicates();
    throw ParseError(message);
  }

  Graph build() {
    rejectDuplicates();
    return Graph::fromEdges(n_, edges_);
  }

  void rejectDuplicates() {
    std::sort(edges_.begin(), edges_.end());
    if (std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
      throw ParseError("duplicate edge");
    }
  }

 private:
  std::uint64_t n_;
  std::vector<Edge> edges_;
};

}  // namespace

void writeEdgeList(std::ostream& out, const Graph& g) {
  out << g.order() << ' ' << g.size() << '\n';
  forEachEdgeByLabel(g, [&](Vertex u, Vertex v) {
    out << u << ' ' << v << '\n';
  });
}

Graph readEdgeList(std::istream& in, const HeaderCheck& checkHeader) {
  std::uint64_t n = 0;
  std::uint64_t m = 0;
  if (!(in >> n >> m)) fail("missing edge-list header");
  checkVertexCount(n);
  if (checkHeader) checkHeader(n, m);
  EdgeCollector edges(n);
  for (std::uint64_t i = 0; i < m; ++i) {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    if (!(in >> u >> v)) edges.fail("truncated edge list");
    edges.add(u, v);
  }
  return edges.build();
}

void writeDimacs(std::ostream& out, const Graph& g) {
  out << "p edge " << g.order() << ' ' << g.size() << '\n';
  forEachEdgeByLabel(g, [&](Vertex u, Vertex v) {
    out << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  });
}

Graph readDimacs(std::istream& in) {
  EdgeCollector edges;
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
        edges.fail("bad DIMACS problem line");
      }
      edges.rejectDuplicates();  // a later problem line starts over
      checkVertexCount(n);
      edges = EdgeCollector(n);
      sawHeader = true;
    } else if (kind == 'e') {
      if (!sawHeader) edges.fail("DIMACS edge before problem line");
      std::uint64_t u = 0;
      std::uint64_t v = 0;
      if (!(ls >> u >> v) || u == 0 || v == 0) {
        edges.fail("bad DIMACS edge line");
      }
      edges.add(u - 1, v - 1);
    } else {
      edges.fail("unknown DIMACS line kind");
    }
  }
  if (!sawHeader) fail("missing DIMACS problem line");
  const Graph g = edges.build();
  if (g.size() != expectedEdges) fail("DIMACS edge count mismatch");
  return g;
}

void writeDot(std::ostream& out, const Graph& g, const std::string& name) {
  out << "graph " << name << " {\n";
  for (Vertex v = 0; v < g.order(); ++v) out << "  " << v << ";\n";
  forEachEdgeByLabel(g, [&](Vertex u, Vertex v) {
    out << "  " << u << " -- " << v << ";\n";
  });
  out << "}\n";
}

}  // namespace selfstab::graph
