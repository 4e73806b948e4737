#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <concepts>
#include <istream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <string_view>
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

// Formats the writers' output with std::to_chars into a 64 KiB buffer and
// hands it to the stream a chunk at a time: an `out << v` per number costs
// more than the label-ordered edge stream itself (at 10^6 vertices, 14M
// lines took about 2 s through the stream). The bytes are the stream's.
// The caller ends with flush(); write errors show on the stream's state.
class ChunkWriter {
 public:
  explicit ChunkWriter(std::ostream& out)
      : out_(out), buffer_(std::make_unique<char[]>(kChunk)) {}

  ChunkWriter& operator<<(char c) {
    room(1);
    buffer_[used_++] = c;
    return *this;
  }

  ChunkWriter& operator<<(std::string_view text) {
    room(text.size());
    if (text.size() > kChunk) {  // a name longer than the buffer
      out_.write(text.data(), static_cast<std::streamsize>(text.size()));
      return *this;
    }
    std::copy(text.begin(), text.end(), buffer_.get() + used_);
    used_ += text.size();
    return *this;
  }

  template <std::unsigned_integral T>
  ChunkWriter& operator<<(T value) {
    room(20);  // digits of the largest 64-bit value
    char* begin = buffer_.get() + used_;
    used_ = static_cast<std::size_t>(
        std::to_chars(begin, begin + 20, value).ptr - buffer_.get());
    return *this;
  }

  void flush() {
    out_.write(buffer_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

 private:
  static constexpr std::size_t kChunk = 1 << 16;

  void room(std::size_t bytes) {
    if (used_ + bytes > kChunk) flush();
  }

  std::ostream& out_;
  std::unique_ptr<char[]> buffer_;
  std::size_t used_ = 0;
};

}  // namespace

void writeEdgeList(std::ostream& stream, const Graph& g) {
  ChunkWriter out(stream);
  out << g.order() << ' ' << g.size() << '\n';
  forEachEdgeByLabel(g, [&](Vertex u, Vertex v) {
    out << u << ' ' << v << '\n';
  });
  out.flush();
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

void writeDimacs(std::ostream& stream, const Graph& g) {
  ChunkWriter out(stream);
  out << "p edge " << g.order() << ' ' << g.size() << '\n';
  forEachEdgeByLabel(g, [&](Vertex u, Vertex v) {
    out << "e " << (u + 1) << ' ' << (v + 1) << '\n';
  });
  out.flush();
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

void writeDot(std::ostream& stream, const Graph& g, const std::string& name) {
  ChunkWriter out(stream);
  out << "graph " << name << " {\n";
  for (Vertex v = 0; v < g.order(); ++v) out << "  " << v << ";\n";
  forEachEdgeByLabel(g, [&](Vertex u, Vertex v) {
    out << "  " << u << " -- " << v << ";\n";
  });
  out << "}\n";
  out.flush();
}

}  // namespace selfstab::graph
