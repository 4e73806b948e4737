#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/geometry.hpp"

namespace selfstab::graph {
namespace {

// The writers print a labelled graph in its external numbering, byte for
// byte as they print the same graph built in point order.
TEST(LabelledIo, WritersMatchPointOrderBuild) {
  Rng rng(31);
  const std::vector<Point> pts = randomPoints(2000, rng);
  const Graph points = unitDiskGraph(pts, 0.05);
  const Graph space = unitDiskGraph(pts, 0.05, VertexOrder::Space);
  ASSERT_TRUE(space.labelled());
  ASSERT_FALSE(space == points);
  const auto bytes = [](const Graph& g, auto write) {
    std::ostringstream out;
    write(out, g);
    return out.str();
  };
  const auto edgeList = [](std::ostream& o, const Graph& g) {
    writeEdgeList(o, g);
  };
  const auto dimacs = [](std::ostream& o, const Graph& g) {
    writeDimacs(o, g);
  };
  const auto dot = [](std::ostream& o, const Graph& g) { writeDot(o, g); };
  EXPECT_EQ(bytes(space, edgeList), bytes(points, edgeList));
  EXPECT_EQ(bytes(space, dimacs), bytes(points, dimacs));
  EXPECT_EQ(bytes(space, dot), bytes(points, dot));
  std::stringstream ss(bytes(space, edgeList));
  EXPECT_TRUE(readEdgeList(ss) == points);
}

// The label-ordered edge stream is the point-order build's edges(), at
// every width: one worker, several workers each taking many blocks, and
// more workers than blocks.
TEST(LabelledIo, EdgesByLabelMatchesPointOrderAtEveryWidth) {
  Rng rng(37);
  const std::vector<Point> pts = randomPoints(20000, rng);
  const Graph points = unitDiskGraph(pts, 0.012);
  const Graph space = unitDiskGraph(pts, 0.012, VertexOrder::Space);
  ASSERT_TRUE(space.labelled());
  const std::vector<Edge> expected = points.edges();
  for (const std::size_t workers : {1U, 3U, 8U}) {
    SCOPED_TRACE(workers);
    const detail::EdgesByLabel stream = detail::edgesByLabel(space, workers);
    ASSERT_EQ(stream.offsets.size(), space.order() + 1);
    ASSERT_EQ(stream.offsets.back(), expected.size());
    std::vector<Edge> edges;
    for (Vertex a = 0; a < space.order(); ++a) {
      for (std::size_t k = stream.offsets[a]; k < stream.offsets[a + 1];
           ++k) {
        edges.push_back({a, stream.later[k]});
      }
    }
    EXPECT_TRUE(edges == expected);
  }
}

// The writers format into a buffer; their bytes are the stream's, checked
// against `<<` on a labelled space-order graph whose vertex numbers pass
// 10^6 (seven digits, and more edges than one buffer chunk holds).
TEST(LabelledIo, WritersMatchStreamFormatting) {
  Rng rng(41);
  const std::vector<Point> pts = randomPoints(1'050'000, rng);
  const Graph space = unitDiskGraph(pts, 0.0006, VertexOrder::Space);
  ASSERT_TRUE(space.labelled());
  std::vector<Edge> edges;
  for (const Edge& e : space.edges()) {
    edges.push_back(makeEdge(space.labelOf(e.u), space.labelOf(e.v)));
  }
  std::sort(edges.begin(), edges.end());
  ASSERT_GT(edges.size(), 100'000U);
  ASSERT_GT(edges.back().v, 1'000'000U);
  std::ostringstream edgeList;
  std::ostringstream dimacs;
  std::ostringstream dot;
  edgeList << space.order() << ' ' << edges.size() << '\n';
  dimacs << "p edge " << space.order() << ' ' << edges.size() << '\n';
  dot << "graph G {\n";
  for (Vertex v = 0; v < space.order(); ++v) dot << "  " << v << ";\n";
  for (const Edge& e : edges) {
    edgeList << e.u << ' ' << e.v << '\n';
    dimacs << "e " << (e.u + 1) << ' ' << (e.v + 1) << '\n';
    dot << "  " << e.u << " -- " << e.v << ";\n";
  }
  dot << "}\n";
  std::ostringstream out;
  writeEdgeList(out, space);
  EXPECT_TRUE(out.str() == edgeList.str());
  out.str("");
  writeDimacs(out, space);
  EXPECT_TRUE(out.str() == dimacs.str());
  out.str("");
  writeDot(out, space, "G");
  EXPECT_TRUE(out.str() == dot.str());
}

TEST(EdgeListIo, RoundTrip) {
  Rng rng(1);
  const Graph original = connectedErdosRenyi(20, 0.2, rng);
  std::stringstream ss;
  writeEdgeList(ss, original);
  const Graph parsed = readEdgeList(ss);
  EXPECT_EQ(parsed, original);
}

TEST(EdgeListIo, EmptyGraphRoundTrip) {
  std::stringstream ss;
  writeEdgeList(ss, Graph(4));
  const Graph parsed = readEdgeList(ss);
  EXPECT_EQ(parsed.order(), 4u);
  EXPECT_EQ(parsed.size(), 0u);
}

TEST(EdgeListIo, RejectsTruncatedInput) {
  std::stringstream ss("3 2\n0 1\n");
  EXPECT_THROW(readEdgeList(ss), ParseError);
}

TEST(EdgeListIo, RejectsOutOfRangeEndpoint) {
  std::stringstream ss("3 1\n0 7\n");
  EXPECT_THROW(readEdgeList(ss), ParseError);
}

TEST(EdgeListIo, RejectsSelfLoop) {
  std::stringstream ss("3 1\n1 1\n");
  EXPECT_THROW(readEdgeList(ss), ParseError);
}

TEST(EdgeListIo, RejectsDuplicateEdge) {
  std::stringstream ss("3 2\n0 1\n1 0\n");
  EXPECT_THROW(readEdgeList(ss), ParseError);
}

TEST(EdgeListIo, RejectsMissingHeader) {
  std::stringstream ss("");
  EXPECT_THROW(readEdgeList(ss), ParseError);
}

// A negative count wraps to a huge unsigned value on extraction, and a
// count past 32 bits cannot be a vertex index: both must be parse errors,
// not a length_error / bad_alloc from allocating the vertex set.
TEST(EdgeListIo, RejectsVertexCountOutOfRange) {
  for (const char* header : {"-1 0\n", "4294967297 1\n0 1\n",
                             "4294967295 0\n", "18446744073709551615 0\n"}) {
    std::stringstream ss(header);
    EXPECT_THROW(readEdgeList(ss), ParseError) << header;
  }
}

TEST(DimacsIo, RoundTrip) {
  Rng rng(2);
  const Graph original = connectedErdosRenyi(15, 0.3, rng);
  std::stringstream ss;
  writeDimacs(ss, original);
  const Graph parsed = readDimacs(ss);
  EXPECT_EQ(parsed, original);
}

TEST(DimacsIo, SkipsComments) {
  std::stringstream ss("c a comment\np edge 3 1\nc another\ne 1 2\n");
  const Graph g = readDimacs(ss);
  EXPECT_EQ(g.order(), 3u);
  EXPECT_TRUE(g.hasEdge(0, 1));
}

TEST(DimacsIo, RejectsEdgeBeforeHeader) {
  std::stringstream ss("e 1 2\np edge 3 1\n");
  EXPECT_THROW(readDimacs(ss), ParseError);
}

TEST(DimacsIo, RejectsCountMismatch) {
  std::stringstream ss("p edge 3 2\ne 1 2\n");
  EXPECT_THROW(readDimacs(ss), ParseError);
}

TEST(DimacsIo, RejectsVertexCountOutOfRange) {
  for (const char* header :
       {"p edge -1 0\n", "p edge 4294967297 1\ne 1 2\n",
        "p edge 4294967295 0\n"}) {
    std::stringstream ss(header);
    EXPECT_THROW(readDimacs(ss), ParseError) << header;
  }
}

TEST(DimacsIo, RejectsZeroBasedVertex) {
  std::stringstream ss("p edge 3 1\ne 0 2\n");
  EXPECT_THROW(readDimacs(ss), ParseError);
}

TEST(DotOutput, NameLongerThanTheWriteBuffer) {
  const std::string name(100'000, 'n');
  std::ostringstream out;
  writeDot(out, path(3), name);
  EXPECT_EQ(out.str(), "graph " + name + " {\n  0;\n  1;\n  2;\n" +
                           "  0 -- 1;\n  1 -- 2;\n}\n");
}

TEST(DotOutput, ContainsAllEdges) {
  const Graph g = path(3);
  std::stringstream ss;
  writeDot(ss, g, "P3");
  const std::string dot = ss.str();
  EXPECT_NE(dot.find("graph P3 {"), std::string::npos);
  EXPECT_NE(dot.find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.find("1 -- 2;"), std::string::npos);
}

}  // namespace
}  // namespace selfstab::graph
