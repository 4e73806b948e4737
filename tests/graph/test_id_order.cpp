#include "graph/id_order.hpp"

#include <gtest/gtest.h>

namespace selfstab::graph {
namespace {

TEST(IdAssignment, IdentityMapsVertexToItself) {
  const auto ids = IdAssignment::identity(5);
  for (Vertex v = 0; v < 5; ++v) EXPECT_EQ(ids.idOf(v), v);
  EXPECT_TRUE(ids.isValid(5));
}

TEST(IdAssignment, ReversedMapsToComplement) {
  const auto ids = IdAssignment::reversed(4);
  EXPECT_EQ(ids.idOf(0), 3u);
  EXPECT_EQ(ids.idOf(3), 0u);
  EXPECT_TRUE(ids.isValid(4));
}

TEST(IdAssignment, RandomPermutationIsValid) {
  Rng rng(1);
  const auto ids = IdAssignment::randomPermutation(64, rng);
  EXPECT_TRUE(ids.isValid(64));
  // All IDs within 0..63.
  for (Vertex v = 0; v < 64; ++v) EXPECT_LT(ids.idOf(v), 64u);
}

TEST(IdAssignment, RandomSparseIsValid) {
  Rng rng(2);
  const auto ids = IdAssignment::randomSparse(100, rng);
  EXPECT_TRUE(ids.isValid(100));
}

TEST(IdAssignment, LessComparesIds) {
  const auto ids = IdAssignment::reversed(3);  // ids: 2 1 0
  EXPECT_TRUE(ids.less(2, 0));
  EXPECT_FALSE(ids.less(0, 2));
  EXPECT_FALSE(ids.less(1, 1));
}

TEST(IdAssignment, IsValidRejectsDuplicates) {
  const IdAssignment ids(IdAssignment::Ids{1, 2, 2});
  EXPECT_FALSE(ids.isValid(3));
}

TEST(IdAssignment, IsValidRejectsWrongSize) {
  const IdAssignment ids(IdAssignment::Ids{1, 2, 3});
  EXPECT_FALSE(ids.isValid(4));
}

}  // namespace
}  // namespace selfstab::graph
