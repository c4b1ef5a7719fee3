#include "common/hash_key.h"

#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "common/sha1.h"

namespace eclipse {
namespace {

// FIPS 180 known-answer vectors. These pin the SHA-1 implementation's
// output bit-for-bit — the padding fast path (memset into the block
// buffer, possibly spanning two blocks) and the phase-unrolled
// compression loop must reproduce the reference digests exactly, or
// every key silently moves on the ring.
TEST(Sha1, KnownAnswerVectors) {
  EXPECT_EQ(ToHex(Sha1::Hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(ToHex(Sha1::Hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  // 56 bytes: length lands where the padding must spill into a second block.
  EXPECT_EQ(ToHex(Sha1::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  // One million 'a's, absorbed in uneven chunks to exercise Update's
  // partial-block buffering around the optimized Finish.
  Sha1 h;
  std::string chunk(4096 + 13, 'a');
  std::size_t fed = 0;
  while (fed < 1'000'000) {
    std::size_t n = std::min(chunk.size(), 1'000'000 - fed);
    h.Update(chunk.data(), n);
    fed += n;
  }
  EXPECT_EQ(ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(KeyOf, DeterministicAndSpread) {
  EXPECT_EQ(KeyOf("file-a"), KeyOf("file-a"));
  EXPECT_NE(KeyOf("file-a"), KeyOf("file-b"));
  EXPECT_NE(BlockKey("f", 0), BlockKey("f", 1));
  EXPECT_NE(BlockKey("f", 0), KeyOf("f"));
}

// A block id is "name#index". These keys come from an independent SHA-1
// (Python's hashlib) and pin BlockKey's stack-buffer formatting, including
// the largest index and names too long for the buffer.
TEST(BlockKey, PinnedDigests) {
  EXPECT_EQ(BlockKey("f", 0), 0x3764ad90665939a9ull);
  EXPECT_EQ(BlockKey("input.txt", 7), 0x9ce8847bf515b845ull);
  EXPECT_EQ(BlockKey("", ~std::uint64_t{0}), 0x955339fe0a266449ull);
  EXPECT_EQ(BlockKey(std::string(100, 'n'), 3), 0x5a60c244ee78e6b9ull);
  EXPECT_EQ(BlockKey(std::string(130, 'n'), 3), 0xa2bee2fd275b706dull);
  for (std::size_t len : {0u, 50u, 106u, 107u, 126u, 127u, 128u, 200u}) {
    const std::string name(len, 'b');
    for (std::uint64_t i : {std::uint64_t{0}, std::uint64_t{42}, ~std::uint64_t{0}}) {
      EXPECT_EQ(BlockKey(name, i), KeyOf(name + "#" + std::to_string(i)))
          << "len=" << len << " index=" << i;
    }
  }
}

TEST(KeyRange, SimpleContains) {
  KeyRange r{100, 200, false};
  EXPECT_TRUE(r.Contains(100));
  EXPECT_TRUE(r.Contains(199));
  EXPECT_FALSE(r.Contains(200));
  EXPECT_FALSE(r.Contains(99));
  EXPECT_EQ(r.Width(), 100u);
  EXPECT_FALSE(r.IsEmpty());
}

TEST(KeyRange, WrappingContains) {
  KeyRange r{~HashKey{0} - 10, 5, false};  // wraps past 2^64-1
  EXPECT_TRUE(r.Contains(~HashKey{0}));
  EXPECT_TRUE(r.Contains(0));
  EXPECT_TRUE(r.Contains(4));
  EXPECT_FALSE(r.Contains(5));
  EXPECT_FALSE(r.Contains(1000));
  EXPECT_EQ(r.Width(), 16u);
}

TEST(KeyRange, FullAndEmpty) {
  EXPECT_TRUE(KeyRange::Full().Contains(0));
  EXPECT_TRUE(KeyRange::Full().Contains(~HashKey{0}));
  EXPECT_FALSE(KeyRange::Empty().Contains(0));
  EXPECT_TRUE(KeyRange::Empty().IsEmpty());
  EXPECT_FALSE(KeyRange::Full().IsEmpty());
  EXPECT_EQ(KeyRange::Empty().Width(), 0u);
}

TEST(RangeTable, RejectsNonTiling) {
  RangeTable t;
  // Gap between 200 and 300.
  EXPECT_FALSE(t.Assign({{0, {0, 200, false}}, {1, {300, 0, false}}}));
  // Single non-full range cannot tile.
  EXPECT_FALSE(t.Assign({{0, {0, 200, false}}}));
  // Nothing at all.
  EXPECT_FALSE(t.Assign({}));
  EXPECT_TRUE(t.empty());
}

TEST(RangeTable, AcceptsTilingWithEmptyRanges) {
  RangeTable t;
  ASSERT_TRUE(t.Assign({{0, {0, 500, false}},
                        {1, KeyRange::Empty()},
                        {2, {500, 0, false}}}));
  EXPECT_EQ(t.Owner(0), 0);
  EXPECT_EQ(t.Owner(499), 0);
  EXPECT_EQ(t.Owner(500), 2);
  EXPECT_EQ(t.Owner(~HashKey{0}), 2);
  EXPECT_TRUE(t.RangeOf(1).IsEmpty());
}

TEST(RangeTable, FullRingSingleServer) {
  RangeTable t;
  ASSERT_TRUE(t.Assign({{7, KeyRange::Full()}}));
  EXPECT_EQ(t.Owner(0), 7);
  EXPECT_EQ(t.Owner(12345), 7);
}

TEST(RangeTable, FromPositionsOwnership) {
  // Mirrors the paper's Fig. 1 layout (scaled): servers at 5,15,26,39,47,57
  // with wraparound; the key is owned by its clockwise successor.
  RangeTable t = RangeTable::FromPositions(
      {{0, 5}, {1, 15}, {2, 26}, {3, 39}, {4, 47}, {5, 57}});
  EXPECT_EQ(t.Owner(6), 1);    // in (5, 15]
  EXPECT_EQ(t.Owner(15), 1);
  EXPECT_EQ(t.Owner(16), 2);
  EXPECT_EQ(t.Owner(56), 5);
  EXPECT_EQ(t.Owner(58), 0);   // wraps to the smallest position
  EXPECT_EQ(t.Owner(0), 0);
  EXPECT_EQ(t.Owner(5), 0);
}

// Property: FromPositions always produces a table where every key has
// exactly one owner and that owner is the clockwise successor position.
class RangeTableProperty : public ::testing::TestWithParam<int> {};

TEST_P(RangeTableProperty, EveryKeyOwnedByClockwiseSuccessor) {
  int num_servers = GetParam();
  Rng rng(static_cast<std::uint64_t>(num_servers) * 977);
  std::vector<std::pair<int, HashKey>> positions;
  for (int i = 0; i < num_servers; ++i) positions.emplace_back(i, rng.Next());

  RangeTable t = RangeTable::FromPositions(positions);
  ASSERT_EQ(t.size(), positions.size());

  for (int trial = 0; trial < 200; ++trial) {
    HashKey k = rng.Next();
    int owner = t.Owner(k);
    ASSERT_GE(owner, 0);
    // Reference: smallest position >= k, else global smallest.
    int expected = -1;
    HashKey best = 0;
    bool found = false;
    for (const auto& [id, pos] : positions) {
      if (pos >= k && (!found || pos < best)) {
        best = pos;
        expected = id;
        found = true;
      }
    }
    if (!found) {
      for (const auto& [id, pos] : positions) {
        if (expected == -1 || pos < best) {
          best = pos;
          expected = id;
        }
      }
    }
    EXPECT_EQ(owner, expected) << "key=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(ServerCounts, RangeTableProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 40, 100));

TEST(RingDistanceTest, Wraps) {
  EXPECT_EQ(RingDistance(10, 20), 10u);
  EXPECT_EQ(RingDistance(20, 10), ~HashKey{0} - 9);
  EXPECT_EQ(RingDistance(5, 5), 0u);
}

}  // namespace
}  // namespace eclipse
