// Unit tests for the application building blocks (parsers, reducers, serial
// references) independent of the engine.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string_view>

#include "apps/grep.h"
#include "apps/inverted_index.h"
#include "apps/kmeans.h"
#include "apps/logreg.h"
#include "apps/pagerank.h"
#include "apps/sort.h"
#include "apps/text_util.h"
#include "apps/wordcount.h"

namespace eclipse::apps {
namespace {

TEST(TextUtil, SplitDropsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{}));
  EXPECT_EQ(Split(",,", ','), (std::vector<std::string>{}));
}

TEST(TextUtil, SplitWords) {
  EXPECT_EQ(SplitWords("  foo\tbar  baz\n"), (std::vector<std::string>{"foo", "bar", "baz"}));
  EXPECT_TRUE(SplitWords("   ").empty());
}

TEST(TextUtil, WhitespaceTableMatchesIsspace) {
  // ForEachWord's table must be exactly the C-locale std::isspace set, or
  // the mappers and the serial oracles (SplitWords) would split apart.
  std::string all;
  for (int c = 0; c < 256; ++c) {
    EXPECT_EQ(kIsSpace[static_cast<std::size_t>(c)], std::isspace(c) != 0) << "byte " << c;
    all.push_back(static_cast<char>(c));
    all.push_back(static_cast<char>(255 - c));
  }
  std::vector<std::string> words;
  ForEachWord(all, [&](std::string_view w) { words.emplace_back(w); });
  EXPECT_EQ(words, SplitWords(all));
}

TEST(TextUtil, DoubleRoundTrip) {
  for (double v : {0.0, 1.5, -3.25, 1e-12, 123456.789}) {
    auto parsed = ParseDoubles(DoubleToString(v));
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_DOUBLE_EQ(parsed[0], v);
  }
  auto vec = ParseDoubles(JoinDoubles({1.0, 2.5, -3.0}));
  EXPECT_EQ(vec, (std::vector<double>{1.0, 2.5, -3.0}));
}

TEST(WordCount, SerialCountsWords) {
  auto counts = WordCountSerial("a b a\nc a b\n");
  EXPECT_EQ(counts["a"], 3u);
  EXPECT_EQ(counts["b"], 2u);
  EXPECT_EQ(counts["c"], 1u);
}

TEST(Grep, SerialCountsMatchingLines) {
  auto hits = GrepSerial("hello world\nbye\nhello world\nhello there\n", "hello");
  EXPECT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits["hello world"], 2u);
  EXPECT_EQ(hits["hello there"], 1u);
}

TEST(InvertedIndex, SerialBuildsPostings) {
  auto idx = InvertedIndexSerial("d1\tfoo bar\nd2\tbar baz\n");
  EXPECT_EQ(idx["bar"], (std::set<std::string>{"d1", "d2"}));
  EXPECT_EQ(idx["foo"], (std::set<std::string>{"d1"}));
}

TEST(Sort, SerialOrdersByFirstField) {
  auto sorted = SortSerial("b 2\na 1\nc 3\n");
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], "a 1");
  EXPECT_EQ(sorted[2], "c 3");
}

TEST(KMeans, CentroidCodecRoundTrip) {
  Centroids c = {{1.5, 2.5}, {3.0, 4.0, 5.0}};
  auto back = DecodeCentroids(EncodeCentroids(c));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0], c[0]);
  EXPECT_EQ(back[1], c[1]);
}

TEST(KMeans, NearestCentroidPicksClosest) {
  Centroids c = {{0.0, 0.0}, {10.0, 10.0}};
  EXPECT_EQ(NearestCentroid({1.0, 1.0}, c), 0u);
  EXPECT_EQ(NearestCentroid({9.0, 9.0}, c), 1u);
}

TEST(KMeans, SerialStepAverages) {
  std::vector<std::vector<double>> points = {{0, 0}, {2, 2}, {10, 10}, {12, 12}};
  Centroids c = {{1, 1}, {11, 11}};
  auto next = KMeansSerialStep(points, c);
  EXPECT_DOUBLE_EQ(next[0][0], 1.0);
  EXPECT_DOUBLE_EQ(next[1][0], 11.0);
}

TEST(PageRank, StateCodecRoundTrip) {
  PageRankState s;
  s.num_nodes = 5;
  s.ranks["n0"] = 0.25;
  s.ranks["n3"] = 0.75;
  auto back = DecodePageRankState(EncodePageRankState(s));
  EXPECT_EQ(back.num_nodes, 5u);
  ASSERT_EQ(back.ranks.size(), 2u);
  EXPECT_DOUBLE_EQ(back.ranks["n0"], 0.25);
  EXPECT_DOUBLE_EQ(back.ranks["n3"], 0.75);
}

TEST(PageRank, SerialStepConservesDampedMass) {
  // Simple cycle: ranks should stay uniform.
  std::string graph = "a b\nb c\nc a\n";
  PageRankState s;
  s.num_nodes = 3;
  auto next = PageRankSerialStep(graph, s);
  ASSERT_EQ(next.size(), 3u);
  for (const auto& [node, rank] : next) {
    EXPECT_NEAR(rank, 1.0 / 3.0, 1e-12) << node;
  }
}

TEST(LogReg, SigmoidBasics) {
  EXPECT_DOUBLE_EQ(Sigmoid(0.0), 0.5);
  EXPECT_GT(Sigmoid(10.0), 0.999);
  EXPECT_LT(Sigmoid(-10.0), 0.001);
}

TEST(LogReg, ParseLabeledPoint) {
  auto p = ParseLabeledPoint("1 0.5 -2.0");
  EXPECT_DOUBLE_EQ(p.label, 1.0);
  EXPECT_EQ(p.features, (std::vector<double>{0.5, -2.0}));
  EXPECT_TRUE(ParseLabeledPoint("").features.empty());
}

TEST(LogReg, GradientSignMovesTowardLabels) {
  // One positive point at x=1 with zero weights: gradient on w1 must be
  // negative (increase w1 to raise p(y=1|x)).
  std::vector<LabeledPoint> pts = {{1.0, {1.0}}};
  auto g = LogLossGradient(pts, {0.0, 0.0});
  EXPECT_LT(g[1], 0.0);
  // And for a negative point, positive.
  std::vector<LabeledPoint> neg = {{0.0, {1.0}}};
  auto g2 = LogLossGradient(neg, {0.0, 0.0});
  EXPECT_GT(g2[1], 0.0);
}

TEST(LogReg, SerialStepReducesLoss) {
  std::vector<LabeledPoint> pts = {
      {1.0, {2.0}}, {1.0, {1.5}}, {0.0, {-2.0}}, {0.0, {-1.0}}};
  std::vector<double> w = {0.0, 0.0};
  auto loss = [&pts](const std::vector<double>& weights) {
    double total = 0;
    for (const auto& p : pts) {
      double z = weights[0] + weights[1] * p.features[0];
      double prob = Sigmoid(z);
      total += -(p.label * std::log(prob + 1e-12) +
                 (1 - p.label) * std::log(1 - prob + 1e-12));
    }
    return total;
  };
  double before = loss(w);
  for (int i = 0; i < 5; ++i) w = LogRegSerialStep(pts, w, 0.5);
  EXPECT_LT(loss(w), before);
}

}  // namespace
}  // namespace eclipse::apps
