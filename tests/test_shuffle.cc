#include "mr/shuffle.h"

#include <gtest/gtest.h>

#include <map>

#include "dht/ring.h"
#include "net/transport.h"
#include "common/rng.h"

namespace eclipse::mr {
namespace {

TEST(Spill, EncodeDecodeRoundTrip) {
  std::vector<KV> pairs = {{"k1", "v1"}, {"k2", ""}, {"", "v3"}};
  auto back = DecodeSpill(EncodeSpill(pairs));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), pairs);
}

TEST(Spill, DecodeTruncatedFails) {
  auto data = EncodeSpill({{"key", "value"}});
  EXPECT_FALSE(DecodeSpill(data.substr(0, data.size() - 2)).ok());
  EXPECT_FALSE(DecodeSpill("").ok());
}

TEST(Manifest, RoundTrip) {
  std::vector<SpillInfo> spills = {{"id1", 100, 5, 64}, {"id2", 200, 9, 128}};
  auto back = DecodeManifest(EncodeManifest(spills));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_EQ(back.value()[0].id, "id1");
  EXPECT_EQ(back.value()[1].range_begin, 200u);
  EXPECT_EQ(back.value()[1].pairs, 9u);
}

TEST(SpillIdTest, DeterministicAndDistinct) {
  EXPECT_EQ(SpillId("p", KeyRange{10, 20}, 0), SpillId("p", KeyRange{10, 20}, 0));
  EXPECT_NE(SpillId("p", KeyRange{10, 20}, 0), SpillId("p", KeyRange{10, 20}, 1));
  EXPECT_NE(SpillId("p", KeyRange{10, 20}, 0), SpillId("p", KeyRange{11, 20}, 0));
  // A range that kept its begin across a membership change but changed its
  // extent holds other keys: its spills must not share ids with the old ones.
  EXPECT_NE(SpillId("p", KeyRange{10, 20}, 0), SpillId("p", KeyRange{10, 30}, 0));
  EXPECT_EQ(ManifestId("tag", "in", 3), "man/tag/in/b3");
}

// The linear-scan reference RouteToRange replaced: first range whose
// [begin, end) interval (reconstructed from the boundary list) covers hk.
std::size_t RouteLinear(const std::vector<HashKey>& begins, HashKey hk) {
  for (std::size_t i = 0; i < begins.size(); ++i) {
    HashKey begin = begins[i];
    HashKey end = begins[(i + 1) % begins.size()];
    bool contains = begin < end ? (hk >= begin && hk < end)  // non-wrapping
                                : (hk >= begin || hk < end);  // wraps past 0
    if (begins.size() == 1 || contains) return i;
  }
  return begins.size();  // unreachable for a tiling boundary set
}

TEST(RouteToRangeTest, MatchesLinearScanOnRandomBoundaryTables) {
  Rng rng(7);
  for (int round = 0; round < 200; ++round) {
    std::size_t n = 1 + rng.Below(12);
    std::vector<HashKey> begins;
    for (std::size_t i = 0; i < n; ++i) begins.push_back(rng.Next());
    std::sort(begins.begin(), begins.end());
    begins.erase(std::unique(begins.begin(), begins.end()), begins.end());
    // Random probes plus the adversarial points: each boundary, its
    // neighbors, and the ring extremes.
    std::vector<HashKey> probes;
    for (int i = 0; i < 64; ++i) probes.push_back(rng.Next());
    for (HashKey b : begins) {
      probes.push_back(b);
      probes.push_back(b - 1);
      probes.push_back(b + 1);
    }
    probes.push_back(0);
    probes.push_back(~HashKey{0});
    for (HashKey hk : probes) {
      EXPECT_EQ(RouteToRange(begins, hk), RouteLinear(begins, hk))
          << "round " << round << " hk " << hk;
    }
  }
}

TEST(ForEachGroupTest, MatchesMapGroupingIncludingValueOrder) {
  Rng rng(11);
  for (int round = 0; round < 50; ++round) {
    std::vector<KV> pairs;
    std::map<std::string, std::vector<std::string>> expect;
    std::size_t n = rng.Below(200);
    for (std::size_t i = 0; i < n; ++i) {
      // Few distinct keys → long runs; values unique so order is observable.
      KV kv{"k" + std::to_string(rng.Below(9)), "v" + std::to_string(i)};
      expect[kv.key].push_back(kv.value);
      pairs.push_back(std::move(kv));
    }
    std::map<std::string, std::vector<std::string>> got;
    std::vector<std::string> key_order;
    EXPECT_TRUE(ForEachGroup(pairs, [&](const std::string& key,
                                        std::vector<std::string>& values) {
      key_order.push_back(key);
      got[key] = values;
      return true;
    }));
    EXPECT_EQ(got, expect) << "round " << round;
    // Ascending distinct keys, exactly once each — the std::map iteration
    // order the reduce path used to rely on.
    EXPECT_TRUE(std::is_sorted(key_order.begin(), key_order.end()));
    EXPECT_EQ(key_order.size(), expect.size());
  }
}

TEST(ForEachGroupTest, EarlyStopReturnsFalse) {
  std::vector<KV> pairs = {{"b", "1"}, {"a", "2"}, {"b", "3"}};
  int calls = 0;
  EXPECT_FALSE(ForEachGroup(pairs, [&](const std::string&, std::vector<std::string>&) {
    ++calls;
    return false;
  }));
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(ForEachGroup(pairs, [](const std::string&, std::vector<std::string>&) {
    return true;
  }));
}

TEST(DecodeSpillIntoTest, AppendsAcrossSpills) {
  std::vector<KV> a = {{"k1", "v1"}, {"k2", "v2"}};
  std::vector<KV> b = {{"k3", "v3"}};
  std::vector<KV> out;
  ASSERT_TRUE(DecodeSpillInto(EncodeSpill(a), &out).ok());
  ASSERT_TRUE(DecodeSpillInto(EncodeSpill(b), &out).ok());
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].key, "k1");
  EXPECT_EQ(out[2].value, "v3");
  EXPECT_FALSE(DecodeSpillInto("garbage", &out).ok());
}

class ShuffleWriterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 4; ++i) ring_.AddServer(i);
    for (int i = 0; i < 4; ++i) {
      dispatchers_.push_back(std::make_unique<net::Dispatcher>());
      nodes_.push_back(std::make_unique<dfs::DfsNode>(i, *dispatchers_.back()));
      transport_.Register(i, dispatchers_.back()->AsHandler());
    }
    client_ = std::make_unique<dfs::DfsClient>(100, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); });
  }

  net::InProcessTransport transport_;
  dht::Ring ring_;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<dfs::DfsNode>> nodes_;
  std::unique_ptr<dfs::DfsClient> client_;
};

TEST_F(ShuffleWriterTest, FlushPersistsAllPairs) {
  RangeTable ranges = ring_.MakeRangeTable();
  ShuffleWriter w("im/job/b0", ranges, *client_, 1_MiB, std::chrono::milliseconds(0));
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(w.Add("key-" + std::to_string(i), "value").ok());
  }
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_FALSE(w.spills().empty());

  // Reading every spill back recovers exactly the 100 pairs.
  std::size_t total = 0;
  for (const auto& spill : w.spills()) {
    auto data = client_->GetObject(spill.id, spill.range_begin);
    ASSERT_TRUE(data.ok());
    auto pairs = DecodeSpill(data.value());
    ASSERT_TRUE(pairs.ok());
    total += pairs.value().size();
    EXPECT_EQ(pairs.value().size(), spill.pairs);
    // Every key in this spill must hash into the spill's range.
    KeyRange range;
    for (const auto& [server, kr] : ranges.entries()) {
      if (kr.begin == spill.range_begin && !kr.IsEmpty()) range = kr;
    }
    for (const auto& kv : pairs.value()) {
      EXPECT_TRUE(range.Contains(KeyOf(kv.key))) << kv.key;
    }
  }
  EXPECT_EQ(total, 100u);
}

TEST_F(ShuffleWriterTest, ThresholdTriggersEarlySpills) {
  RangeTable ranges = ring_.MakeRangeTable();
  ShuffleWriter w("im/job/b1", ranges, *client_, 64, std::chrono::milliseconds(0));
  // Push enough into one range to cross the 64-byte threshold repeatedly.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(w.Add("constant-key", std::string(16, 'v')).ok());
  }
  // Spills happened before Flush.
  EXPECT_GT(w.spills().size(), 1u);
  ASSERT_TRUE(w.Flush().ok());
}

TEST_F(ShuffleWriterTest, SpillLandsOnRangeOwner) {
  RangeTable ranges = ring_.MakeRangeTable();
  ShuffleWriter w("im/job/b2", ranges, *client_, 1_MiB, std::chrono::milliseconds(0));
  ASSERT_TRUE(w.Add("some-key", "v").ok());
  ASSERT_TRUE(w.Flush().ok());
  ASSERT_EQ(w.spills().size(), 1u);
  const auto& spill = w.spills()[0];
  int owner = ranges.Owner(spill.range_begin);
  EXPECT_TRUE(nodes_[static_cast<std::size_t>(owner)]->blocks().Contains(spill.id))
      << "proactive shuffle must place the spill reducer-side";
}

TEST_F(ShuffleWriterTest, DeterministicAcrossReruns) {
  RangeTable ranges = ring_.MakeRangeTable();
  auto run = [&] {
    ShuffleWriter w("im/job/b3", ranges, *client_, 64, std::chrono::milliseconds(0));
    for (int i = 0; i < 30; ++i) {
      EXPECT_TRUE(w.Add("key-" + std::to_string(i % 7), "payload-" + std::to_string(i)).ok());
    }
    EXPECT_TRUE(w.Flush().ok());
    return w.spills();
  };
  auto first = run();
  auto second = run();  // re-execution overwrites identical ids
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id);
    EXPECT_EQ(first[i].pairs, second[i].pairs);
  }
}

}  // namespace
}  // namespace eclipse::mr
