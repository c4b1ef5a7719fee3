// DHT file system integration tests over an in-process transport.
#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "common/rng.h"
#include "dfs/dfs_client.h"
#include "dfs/recovery.h"

namespace eclipse::dfs {
namespace {

class DfsTest : public ::testing::TestWithParam<int> {
 protected:
  void Boot(int n, Bytes block_size = 64) {
    for (int i = 0; i < n; ++i) ring_.AddServer(i);
    for (int i = 0; i < n; ++i) {
      dispatchers_.push_back(std::make_unique<net::Dispatcher>());
      nodes_.push_back(std::make_unique<DfsNode>(i, *dispatchers_.back()));
      transport_.Register(i, dispatchers_.back()->AsHandler());
    }
    DfsClientOptions opts;
    opts.default_block_size = block_size;
    opts.user = "tester";
    client_ = std::make_unique<DfsClient>(1000, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); }, opts);
  }

  void Crash(int id) {
    transport_.Register(id, nullptr);
    ring_.RemoveServer(id);
  }

  net::InProcessTransport transport_;
  dht::Ring ring_;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers_;
  std::vector<std::unique_ptr<DfsNode>> nodes_;
  std::unique_ptr<DfsClient> client_;
};

std::string MakeContent(std::size_t bytes) {
  Rng rng(77);
  std::string s;
  s.reserve(bytes);
  while (s.size() < bytes) {
    s += "line-" + std::to_string(rng.Below(1000)) + "\n";
  }
  s.resize(bytes);
  return s;
}

TEST_P(DfsTest, UploadReadRoundTrip) {
  Boot(GetParam());
  std::string content = MakeContent(1000);
  ASSERT_TRUE(client_->Upload("data.txt", content).ok());
  auto back = client_->ReadFile("data.txt");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
}

INSTANTIATE_TEST_SUITE_P(ClusterSizes, DfsTest, ::testing::Values(1, 2, 3, 5, 8, 16));

TEST_F(DfsTest, MetadataFields) {
  Boot(4, 128);
  std::string content = MakeContent(1000);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta.value().name, "f");
  EXPECT_EQ(meta.value().owner, "tester");
  EXPECT_EQ(meta.value().size, 1000u);
  EXPECT_EQ(meta.value().block_size, 128u);
  EXPECT_EQ(meta.value().num_blocks, 8u);  // ceil(1000/128)
}

TEST_F(DfsTest, DuplicateUploadRejected) {
  Boot(3);
  ASSERT_TRUE(client_->Upload("f", "abc").ok());
  EXPECT_EQ(client_->Upload("f", "xyz").code(), ErrorCode::kAlreadyExists);
}

TEST_F(DfsTest, MissingFileNotFound) {
  Boot(3);
  EXPECT_EQ(client_->ReadFile("ghost").status().code(), ErrorCode::kNotFound);
}

TEST_F(DfsTest, EmptyFile) {
  Boot(3);
  ASSERT_TRUE(client_->Upload("empty", "").ok());
  auto back = client_->ReadFile("empty");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "");
}

TEST_F(DfsTest, BlocksReplicatedOnOwnerAndNeighbors) {
  Boot(5, 100);
  std::string content = MakeContent(450);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();

  for (std::uint64_t b = 0; b < meta.num_blocks; ++b) {
    HashKey key = meta.KeyOfBlock(b);
    auto expected = ring_.Replicas(key, 3);
    std::string id = BlockId("f", b);
    std::set<int> holders;
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i]->blocks().Contains(id)) holders.insert(static_cast<int>(i));
    }
    EXPECT_EQ(holders, std::set<int>(expected.begin(), expected.end()))
        << "block " << b << " replica set";
  }
}

TEST_F(DfsTest, MetadataOnOwnerAndNeighbors) {
  Boot(5);
  ASSERT_TRUE(client_->Upload("somefile", "content here").ok());
  auto expected = ring_.Replicas(KeyOf("somefile"), 3);
  std::set<int> holders;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->GetMetadataLocal("somefile").ok()) holders.insert(static_cast<int>(i));
  }
  EXPECT_EQ(holders, std::set<int>(expected.begin(), expected.end()));
}

TEST_F(DfsTest, PermissionDeniedForPrivateFile) {
  Boot(4);
  ASSERT_TRUE(client_->Upload("secret", "classified", 64, /*public_read=*/false).ok());
  // Same user reads fine.
  EXPECT_TRUE(client_->ReadFile("secret").ok());
  // Another user is rejected at the metadata owner.
  DfsClientOptions other;
  other.user = "mallory";
  DfsClient intruder(1001, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); }, other);
  EXPECT_EQ(intruder.ReadFile("secret").status().code(), ErrorCode::kPermission);
}

TEST_F(DfsTest, DeleteRemovesEverything) {
  Boot(4, 50);
  ASSERT_TRUE(client_->Upload("f", MakeContent(300)).ok());
  ASSERT_TRUE(client_->Delete("f").ok());
  EXPECT_EQ(client_->ReadFile("f").status().code(), ErrorCode::kNotFound);
  for (auto& node : nodes_) {
    EXPECT_EQ(node->blocks().Count(), 0u);
    EXPECT_TRUE(node->ListMetadataLocal().empty());
  }
}

TEST_F(DfsTest, ReadBlockRange) {
  Boot(4, 100);
  std::string content = MakeContent(250);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();
  auto range = client_->ReadBlockRange(meta, 1, 10, 20);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range.value(), content.substr(110, 20));
  // Last byte of block 0.
  auto last = client_->ReadBlockRange(meta, 0, 99, 1);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last.value(), content.substr(99, 1));
  // Out-of-range index.
  EXPECT_FALSE(client_->ReadBlockRange(meta, 99, 0, 1).ok());
}

TEST_F(DfsTest, ObjectsWithTtl) {
  Boot(3);
  HashKey key = KeyOf("obj-key");
  ASSERT_TRUE(client_->PutObject("obj", key, "payload", std::chrono::milliseconds(0)).ok());
  auto got = client_->GetObject("obj", key);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), "payload");
  HashKey other_key = KeyOf("other-key");
  ASSERT_TRUE(client_->PutObject("other", other_key, "more").ok());
  client_->DeleteObjects({{"obj", key}, {"other", other_key}});
  EXPECT_EQ(client_->GetObject("obj", key).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(client_->GetObject("other", other_key).status().code(), ErrorCode::kNotFound);
}

TEST_F(DfsTest, ListFilesUnionsDecentralizedNamespace) {
  Boot(5);
  ASSERT_TRUE(client_->Upload("b-file", "bbb").ok());
  ASSERT_TRUE(client_->Upload("a-file", "aaa").ok());
  ASSERT_TRUE(client_->Upload("c-private", "ccc", 64, /*public_read=*/false).ok());

  auto mine = client_->ListFiles();
  ASSERT_EQ(mine.size(), 3u);  // owner sees their private file too
  EXPECT_EQ(mine[0].name, "a-file");
  EXPECT_EQ(mine[1].name, "b-file");
  EXPECT_EQ(mine[2].name, "c-private");

  DfsClientOptions other;
  other.user = "someone-else";
  DfsClient visitor(1001, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); }, other);
  auto visible = visitor.ListFiles();
  ASSERT_EQ(visible.size(), 2u) << "private files hidden from other users";
  EXPECT_EQ(visible[0].name, "a-file");
  EXPECT_EQ(visible[1].name, "b-file");

  ASSERT_TRUE(client_->Delete("b-file").ok());
  EXPECT_EQ(client_->ListFiles().size(), 2u);
}

TEST_F(DfsTest, ReadSurvivesOwnerCrash) {
  Boot(5, 100);
  std::string content = MakeContent(500);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();

  // Crash the owner of block 0; replicas on its neighbors still serve it.
  int owner = ring_.Owner(meta.KeyOfBlock(0));
  Crash(owner);
  auto back = client_->ReadFile("f");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
}

TEST_F(DfsTest, UnderReplicatedWritesAreCounted) {
  Boot(5, 100);
  ASSERT_TRUE(client_->Upload("healthy", MakeContent(500)).ok());
  EXPECT_EQ(client_->under_replicated_writes(), 0u);

  // Detach one server from the transport but leave it in the ring: every
  // write it is a replica target of reaches only the other targets.
  transport_.Register(2, nullptr);
  std::string content = MakeContent(500);
  ASSERT_TRUE(client_->Upload("degraded", content).ok());
  EXPECT_GT(client_->under_replicated_writes(), 0u);
  auto back = client_->ReadFile("degraded");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value(), content);
}

TEST_F(DfsTest, RecoveryRestoresReplicationFactor) {
  Boot(6, 100);
  std::string content = MakeContent(600);
  ASSERT_TRUE(client_->Upload("f", content).ok());
  auto meta = client_->GetMetadata("f").value();

  Crash(2);
  FsRecovery recovery(1000, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); });
  auto report = recovery.Repair(3);
  EXPECT_EQ(report.blocks_lost, 0u);

  // Every durable block must again live on exactly its 3 replica targets
  // (supersets allowed for stale copies; targets must all be present).
  for (std::uint64_t b = 0; b < meta.num_blocks; ++b) {
    std::string id = BlockId("f", b);
    for (int target : ring_.Replicas(meta.KeyOfBlock(b), 3)) {
      EXPECT_TRUE(nodes_[static_cast<std::size_t>(target)]->blocks().Contains(id))
          << "block " << b << " missing on takeover target " << target;
    }
  }
  // Metadata replicas too.
  for (int target : ring_.Replicas(KeyOf("f"), 3)) {
    EXPECT_TRUE(nodes_[static_cast<std::size_t>(target)]->GetMetadataLocal("f").ok());
  }
}

TEST_F(DfsTest, RecoveryReportsUnrecoverableBlocks) {
  Boot(5, 1000);
  ASSERT_TRUE(client_->Upload("f", MakeContent(800)).ok());
  auto meta = client_->GetMetadata("f").value();
  ASSERT_EQ(meta.num_blocks, 1u);

  // Kill every replica holder of the single block: data is gone.
  auto holders = ring_.Replicas(meta.KeyOfBlock(0), 3);
  for (int h : holders) Crash(h);

  FsRecovery recovery(1000, transport_, [this] { return std::make_shared<const dht::Ring>(ring_); });
  auto report = recovery.Repair(3);
  EXPECT_EQ(report.blocks_lost, 0u)
      << "block no longer appears in any inventory, so it cannot be counted";
  EXPECT_EQ(client_->ReadBlock(meta, 0).status().code(), ErrorCode::kNotFound);
}

}  // namespace
}  // namespace eclipse::dfs
