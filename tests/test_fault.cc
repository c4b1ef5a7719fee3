// Failure injection: crashed workers during and between jobs, DFS recovery
// integration, and lost-intermediate re-execution.
#include <gtest/gtest.h>

#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "workload/generators.h"

namespace eclipse::mr {
namespace {

ClusterOptions FaultyCluster(int servers = 6) {
  ClusterOptions opts;
  opts.num_servers = servers;
  opts.block_size = 256;
  opts.cache_capacity = 1_MiB;
  return opts;
}

std::string SampleText(std::uint64_t seed = 42, Bytes bytes = 4000) {
  Rng rng(seed);
  workload::TextOptions topts;
  topts.target_bytes = bytes;
  topts.vocabulary = 40;
  return workload::GenerateText(rng, topts);
}

TEST(Fault, JobSucceedsAfterPreJobCrash) {
  Cluster cluster(FaultyCluster());
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  auto report = cluster.KillServer(2);
  EXPECT_EQ(report.blocks_lost, 0u) << "triple replication must cover one failure";

  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  auto expected = apps::WordCountSerial(text);
  EXPECT_EQ(result.output.size(), expected.size());
}

TEST(Fault, TwoSequentialCrashesStillRecoverable) {
  Cluster cluster(FaultyCluster(7));
  std::string text = SampleText(7);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  // Sequential failures with recovery in between: data must survive.
  ASSERT_EQ(cluster.KillServer(1).blocks_lost, 0u);
  ASSERT_EQ(cluster.KillServer(4).blocks_lost, 0u);

  auto back = cluster.dfs().ReadFile("corpus");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);

  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.output.size(), apps::WordCountSerial(text).size());
}

TEST(Fault, UploadAfterCrashUsesSurvivors) {
  Cluster cluster(FaultyCluster(5));
  cluster.KillServer(0);
  std::string text = SampleText(9);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  auto back = cluster.dfs().ReadFile("corpus");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);
}

// Run a tagged job, then kill a server holding spills (they are NOT
// replicated, §II-C); a re-submission must transparently re-run the affected
// maps and still produce correct output, with or without straggler backups.
void ExpectLostIntermediatesRerunMaps(bool speculative) {
  Cluster cluster(FaultyCluster(6));
  std::string text = SampleText(11);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec first = apps::WordCountJob("wc-a", "corpus");
  first.intermediate_tag = "fault-tag";
  JobResult r1 = cluster.Run(first);
  ASSERT_TRUE(r1.status.ok());

  cluster.KillServer(3);

  JobSpec second = apps::WordCountJob("wc-b", "corpus");
  second.intermediate_tag = "fault-tag";
  second.speculative_execution = speculative;
  second.speculation_min_completed = 1;
  JobResult r2 = cluster.Run(second);
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();

  auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(r2.output.size(), expected.size());
  for (const auto& kv : r2.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key)));
  }
}

TEST(Fault, LostIntermediatesRerunMaps) { ExpectLostIntermediatesRerunMaps(false); }

TEST(Fault, LostIntermediatesRerunMapsSpeculative) { ExpectLostIntermediatesRerunMaps(true); }

TEST(Fault, MembershipDetectsEngineKill) {
  ClusterOptions opts = FaultyCluster(4);
  opts.start_membership = true;
  opts.membership.heartbeat_interval = std::chrono::milliseconds(10);
  opts.membership.miss_threshold = 2;
  Cluster cluster(opts);

  cluster.worker(2).Kill();  // raw kill, no Cluster bookkeeping
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
  bool detected = false;
  while (std::chrono::steady_clock::now() < deadline && !detected) {
    detected = true;
    for (int id : {0, 1, 3}) {
      auto* agent = cluster.membership(id);
      ASSERT_NE(agent, nullptr);
      if (agent->ring_view().Contains(2)) detected = false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(detected) << "heartbeats should evict the killed worker";
}

TEST(Fault, ReplicationOneLosesDataHonestly) {
  // With replication disabled, a crash genuinely destroys the victim's
  // blocks — and the system reports that instead of pretending otherwise.
  ClusterOptions opts = FaultyCluster(5);
  opts.replication = 1;
  Cluster cluster(opts);
  std::string text = SampleText(17);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  // Find a server holding at least one (sole) block copy.
  int victim = -1;
  for (int id : cluster.WorkerIds()) {
    if (cluster.worker(id).dfs_node().blocks().Count() > 0) {
      victim = id;
      break;
    }
  }
  ASSERT_GE(victim, 0);

  cluster.KillServer(victim);
  auto back = cluster.dfs().ReadFile("corpus");
  EXPECT_FALSE(back.ok()) << "sole replicas died with the server";
}

TEST(Fault, HeartbeatsDriveAutomaticRecovery) {
  // No operator call to Cluster::KillServer: the worker just dies, the
  // heartbeat agents detect it, and the cluster repairs itself.
  ClusterOptions opts = FaultyCluster(5);
  opts.start_membership = true;
  opts.membership.heartbeat_interval = std::chrono::milliseconds(10);
  opts.membership.miss_threshold = 2;
  Cluster cluster(opts);

  std::string text = SampleText(21);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  cluster.worker(2).Kill();  // raw crash

  // Wait until auto-recovery removed it from the cluster ring.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < deadline && cluster.ring().Contains(2)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_FALSE(cluster.ring().Contains(2)) << "heartbeats should evict the dead worker";

  // Give re-replication a moment, then verify full replication on the new
  // replica sets and that jobs run.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto meta = cluster.dfs().GetMetadata("corpus").value();
  dht::Ring ring = cluster.ring();
  for (std::uint64_t b = 0; b < meta.num_blocks; ++b) {
    for (int target : ring.Replicas(meta.KeyOfBlock(b), 3)) {
      EXPECT_TRUE(cluster.worker(target).dfs_node().blocks().Contains(dfs::BlockId("corpus", b)))
          << "block " << b << " not re-replicated to " << target;
    }
  }
  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.output.size(), apps::WordCountSerial(text).size());
}

TEST(Fault, KillDuringJobStillCompletes) {
  Cluster cluster(FaultyCluster(6));
  std::string text = SampleText(13, 20000);
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  // Kill a server shortly after the job starts, from another thread.
  std::thread killer([&cluster] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    cluster.KillServer(1);
  });
  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  killer.join();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key))) << kv.key;
  }
}

}  // namespace
}  // namespace eclipse::mr
