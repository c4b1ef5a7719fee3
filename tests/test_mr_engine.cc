// End-to-end MapReduce correctness on the emulated cluster, checked against
// the serial reference implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <stdexcept>
#include <thread>

#include "apps/grep.h"
#include "apps/inverted_index.h"
#include "apps/sort.h"
#include "apps/text_util.h"
#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "obs/trace.h"
#include "workload/generators.h"

namespace eclipse::mr {
namespace {

ClusterOptions SmallCluster(int servers, SchedulerKind kind = SchedulerKind::kLaf) {
  ClusterOptions opts;
  opts.num_servers = servers;
  opts.block_size = 256;          // force multi-block files
  opts.cache_capacity = 1_MiB;
  opts.scheduler = kind;
  return opts;
}

std::string SampleText() {
  Rng rng(42);
  workload::TextOptions topts;
  topts.target_bytes = 4000;
  topts.vocabulary = 50;
  return workload::GenerateText(rng, topts);
}

class WordCountGrid
    : public ::testing::TestWithParam<std::tuple<int, int, SchedulerKind>> {};

TEST_P(WordCountGrid, MatchesSerialReference) {
  auto [servers, block_size, kind] = GetParam();
  ClusterOptions opts = SmallCluster(servers, kind);
  opts.block_size = static_cast<Bytes>(block_size);
  Cluster cluster(opts);

  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    auto it = expected.find(kv.key);
    ASSERT_NE(it, expected.end()) << "unexpected word " << kv.key;
    EXPECT_EQ(kv.value, std::to_string(it->second)) << "count for " << kv.key;
  }
  EXPECT_EQ(result.stats.map_tasks, dfs::NumBlocks(text.size(), opts.block_size));
  EXPECT_GT(result.stats.reduce_tasks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, WordCountGrid,
    ::testing::Combine(::testing::Values(1, 3, 8),
                       ::testing::Values(128, 517, 100000),
                       ::testing::Values(SchedulerKind::kLaf, SchedulerKind::kDelay)));

TEST(MrEngine, GrepMatchesSerial) {
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  JobResult result = cluster.Run(apps::GrepJob("grep", "corpus", "w1 "));
  ASSERT_TRUE(result.status.ok());

  auto expected = apps::GrepSerial(text, "w1 ");
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key)));
  }
}

TEST(MrEngine, InvertedIndexMatchesSerial) {
  Cluster cluster(SmallCluster(5));
  Rng rng(7);
  workload::TextOptions topts;
  topts.vocabulary = 30;
  std::string docs = workload::GenerateDocuments(rng, 40, 12, topts);
  ASSERT_TRUE(cluster.dfs().Upload("docs", docs).ok());

  JobResult result = cluster.Run(apps::InvertedIndexJob("ii", "docs"));
  ASSERT_TRUE(result.status.ok());

  auto expected = apps::InvertedIndexSerial(docs);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    std::set<std::string> got;
    for (auto& d : apps::Split(kv.value, ' ')) got.insert(d);
    EXPECT_EQ(got, expected.at(kv.key)) << "postings for " << kv.key;
  }
}

TEST(MrEngine, SortProducesGlobalOrder) {
  Cluster cluster(SmallCluster(4));
  Rng rng(3);
  std::string text;
  for (int i = 0; i < 200; ++i) {
    text += "k" + std::to_string(rng.Below(500)) + " payload" + std::to_string(i) + "\n";
  }
  ASSERT_TRUE(cluster.dfs().Upload("records", text).ok());

  JobResult result = cluster.Run(apps::SortJob("sort", "records"));
  ASSERT_TRUE(result.status.ok());
  ASSERT_EQ(result.output.size(), 200u);
  for (std::size_t i = 1; i < result.output.size(); ++i) {
    EXPECT_LE(result.output[i - 1].key, result.output[i].key);
  }
}

TEST(MrEngine, ReducesOfOneJobRunConcurrently) {
  // With speculation off, every range group of a job is dispatched at once
  // to its owner, so reduce tasks on different servers overlap in time.
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  Cluster cluster(SmallCluster(4));
  ASSERT_TRUE(cluster.dfs().Upload("corpus", SampleText()).ok());
  JobSpec job = apps::WordCountJob("wc-slow-reduce", "corpus");
  ASSERT_FALSE(job.speculative_execution);
  auto base_reducer = job.reducer;
  job.reducer = [base_reducer] {
    class Slowed : public Reducer {
     public:
      explicit Slowed(std::unique_ptr<Reducer> inner) : inner_(std::move(inner)) {}
      void Reduce(std::string_view key, const std::vector<std::string_view>& values,
                  ReduceContext& ctx) override {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        inner_->Reduce(key, values, ctx);
      }

     private:
      std::unique_ptr<Reducer> inner_;
    };
    return std::unique_ptr<Reducer>(new Slowed(base_reducer()));
  };
  JobResult result = cluster.Run(job);
  tracer.Stop();  // snapshot while the executor threads (and their logs) live
  std::vector<obs::TraceEvent> events = tracer.Snapshot();
  tracer.Clear();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  ASSERT_GE(result.stats.reduce_tasks, 2u);

  // Pair each reduce_task span of this job on its thread (a thread runs one
  // task at a time), then look for two intervals that overlap.
  std::map<std::uint32_t, std::uint64_t> open;  // tid -> begin ts
  std::vector<std::pair<std::uint64_t, std::uint64_t>> spans;
  for (const obs::TraceEvent& e : events) {
    if (std::strcmp(e.name, "reduce_task") != 0) continue;
    if (e.phase == 'B') {
      for (std::size_t i = 0; i < e.nargs; ++i) {
        if (std::strcmp(e.args[i].key, "job") == 0 && e.args[i].uval == result.job_id) {
          open[e.tid] = e.ts_us;
        }
      }
    } else if (e.phase == 'E') {
      if (auto it = open.find(e.tid); it != open.end()) {
        spans.emplace_back(it->second, e.ts_us);
        open.erase(it);
      }
    }
  }
  ASSERT_EQ(spans.size(), result.stats.reduce_tasks);
  std::sort(spans.begin(), spans.end());
  bool overlap = false;
  std::uint64_t end = spans[0].second;
  for (std::size_t i = 1; i < spans.size(); ++i) {
    overlap = overlap || spans[i].first < end;
    end = std::max(end, spans[i].second);
  }
  EXPECT_TRUE(overlap) << "no two of " << spans.size() << " reduce tasks overlapped";
}

TEST(MrEngine, ThrowingMapperPropagatesAndLeavesClusterReusable) {
  // An exception from user code reaches the caller as it did from a blocking
  // wait, but only after every other attempt of the phase has been joined:
  // none may outlive the job it references.
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  JobSpec job = apps::WordCountJob("wc-throws", "corpus");
  auto base_mapper = job.mapper;
  job.mapper = [base_mapper] {
    class Throwing : public Mapper {
     public:
      explicit Throwing(std::unique_ptr<Mapper> inner) : inner_(std::move(inner)) {}
      void Map(std::string_view record, MapContext& ctx) override {
        if (record.size() % 5 == 0) throw std::runtime_error("mapper failed");
        inner_->Map(record, ctx);
      }
      void Finish(MapContext& ctx) override { inner_->Finish(ctx); }

     private:
      std::unique_ptr<Mapper> inner_;
    };
    return std::unique_ptr<Mapper>(new Throwing(base_mapper()));
  };
  EXPECT_THROW(cluster.Run(job), std::runtime_error);

  JobResult again = cluster.Run(apps::WordCountJob("wc-after", "corpus"));
  ASSERT_TRUE(again.status.ok()) << again.status.ToString();
  auto expected = apps::WordCountSerial(text);
  EXPECT_EQ(again.output.size(), expected.size());
}

TEST(MrEngine, MissingInputFails) {
  Cluster cluster(SmallCluster(3));
  JobResult result = cluster.Run(apps::WordCountJob("wc", "nope"));
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), ErrorCode::kNotFound);
}

TEST(MrEngine, EmptyInputYieldsEmptyOutput) {
  Cluster cluster(SmallCluster(3));
  ASSERT_TRUE(cluster.dfs().Upload("empty", "").ok());
  JobResult result = cluster.Run(apps::WordCountJob("wc", "empty"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(result.output.empty());
}

TEST(MrEngine, SecondRunHitsInputCache) {
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobResult cold = cluster.Run(apps::WordCountJob("wc1", "corpus"));
  ASSERT_TRUE(cold.status.ok());
  EXPECT_EQ(cold.stats.icache_hits, 0u) << "cold cache: every block misses";
  EXPECT_GT(cold.stats.icache_misses, 0u);

  JobResult warm = cluster.Run(apps::WordCountJob("wc2", "corpus"));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_GT(warm.stats.icache_hits, 0u) << "same keys → same servers → hits";
}

TEST(MrEngine, TaggedIntermediatesSkipMapsOnReuse) {
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec first = apps::WordCountJob("wc-a", "corpus");
  first.intermediate_tag = "wc-shared";
  JobResult r1 = cluster.Run(first);
  ASSERT_TRUE(r1.status.ok());
  EXPECT_EQ(r1.stats.maps_skipped, 0u);

  JobSpec second = apps::WordCountJob("wc-b", "corpus");
  second.intermediate_tag = "wc-shared";
  JobResult r2 = cluster.Run(second);
  ASSERT_TRUE(r2.status.ok());
  EXPECT_EQ(r2.stats.maps_skipped, r2.stats.map_tasks)
      << "every map should reuse the tagged intermediates (§II-C)";

  // Identical results either way.
  ASSERT_EQ(r1.output.size(), r2.output.size());
  for (std::size_t i = 0; i < r1.output.size(); ++i) {
    EXPECT_EQ(r1.output[i], r2.output[i]);
  }
}

TEST(MrEngine, MetricSeriesStayBoundedAcrossJobs) {
  // No counter may be labeled per job: a long-lived coordinator would
  // otherwise register new series with every job it runs.
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  ASSERT_TRUE(cluster.Run(apps::WordCountJob("wc", "corpus")).status.ok());
  const std::size_t series = cluster.metrics().CounterSnapshot().size();
  for (int i = 1; i < 50; ++i) {
    ASSERT_TRUE(cluster.Run(apps::WordCountJob("wc", "corpus")).status.ok()) << "job " << i;
  }
  EXPECT_EQ(cluster.metrics().CounterSnapshot().size(), series);
}

TEST(MrEngine, ExpiredIntermediatesAreRecomputed) {
  Cluster cluster(SmallCluster(3));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec first = apps::WordCountJob("wc-a", "corpus");
  first.intermediate_tag = "ttl-tag";
  first.intermediate_ttl = std::chrono::milliseconds(30);
  ASSERT_TRUE(cluster.Run(first).status.ok());

  std::this_thread::sleep_for(std::chrono::milliseconds(80));

  JobSpec second = apps::WordCountJob("wc-b", "corpus");
  second.intermediate_tag = "ttl-tag";
  second.intermediate_ttl = std::chrono::milliseconds(30);
  JobResult r2 = cluster.Run(second);
  ASSERT_TRUE(r2.status.ok()) << r2.status.ToString();
  // TTL invalidated the manifests: maps must re-run, results still correct.
  auto expected = apps::WordCountSerial(text);
  EXPECT_EQ(r2.output.size(), expected.size());
}

TEST(MrEngine, ProactiveSpillsPlacedReducerSide) {
  ClusterOptions opts = SmallCluster(4);
  Cluster cluster(opts);
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec spec = apps::WordCountJob("wc", "corpus");
  spec.spill_threshold = 64;  // many small spills while mapping
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.spills, result.stats.reduce_tasks)
      << "threshold spilling should produce multiple spills per range";
  EXPECT_GT(result.stats.bytes_spilled, 0u);
}

TEST(MrEngine, MigrateMisplacedCacheMovesEntries) {
  ClusterOptions opts = SmallCluster(4);
  opts.laf.window = 8;  // repartition quickly
  opts.laf.alpha = 1.0;
  Cluster cluster(opts);
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  ASSERT_TRUE(cluster.Run(apps::WordCountJob("wc", "corpus")).status.ok());
  // After aggressive repartitioning some cached blocks are misplaced; the
  // migration pass may move them. It must never lose entries.
  std::size_t before = 0;
  for (int id : cluster.WorkerIds()) before += cluster.worker(id).cache().Count();
  cluster.MigrateMisplacedCache();
  std::size_t after = 0;
  for (int id : cluster.WorkerIds()) after += cluster.worker(id).cache().Count();
  EXPECT_EQ(after, before);
}

TEST(MrEngine, MultiFileInputsUnionCorrectly) {
  Cluster cluster(SmallCluster(4));
  Rng rng(21);
  workload::TextOptions topts;
  topts.target_bytes = 2500;
  topts.vocabulary = 30;
  std::string a = workload::GenerateText(rng, topts);
  std::string b = workload::GenerateText(rng, topts);
  std::string c = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("a", a).ok());
  ASSERT_TRUE(cluster.dfs().Upload("b", b).ok());
  ASSERT_TRUE(cluster.dfs().Upload("c", c).ok());

  JobSpec spec = apps::WordCountJob("wc-multi", "a");
  spec.extra_inputs = {"b", "c"};
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();

  auto expected = apps::WordCountSerial(a + b + c);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key))) << kv.key;
  }
  EXPECT_EQ(result.stats.input_bytes, a.size() + b.size() + c.size());

  // A missing extra input fails the whole job up front.
  JobSpec broken = apps::WordCountJob("wc-broken", "a");
  broken.extra_inputs = {"nope"};
  EXPECT_EQ(cluster.Run(broken).status.code(), ErrorCode::kNotFound);
}

TEST(MrEngine, VirtualNodeClusterRunsCorrectly) {
  ClusterOptions opts = SmallCluster(5);
  opts.vnodes = 8;
  Cluster cluster(opts);
  EXPECT_EQ(cluster.ring().NumPositions(), 40u);

  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  auto back = cluster.dfs().ReadFile("corpus");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);

  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  auto expected = apps::WordCountSerial(text);
  ASSERT_EQ(result.output.size(), expected.size());
  for (const auto& kv : result.output) {
    EXPECT_EQ(kv.value, std::to_string(expected.at(kv.key)));
  }

  // Failure handling is vnode-aware too: every vnode of the victim leaves.
  ASSERT_EQ(cluster.KillServer(1).blocks_lost, 0u);
  back = cluster.dfs().ReadFile("corpus");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), text);
}

TEST(MrEngine, OutputFilePersistedToDfs) {
  Cluster cluster(SmallCluster(4));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());

  JobSpec spec = apps::WordCountJob("wc", "corpus");
  spec.output_file = "wc.out";
  JobResult result = cluster.Run(spec);
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.output_bytes, 0u);

  auto stored = cluster.dfs().ReadFile("wc.out");
  ASSERT_TRUE(stored.ok());
  // One "key\tvalue" line per output pair, in output order.
  std::size_t lines = 0, pos = 0;
  while ((pos = stored.value().find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, result.output.size());
  const auto& first = result.output.front();
  EXPECT_EQ(stored.value().substr(0, first.key.size() + 1 + first.value.size()),
            first.key + "\t" + first.value);

  // Re-running with the same output file replaces it, not duplicates it.
  JobSpec again = apps::WordCountJob("wc2", "corpus");
  again.output_file = "wc.out";
  ASSERT_TRUE(cluster.Run(again).status.ok());
  auto replaced = cluster.dfs().ReadFile("wc.out");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced.value(), stored.value());
}

TEST(MrEngine, StatsReportWallTimeAndInputBytes) {
  Cluster cluster(SmallCluster(2));
  std::string text = SampleText();
  ASSERT_TRUE(cluster.dfs().Upload("corpus", text).ok());
  JobResult result = cluster.Run(apps::WordCountJob("wc", "corpus"));
  ASSERT_TRUE(result.status.ok());
  EXPECT_GT(result.stats.wall_seconds, 0.0);
  EXPECT_EQ(result.stats.input_bytes, text.size());
}

}  // namespace
}  // namespace eclipse::mr
