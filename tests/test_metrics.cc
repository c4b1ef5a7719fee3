#include "common/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "apps/wordcount.h"
#include "mr/cluster.h"
#include "workload/generators.h"

namespace eclipse {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, ConcurrentAddsAreExact) {
  Counter c;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.Add();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 80000u);
}

TEST(HistogramTest, MeanAndQuantiles) {
  Histogram h;
  for (std::uint64_t v : {1u, 2u, 4u, 8u, 1000u}) h.Record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 1015u);
  EXPECT_DOUBLE_EQ(h.mean(), 203.0);
  EXPECT_LE(h.ApproxQuantile(0.5), 7u);       // 3 of 5 samples <= 4
  EXPECT_GE(h.ApproxQuantile(0.99), 1000u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.ApproxQuantile(0.5), 0u);
}

TEST(HistogramTest, ZeroSample) {
  Histogram h;
  h.Record(0);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_LE(h.ApproxQuantile(1.0), 1u);
}

TEST(HistogramTest, ConcurrentRecordKeepsBucketInvariant) {
  // Many writers, one snapshotting reader. After the barrier (join), every
  // Record must be fully visible: count == sum of bucket counts, and sum
  // matches the arithmetic total of what the writers recorded.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      // Mid-flight snapshots must be internally sane even if they straddle a
      // Record (bucket and count are separate atomics).
      auto buckets = h.BucketCounts();
      std::uint64_t bucket_total = 0;
      for (auto b : buckets) bucket_total += b;
      (void)h.mean();
      (void)h.ApproxQuantile(0.99);
      ASSERT_LE(bucket_total, kThreads * kPerThread);
    }
  });
  std::vector<std::thread> writers;
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        h.Record(i % (16u << t));  // spread across buckets, per-thread range
      }
    });
    for (std::uint64_t i = 0; i < kPerThread; ++i) expected_sum += i % (16u << t);
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.sum(), expected_sum);
  auto buckets = h.BucketCounts();
  std::uint64_t bucket_total = 0;
  for (auto b : buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, h.count()) << "a Record was torn across the barrier";
}

TEST(MetricsRegistryTest, ConcurrentGetOrCreateAndSnapshot) {
  // Hammer the registry's get-or-create path for the same and distinct names
  // while another thread snapshots/renders: exercises the map lock, and the
  // returned references must stay stable across rehashing inserts.
  MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kIters = 5000;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)reg.CounterSnapshot();
      (void)reg.Render();
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, t] {
      for (int i = 0; i < kIters; ++i) {
        reg.GetCounter("shared.ops").Add();
        reg.GetCounter("thread." + std::to_string(t)).Add();
        reg.GetHistogram("lat." + std::to_string(i % 17)).Record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(reg.GetCounter("shared.ops").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(reg.GetCounter("thread." + std::to_string(t)).value(),
              static_cast<std::uint64_t>(kIters));
  }
  std::uint64_t hist_total = 0;
  for (int i = 0; i < 17; ++i) {
    hist_total += reg.GetHistogram("lat." + std::to_string(i)).count();
  }
  EXPECT_EQ(hist_total, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(MetricsRegistryTest, GetOrCreateAndRender) {
  MetricsRegistry reg;
  reg.GetCounter("a.requests").Add(3);
  reg.GetCounter("a.requests").Add(1);  // same counter
  reg.GetCounter("b.errors").Add();
  reg.GetHistogram("lat_us").Record(100);

  auto snapshot = reg.CounterSnapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].first, "a.requests");
  EXPECT_EQ(snapshot[0].second, 4u);
  EXPECT_EQ(snapshot[1].second, 1u);

  std::string report = reg.Render();
  EXPECT_NE(report.find("a.requests"), std::string::npos);
  EXPECT_NE(report.find("lat_us"), std::string::npos);

  reg.ResetAll();
  EXPECT_EQ(reg.CounterSnapshot()[0].second, 0u);
}

TEST(GaugeTest, SetAddReset) {
  Gauge g;
  EXPECT_EQ(g.value(), 0);
  g.Set(42);
  g.Add(-2);
  EXPECT_EQ(g.value(), 40);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
}

TEST(MetricsRegistryTest, LabeledSeriesAreDistinct) {
  MetricsRegistry reg;
  reg.GetCounter("mr.map_tasks_by_locality", {{"locality", "memory"}}).Add(3);
  reg.GetCounter("mr.map_tasks_by_locality", {{"locality", "remote_disk"}}).Add(1);
  reg.GetCounter("mr.map_tasks_by_locality", {{"locality", "memory"}}).Add(2);
  reg.GetCounter("mr.map_tasks_by_locality").Add(6);  // unlabeled series

  EXPECT_EQ(reg.GetCounter("mr.map_tasks_by_locality", {{"locality", "memory"}}).value(), 5u);
  EXPECT_EQ(reg.GetCounter("mr.map_tasks_by_locality", {{"locality", "remote_disk"}}).value(),
            1u);
  EXPECT_EQ(reg.GetCounter("mr.map_tasks_by_locality").value(), 6u);

  auto snapshot = reg.CounterSnapshot();
  ASSERT_EQ(snapshot.size(), 3u);
  EXPECT_EQ(snapshot[0].first, "mr.map_tasks_by_locality");  // unlabeled sorts first
  EXPECT_EQ(snapshot[1].first, "mr.map_tasks_by_locality{locality=\"memory\"}");
  EXPECT_EQ(snapshot[1].second, 5u);
}

TEST(MetricsRegistryTest, LabelOrderDoesNotSplitSeries) {
  MetricsRegistry reg;
  reg.GetCounter("x", {{"a", "1"}, {"b", "2"}}).Add(1);
  reg.GetCounter("x", {{"b", "2"}, {"a", "1"}}).Add(1);
  EXPECT_EQ(reg.GetCounter("x", {{"a", "1"}, {"b", "2"}}).value(), 2u);
  EXPECT_EQ(reg.CounterSnapshot().size(), 1u);
}

// Every non-comment line of the exposition must parse as
// `name{label="value",...} <number>` with a sanitized metric name — the
// format Prometheus's text parser accepts line by line.
void ExpectPrometheusParses(const std::string& text) {
  std::size_t pos = 0;
  int series = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "exposition must end with a newline";
    std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line.rfind("# TYPE ", 0) == 0) continue;
    ASSERT_FALSE(line[0] == '#') << "only # TYPE comments are emitted: " << line;

    std::size_t i = 0;
    auto name_char = [](char c, bool first) {
      bool alpha = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':';
      return first ? alpha : (alpha || (c >= '0' && c <= '9'));
    };
    ASSERT_TRUE(i < line.size() && name_char(line[i], true)) << line;
    while (i < line.size() && name_char(line[i], false)) ++i;
    if (i < line.size() && line[i] == '{') {
      std::size_t close = line.find('}', i);
      ASSERT_NE(close, std::string::npos) << line;
      i = close + 1;
    }
    ASSERT_TRUE(i < line.size() && line[i] == ' ') << line;
    ++i;
    ASSERT_LT(i, line.size()) << line;
    if (line[i] == '-') ++i;
    ASSERT_LT(i, line.size()) << line;
    while (i < line.size()) {
      ASSERT_TRUE(line[i] >= '0' && line[i] <= '9') << line;
      ++i;
    }
    ++series;
  }
  EXPECT_GT(series, 0);
}

TEST(MetricsRegistryTest, PrometheusExposition) {
  MetricsRegistry reg;
  reg.GetCounter("a.requests").Add(4);
  reg.GetCounter("net.calls", {{"transport", "tcp"}}).Add(2);
  reg.GetGauge("cluster.live_servers").Set(8);
  reg.GetHistogram("mr.map_task_us", {{"locality", "memory"}}).Record(100);
  reg.GetHistogram("mr.map_task_us", {{"locality", "memory"}}).Record(3);

  std::string prom = reg.RenderPrometheus();
  ExpectPrometheusParses(prom);

  EXPECT_NE(prom.find("# TYPE a_requests counter\n"), std::string::npos);
  EXPECT_NE(prom.find("a_requests 4\n"), std::string::npos);
  EXPECT_NE(prom.find("net_calls{transport=\"tcp\"} 2\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cluster_live_servers gauge\n"), std::string::npos);
  EXPECT_NE(prom.find("cluster_live_servers 8\n"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE mr_map_task_us histogram\n"), std::string::npos);
  // Cumulative buckets: sample 3 falls in [2,4) => le="3" bucket holds 1,
  // sample 100 in [64,128) => le="127" reaches 2; +Inf, sum, count follow.
  EXPECT_NE(prom.find("mr_map_task_us_bucket{locality=\"memory\",le=\"3\"} 1\n"),
            std::string::npos);
  EXPECT_NE(prom.find("mr_map_task_us_bucket{locality=\"memory\",le=\"127\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("mr_map_task_us_bucket{locality=\"memory\",le=\"+Inf\"} 2\n"),
            std::string::npos);
  EXPECT_NE(prom.find("mr_map_task_us_sum{locality=\"memory\"} 103\n"), std::string::npos);
  EXPECT_NE(prom.find("mr_map_task_us_count{locality=\"memory\"} 2\n"), std::string::npos);
}

TEST(ClusterMetrics, PrometheusExpositionCoversLayers) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 256;
  mr::Cluster cluster(opts);
  Rng rng(9);
  workload::TextOptions topts;
  topts.target_bytes = 3000;
  ASSERT_TRUE(cluster.dfs().Upload("t", workload::GenerateText(rng, topts)).ok());
  ASSERT_TRUE(cluster.Run(apps::WordCountJob("wc", "t")).status.ok());

  std::string prom = cluster.MetricsPrometheus();
  ExpectPrometheusParses(prom);
  EXPECT_NE(prom.find("cluster_live_servers 4\n"), std::string::npos);
  EXPECT_NE(prom.find("cache_used_bytes{server=\"0\"}"), std::string::npos);
  EXPECT_NE(prom.find("cache_capacity_bytes{server=\"3\"}"), std::string::npos);
  EXPECT_NE(prom.find("mr_map_tasks_by_locality{locality="), std::string::npos);
  EXPECT_NE(prom.find("net_calls{transport=\"inproc\"}"), std::string::npos);
  EXPECT_NE(prom.find("mr_jobs_completed 1\n"), std::string::npos);
  EXPECT_NE(prom.find("dfs_under_replicated_writes 0\n"), std::string::npos);

  cluster.KillServer(1);
  prom = cluster.MetricsPrometheus();
  EXPECT_NE(prom.find("cluster_live_servers 3\n"), std::string::npos);
}

TEST(ClusterMetrics, JobsPopulateRegistry) {
  mr::ClusterOptions opts;
  opts.num_servers = 4;
  opts.block_size = 256;
  mr::Cluster cluster(opts);
  Rng rng(5);
  workload::TextOptions topts;
  topts.target_bytes = 3000;
  std::string text = workload::GenerateText(rng, topts);
  ASSERT_TRUE(cluster.dfs().Upload("t", text).ok());

  ASSERT_TRUE(cluster.Run(apps::WordCountJob("wc1", "t")).status.ok());
  ASSERT_TRUE(cluster.Run(apps::WordCountJob("wc2", "t")).status.ok());

  auto& m = cluster.metrics();
  EXPECT_EQ(m.GetCounter("mr.jobs_completed").value(), 2u);
  EXPECT_GT(m.GetCounter("mr.map_tasks").value(), 0u);
  EXPECT_GT(m.GetCounter("mr.icache_hits").value(), 0u) << "second run hits";
  EXPECT_EQ(m.GetHistogram("mr.job_wall_us").count(), 2u);

  cluster.KillServer(1);
  EXPECT_EQ(m.GetCounter("cluster.recoveries").value(), 1u);
}

}  // namespace
}  // namespace eclipse
