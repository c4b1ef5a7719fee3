// Component micro-benchmarks (google-benchmark): the primitive costs behind
// the paper's "the LAF scheduling algorithm is very lightweight" claim and
// the DHT routing-table lookup overhead discussion (§II-A/E).
#include <benchmark/benchmark.h>

#include "cache/lru_cache.h"
#include "common/hash_key.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "dht/finger_table.h"
#include "dht/ring.h"
#include "sched/cdf_partition.h"
#include "sched/key_histogram.h"
#include "dfs/metadata.h"
#include "mr/record_reader.h"
#include "mr/shuffle.h"
#include "net/tcp_transport.h"
#include "obs/trace.h"
#include "sched/laf_scheduler.h"

using namespace eclipse;

static void BM_Sha1Hash64B(benchmark::State& state) {
  std::string msg(64, 'x');
  for (auto _ : state) benchmark::DoNotOptimize(Sha1::Hash(msg));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Sha1Hash64B);

// Ring key of one short intermediate key: the per-record routing digest.
static void BM_KeyOfShortKey(benchmark::State& state) {
  std::string key = "wordword";
  for (auto _ : state) {
    benchmark::DoNotOptimize(KeyOf(key));
    key[0] = static_cast<char>('a' + (key[0] - 'a' + 1) % 26);
  }
}
BENCHMARK(BM_KeyOfShortKey);

static void BM_Sha1Hash1MiB(benchmark::State& state) {
  std::string msg(1 << 20, 'x');
  for (auto _ : state) benchmark::DoNotOptimize(Sha1::Hash(msg));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * (1 << 20));
}
BENCHMARK(BM_Sha1Hash1MiB);

static void BM_RingOwner(benchmark::State& state) {
  dht::Ring ring;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) ring.AddServer(i);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(ring.Owner(rng.Next()));
}
BENCHMARK(BM_RingOwner)->Arg(8)->Arg(40)->Arg(1000);

static void BM_RangeTableOwner(benchmark::State& state) {
  dht::Ring ring;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) ring.AddServer(i);
  RangeTable t = ring.MakeRangeTable();
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(t.Owner(rng.Next()));
}
BENCHMARK(BM_RangeTableOwner)->Arg(8)->Arg(40)->Arg(1000);

static void BM_FingerNextHop(benchmark::State& state) {
  dht::Ring ring;
  for (int i = 0; i < 1000; ++i) ring.AddServer(i);
  dht::FingerTable table(ring, 0, static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(table.NextHop(rng.Next()));
}
BENCHMARK(BM_FingerNextHop)->Arg(10)->Arg(1000);

static void BM_HistogramAdd(benchmark::State& state) {
  sched::KeyHistogram h(1024, static_cast<std::size_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) h.Add(rng.Next());
}
BENCHMARK(BM_HistogramAdd)->Arg(1)->Arg(3)->Arg(9);

static void BM_CdfRepartition(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> pdf(1024);
  for (auto& v : pdf) v = rng.NextDouble();
  std::vector<int> servers;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) servers.push_back(i);
  for (auto _ : state) {
    auto cdf = sched::ConstructCdf(pdf);
    benchmark::DoNotOptimize(sched::PartitionCdf(cdf, servers));
  }
}
BENCHMARK(BM_CdfRepartition)->Arg(8)->Arg(40);

static void BM_LafAssign(benchmark::State& state) {
  dht::Ring ring;
  for (int i = 0; i < 40; ++i) ring.AddServer(i);
  sched::LafOptions opts;
  opts.window = static_cast<std::size_t>(state.range(0));
  sched::LafScheduler laf(ring.Servers(), ring.MakeRangeTable(), opts);
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(laf.Assign(rng.Next()));
}
BENCHMARK(BM_LafAssign)->Arg(128)->Arg(1024);

static void BM_RecordExtraction(benchmark::State& state) {
  // Record-reader throughput over an in-memory block (no boundary fetches).
  std::string block;
  for (int i = 0; i < 2000; ++i) block += "line-" + std::to_string(i) + "-payload\n";
  dfs::FileMetadata meta;
  meta.name = "f";
  meta.size = block.size();
  meta.block_size = block.size();
  meta.num_blocks = 1;
  auto fetch_block = [](std::uint64_t) -> Result<std::string> {
    return Status::Error(ErrorCode::kInternal, "unused");
  };
  auto fetch_range = [](std::uint64_t, Bytes, Bytes) -> Result<std::string> {
    return Status::Error(ErrorCode::kInternal, "unused");
  };
  for (auto _ : state) {
    auto records = mr::ExtractRecords(meta, 0, '\n', block, fetch_block, fetch_range);
    benchmark::DoNotOptimize(records);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(block.size()));
}
BENCHMARK(BM_RecordExtraction);

static void BM_SpillEncodeDecode(benchmark::State& state) {
  std::vector<mr::KV> pairs;
  for (int i = 0; i < 1000; ++i) {
    pairs.push_back(mr::KV{"key-" + std::to_string(i % 50), "value-" + std::to_string(i)});
  }
  for (auto _ : state) {
    std::string data = mr::EncodeSpill(pairs);
    auto back = mr::DecodeSpill(data);
    benchmark::DoNotOptimize(back);
  }
}
BENCHMARK(BM_SpillEncodeDecode);

static void BM_InProcessCall(benchmark::State& state) {
  net::InProcessTransport transport;
  transport.Register(1, [](net::NodeId, const net::Message& m) { return m; });
  net::Message msg{42, std::string(static_cast<std::size_t>(state.range(0)), 'p')};
  for (auto _ : state) {
    auto resp = transport.Call(0, 1, msg);
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_InProcessCall)->Arg(64)->Arg(65536);

static void BM_TcpLoopbackCall(benchmark::State& state) {
  net::TcpTransport transport;
  transport.Register(1, [](net::NodeId, const net::Message& m) { return m; });
  net::Message msg{42, std::string(static_cast<std::size_t>(state.range(0)), 'p')};
  for (auto _ : state) {
    auto resp = transport.Call(0, 1, msg);
    benchmark::DoNotOptimize(resp);
  }
}
BENCHMARK(BM_TcpLoopbackCall)->Arg(64)->Arg(65536);

static void BM_LruPutGet(benchmark::State& state) {
  cache::LruCache c(64_MiB);
  Rng rng(1);
  std::string data(4096, 'd');
  int i = 0;
  for (auto _ : state) {
    std::string id = "blk" + std::to_string(i++ % 10000);
    c.Put(id, rng.Next(), data, cache::EntryKind::kInput);
    benchmark::DoNotOptimize(c.Get(id, cache::EntryKind::kInput));
  }
}
BENCHMARK(BM_LruPutGet);

// Trace-emission cost (ISSUE acceptance: enabled span < 100 ns/event). The
// flight recorder is bounded, so a long benchmark loop simply recycles chunks;
// overwrite accounting is relaxed and does not perturb the measured path.
static void BM_TraceEmitEvent(benchmark::State& state) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  for (auto _ : state) {
    tracer.Emit('i', "bench", "tick", 1, {obs::U64("n", 1)});
  }
  tracer.Stop();
  tracer.Clear();
}
BENCHMARK(BM_TraceEmitEvent);

static void BM_TraceSpan(benchmark::State& state) {
  auto& tracer = obs::Tracer::Global();
  tracer.Start();
  for (auto _ : state) {
    obs::TraceSpan span("bench", "work", 1, {obs::U64("n", 1)});
    benchmark::DoNotOptimize(&span);
  }
  tracer.Stop();
  tracer.Clear();
}
BENCHMARK(BM_TraceSpan);

static void BM_TraceSpanDisabled(benchmark::State& state) {
  auto& tracer = obs::Tracer::Global();
  tracer.Stop();
  for (auto _ : state) {
    obs::TraceSpan span("bench", "work", 1, {obs::U64("n", 1)});
    benchmark::DoNotOptimize(&span);
  }
}
BENCHMARK(BM_TraceSpanDisabled);

BENCHMARK_MAIN();
