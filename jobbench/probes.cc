// Isolated probes of each layer's public functions. Inputs come from the
// workload itself: the intermediate pairs are what the workload's mapper
// emits for the first blocks of its corpus, block and spill payloads have
// the workload's sizes. Each probe runs inside a "probe" span on the
// benchmark's track and reports a per-operation median or mean.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <thread>

#include "apps/sort.h"
#include "apps/wordcount.h"
#include "cache/lru_cache.h"
#include "dfs/dfs_client.h"
#include "dfs/dfs_node.h"
#include "dht/ring.h"
#include "jobbench.h"
#include "mr/shuffle.h"
#include "net/dispatcher.h"
#include "net/tcp_transport.h"
#include "obs/trace.h"
#include "sched/slot_arbiter.h"
#include "sched/task_executor.h"

using namespace eclipse;

namespace jobbench {
namespace {

constexpr int kDfsServers = 4;
constexpr int kClientId = 1000;
constexpr int kEchoId = 77;
constexpr std::uint32_t kEchoType = 9000;
// Keep each probe's timed work near this long: long enough to average out
// timer granularity, short enough that all probes add about a second.
constexpr double kProbeBudgetMs = 60;

/// Makes a probe loop's result observable so the compiler keeps the loop.
void Keep(std::uint64_t v) {
  static std::atomic<std::uint64_t> sink;
  sink.store(v, std::memory_order_relaxed);
}

double NsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

/// Repeats `pass` (which returns the operations it did) until the budget is
/// spent; returns ns per operation.
template <typename F>
double NsPerOp(F&& pass) {
  double ns = 0, ops = 0;
  auto t0 = Clock::now();
  do {
    auto p0 = Clock::now();
    ops += static_cast<double>(pass());
    ns += NsSince(p0);
  } while (NsSince(t0) < kProbeBudgetMs * 1e6);
  return ops > 0 ? ns / ops : 0.0;
}

/// Times `op` individually until the budget is spent (at most `max_ops`);
/// returns the median in µs.
template <typename F>
double MedianUs(F&& op, int max_ops = 2000) {
  std::vector<double> us;
  auto t0 = Clock::now();
  while (static_cast<int>(us.size()) < max_ops && NsSince(t0) < kProbeBudgetMs * 1e6) {
    auto p0 = Clock::now();
    op();
    us.push_back(NsSince(p0) / 1e3);
  }
  return Percentile(std::move(us), 0.5);
}

class CaptureContext : public mr::MapContext {
 public:
  explicit CaptureContext(std::vector<mr::KV>* out) : out_(out) {}
  void Emit(std::string_view key, std::string_view value) override {
    out_->push_back({std::string(key), std::string(value)});
  }
  const std::string& shared_state() const override { return empty_; }

 private:
  std::vector<mr::KV>* out_;
  std::string empty_;
};

/// The mapper's output for each of the first `blocks` blocks of `text`
/// (blocks cut at line ends, as the engine's record reader delivers them).
std::vector<std::vector<mr::KV>> MapBlocks(const Workload& w, const std::string& text,
                                           int blocks) {
  std::vector<std::vector<mr::KV>> out;
  std::size_t pos = 0;
  while (static_cast<int>(out.size()) < blocks && pos < text.size()) {
    std::size_t end = std::min(text.size(), pos + w.block_size);
    std::unique_ptr<mr::Mapper> mapper;
    if (w.sort) {
      mapper = std::make_unique<apps::SortMapper>();
    } else {
      mapper = std::make_unique<apps::WordCountMapper>();
    }
    out.emplace_back();
    CaptureContext ctx(&out.back());
    while (pos < end) {
      std::size_t nl = text.find('\n', pos);
      if (nl == std::string::npos) nl = text.size();
      mapper->Map(std::string_view(text).substr(pos, nl - pos), ctx);
      pos = nl + 1;
    }
    mapper->Finish(ctx);
  }
  return out;
}

/// A DHT file system of kDfsServers nodes on one transport, plus a client
/// and an echo endpoint for raw transport calls.
struct MiniDfs {
  std::unique_ptr<net::Transport> transport;
  dht::Ring ring;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers;
  std::vector<std::unique_ptr<dfs::DfsNode>> nodes;
  std::unique_ptr<dfs::DfsClient> client;

  MiniDfs(bool tcp, Bytes block_size) {
    if (tcp) {
      transport = std::make_unique<net::TcpTransport>();
    } else {
      transport = std::make_unique<net::InProcessTransport>();
    }
    for (int i = 0; i < kDfsServers; ++i) {
      ring.AddServer(i);
      dispatchers.push_back(std::make_unique<net::Dispatcher>());
      nodes.push_back(std::make_unique<dfs::DfsNode>(i, *dispatchers.back()));
      transport->Register(i, dispatchers.back()->AsHandler());
    }
    transport->Register(kEchoId, [](net::NodeId, const net::Message& m) { return m; });
    dfs::DfsClientOptions o;
    o.default_block_size = block_size;
    auto snapshot = std::make_shared<const dht::Ring>(ring);
    client = std::make_unique<dfs::DfsClient>(kClientId, *transport,
                                              [snapshot] { return snapshot; }, o);
  }
  ~MiniDfs() {
    for (int i = 0; i < kDfsServers; ++i) transport->Register(i, nullptr);
    transport->Register(kEchoId, nullptr);
  }
  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;
};

}  // namespace

bool RunProbes(const Workload& w, const std::string& sample, Metrics* out) {
  // A failed call would time the error path, so any failure fails the run.
  // Only the first failure is printed: a probe loop repeats its call.
  bool ok = true;
  auto check = [&ok](const Status& st, const char* what) {
    if (st.ok()) return;
    if (ok) std::fprintf(stderr, "jobbench: probe %s failed: %s\n", what, st.ToString().c_str());
    ok = false;
  };
  auto span = [](const char* layer) {
    return std::make_unique<obs::TraceSpan>("bench", "probe", kBenchPid,
                                            std::initializer_list<obs::TraceArg>{
                                                obs::Str("layer", layer)});
  };
  Metrics& m = *out;
  const auto blocks = MapBlocks(w, sample, 16);
  std::vector<std::string_view> keys;
  std::size_t pairs = 0;
  for (const auto& b : blocks) {
    for (const auto& kv : b) keys.push_back(kv.key);
    pairs += b.size();
  }

  dht::Ring ring;
  for (int i = 0; i < 8; ++i) ring.AddServer(i);
  const RangeTable ranges = ring.MakeRangeTable();
  std::vector<HashKey> begins;
  for (const auto& [server, r] : ranges.entries()) {
    if (!r.IsEmpty()) begins.push_back(r.begin);
  }
  std::sort(begins.begin(), begins.end());

  {
    auto s = span("dht.route");
    std::vector<HashKey> hks;
    for (auto k : keys) hks.push_back(KeyOf(k));
    std::size_t sink = 0;
    m.push_back({"dht.route_ns", NsPerOp([&] {
                   for (HashKey hk : hks) sink += mr::RouteToRange(begins, hk);
                   return hks.size();
                 }),
                 "ns"});
    Keep(sink);
  }
  {
    auto s = span("mr.keymemo");
    HashKey sink = 0;
    m.push_back({"mr.keymemo_ns", NsPerOp([&] {
                   for (const auto& b : blocks) {
                     auto memo = std::make_unique<mr::KeyMemo>();  // one per map task
                     for (const auto& kv : b) sink ^= memo->Get(kv.key);
                   }
                   return pairs;
                 }),
                 "ns"});
    Keep(sink);
    // KeyMemo does not count its hits; replay the keys through the same
    // direct-mapped layout (512 slots, keys up to 23 bytes, FNV-1a index).
    std::size_t hits = 0;
    for (const auto& b : blocks) {
      std::vector<std::string> slots(512);
      std::vector<bool> used(512, false);
      for (const auto& kv : b) {
        if (kv.key.size() > 23) continue;
        std::uint64_t h = 1469598103934665603ull;
        for (char c : kv.key) h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
        const std::size_t slot = h & 511;
        if (used[slot] && slots[slot] == kv.key) {
          ++hits;
        } else {
          used[slot] = true;
          slots[slot] = kv.key;
        }
      }
    }
    m.push_back({"mr.keymemo_hit_frac",
                 pairs > 0 ? static_cast<double>(hits) / static_cast<double>(pairs) : 0.0,
                 "ratio"});
  }

  MiniDfs inproc(false, w.block_size);
  {
    auto s = span("mr.shuffle_add");
    // One writer per block, as in a map task, with a threshold above the
    // block's volume: only Add is timed, nothing spills.
    double ns = 0, ops = 0;
    auto t0 = Clock::now();
    do {
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        mr::ShuffleWriter writer("probe/b" + std::to_string(i), ranges, *inproc.client, 1_GiB,
                                 std::chrono::milliseconds(1000));
        auto a0 = Clock::now();
        for (const auto& kv : blocks[i]) check(writer.Add(kv.key, kv.value), "ShuffleWriter::Add");
        ns += NsSince(a0);
      }
      ops += static_cast<double>(pairs);
    } while (NsSince(t0) < kProbeBudgetMs * 1e6);
    m.push_back({"mr.shuffle_add_ns", ops > 0 ? ns / ops : 0.0, "ns"});
  }

  // One spill per block: the block's pairs, encoded, decoded and grouped.
  std::vector<std::string> encoded;
  std::size_t encoded_bytes = 0;
  {
    auto s = span("mr.spill_codec");
    std::vector<std::vector<mr::KVView>> views(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      for (const auto& kv : blocks[i]) views[i].push_back({kv.key, kv.value});
    }
    BinaryWriter writer;
    for (const auto& v : views) {
      mr::EncodeSpillTo(v, writer);
      encoded.push_back(writer.str());
      encoded_bytes += encoded.back().size();
    }
    const double kib = static_cast<double>(encoded_bytes) / 1024.0;
    const double enc = NsPerOp([&] {
      for (const auto& v : views) mr::EncodeSpillTo(v, writer);
      return 1;
    });
    m.push_back({"mr.spill_encode_ns_per_kib", enc / kib, "ns/KiB"});
    std::vector<mr::KVView> decoded;
    const double dec = NsPerOp([&] {
      for (const auto& e : encoded) {
        decoded.clear();
        check(mr::DecodeSpillViews(e, &decoded), "DecodeSpillViews");
      }
      return 1;
    });
    m.push_back({"mr.spill_decode_ns_per_kib", dec / kib, "ns/KiB"});
    mr::ReduceScratch scratch;
    for (const auto& e : encoded) check(mr::DecodeSpillViews(e, &scratch.pairs), "DecodeSpillViews");
    std::size_t groups = 0;
    m.push_back({"mr.group_ns_per_pair", NsPerOp([&] {
                   mr::ForEachGroupViews(scratch, [&](std::string_view,
                                                      const std::vector<std::string_view>&) {
                     ++groups;
                     return true;
                   });
                   return scratch.pairs.size();
                 }),
                 "ns"});
    Keep(groups);
  }

  // DFS block reads, spill-sized replicated puts and raw calls, in process
  // and over loopback TCP.
  const Bytes spill_bytes =
      std::max<Bytes>(64, encoded.empty() ? 64 : encoded_bytes / encoded.size() / 8);
  const std::string file_data =
      sample.substr(0, std::min<std::size_t>(sample.size(), 64 * w.block_size));
  const std::string spill_data(spill_bytes, 's');
  const std::string payload(w.block_size, 'p');
  for (bool tcp : {false, true}) {
    std::unique_ptr<MiniDfs> tcp_dfs;
    if (tcp) tcp_dfs = std::make_unique<MiniDfs>(true, w.block_size);
    MiniDfs& d = tcp ? *tcp_dfs : inproc;
    const std::string suffix = tcp ? ".tcp" : ".inproc";
    auto s = span(tcp ? "dfs_net.tcp" : "dfs_net.inproc");
    check(d.client->Upload("probe", file_data), "Upload");
    auto meta = d.client->GetMetadata("probe");
    if (!meta.ok()) {
      check(meta.status(), "GetMetadata");
      continue;
    }
    std::uint64_t i = 0;
    m.push_back({"dfs.read_block_us" + suffix, MedianUs([&] {
                   check(d.client->ReadBlock(meta.value(), i++ % meta.value().num_blocks).status(),
                         "ReadBlock");
                 }),
                 "us"});
    std::uint64_t n = 0;
    m.push_back({"dfs.put_object_us" + suffix, MedianUs([&] {
                   const std::string id = "probe-spill-" + std::to_string(n++ % 64);
                   check(d.client->PutObject(id, KeyOf(id), spill_data,
                                             std::chrono::milliseconds(1000), 3),
                         "PutObject");
                 }),
                 "us"});
    const net::Message msg{kEchoType, payload};
    m.push_back({"net.call_us" + suffix, MedianUs([&] {
                   check(d.transport->Call(kClientId, kEchoId, msg).status(), "Transport::Call");
                 }),
                 "us"});
  }

  {
    auto s = span("sched.executor");
    sched::TaskExecutor::Options o;
    o.threads_per_shard = 4;
    sched::TaskExecutor executor(1, o);
    std::vector<double> us;
    for (int i = 0; i < 500; ++i) {
      auto t0 = Clock::now();
      auto body_start = executor.Submit(0, [] { return Clock::now(); }).get();
      us.push_back(std::chrono::duration<double, std::micro>(body_start - t0).count());
    }
    m.push_back({"sched.executor_handoff_us", Percentile(us, 0.5), "us"});
  }
  {
    auto s = span("sched.arbiter");
    sched::SlotArbiter arbiter;
    arbiter.AddWorker(0, 2, 2);
    m.push_back({"sched.arbiter_acquire_us", NsPerOp([&] {
                   for (int i = 0; i < 1000; ++i) {
                     check(arbiter.Acquire(0, sched::SlotKind::kMap, "u0"), "SlotArbiter::Acquire");
                     arbiter.Release(0, sched::SlotKind::kMap, "u0");
                   }
                   return 1000;
                 }) / 1e3,
                 "us"});
    // Contended: one slot, a holder and a waiter; time from the holder's
    // Release to the waiter's return from Acquire.
    arbiter.AddWorker(1, 1, 1);
    std::vector<double> us;
    for (int i = 0; i < 200; ++i) {
      check(arbiter.Acquire(1, sched::SlotKind::kMap, "holder"), "SlotArbiter::Acquire");
      std::promise<Clock::time_point> granted;
      Status waited;
      std::thread waiter([&] {
        waited = arbiter.Acquire(1, sched::SlotKind::kMap, "waiter");
        granted.set_value(Clock::now());
        arbiter.Release(1, sched::SlotKind::kMap, "waiter");
      });
      while (arbiter.Waiting() == 0) std::this_thread::yield();
      auto released = Clock::now();
      arbiter.Release(1, sched::SlotKind::kMap, "holder");
      auto at = granted.get_future().get();
      waiter.join();
      check(waited, "SlotArbiter::Acquire");
      us.push_back(std::chrono::duration<double, std::micro>(at - released).count());
    }
    m.push_back({"sched.arbiter_handoff_us", Percentile(us, 0.5), "us"});
  }
  {
    auto s = span("cache.get");
    cache::LruCache c(64_MiB);
    c.Put("blk", 1, std::string(w.block_size, 'd'), cache::EntryKind::kInput);
    std::size_t sink = 0;
    m.push_back({"cache.get_hit_ns", NsPerOp([&] {
                   for (int i = 0; i < 1000; ++i) {
                     auto v = c.Get("blk", cache::EntryKind::kInput);
                     sink += v ? v->size() : 0;
                   }
                   return 1000;
                 }),
                 "ns"});
    Keep(sink);
  }
  return ok;
}

}  // namespace jobbench
