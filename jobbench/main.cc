// Job-stream benchmark of the EclipseMR engine: seeded inputs, closed-loop
// job streams through the public Cluster API, an oracle check on every job
// output, end-to-end metrics from an untraced stream and per-layer metrics
// from a traced one. See README.md for the workloads and every metric.
//
//   jobbench --workload scan --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is the result JSON:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any job failed or differed from the oracle,
// when a worker process did not exit cleanly, or when a traced capture lost
// events.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/proc_fleet.h"
#include "apps/sort.h"
#include "apps/wordcount.h"
#include "common/rng.h"
#include "jobbench.h"
#include "mr/cluster.h"
#include "mr/deployment.h"
#include "obs/trace.h"
#include "workload/generators.h"

using namespace eclipse;

namespace jobbench {
namespace {

// Every job carries this deadline, so admission control quotes an ETA for
// it; it is generous enough that no healthy job is ever late, and the
// policy queues rather than rejects, so no job is refused.
constexpr std::chrono::milliseconds kDeadline{60'000};
// The engine never deletes a finished job's spills. Where a workload sets
// expire_spills, its spills expire after this long and the benchmark sweeps
// expired ones between rounds, so the resident set holds a couple of
// seconds' worth of spills however long the run; without that, scan and
// shuffle would outgrow memory. A job that outlived its spills would still
// be correct: the engine re-executes the maps whose spills its reducers
// cannot read. The tenants workloads keep every spill, as the engine does.
constexpr std::chrono::milliseconds kSpillTtl{2'000};
// Distinct corpora per run: inputs repeat content across rounds but every
// round ingests under a fresh name, so its first job finds an empty iCache.
constexpr int kCorpora = 2;
// Each tenant ingests a fresh input every kTenantJobsPerFile jobs, so its
// stream has cold jobs at all. A run needs about 30 of them: with job times
// spread by about a quarter of their median, the median of n of them varies
// from run to run by about 1.35 * 1.25 * 0.25 / sqrt(n), below a third of
// the 0.25 bound from n = 30 on. tenants_tcp completes about 355 jobs in
// 25 s on a calm 4-vCPU host, so 1 in 16 would leave it about 22 cold jobs
// and 1 in 8 leaves about 44; both tenants workloads use 8, so they differ
// only in transport. The uploads take about 0.3% (in process) and 2% (TCP)
// of the submitters' time; the run prints the share.
constexpr int kTenantJobsPerFile = 8;
constexpr int kSetupReps = 5;
constexpr int kIngestSamples = 16;
constexpr double kIngestSeconds = 1.0;
constexpr double kMaxTracedSeconds = 4;
constexpr int kInProcServers = 8;
constexpr int kWorkerProcs = 4;
constexpr Bytes kCachePerServer = 8_MiB;

std::vector<Workload> Workloads() {
  return {
      {"scan", false, 1, 8_MiB, 64_KiB, 2, true, false, 40},
      {"shuffle", true, 1, 4_MiB, 64_KiB, 2, true, false, 80},
      {"tenants", false, 4, 512_KiB, 4_KiB, kTenantJobsPerFile, false, false, 300},
      {"tenants_tcp", false, 4, 512_KiB, 4_KiB, kTenantJobsPerFile, false, true, 100},
  };
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;            // self-test size: small inputs, one setup
  bool corrupt_oracle = false;  // self-test: every timed job must then fail
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "jobbench: %s\nusage: jobbench --workload {scan|shuffle|tenants|tenants_tcp} "
               "--seed N --seconds S --trace {0|1} [--trace-out FILE] [--tiny] "
               "[--corrupt-oracle]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(value().c_str());
    } else if (k == "--trace") {
      a.trace = value() == "1";
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--tiny") {
      a.tiny = true;
    } else if (k == "--corrupt-oracle") {
      a.corrupt_oracle = true;
    } else {
      Usage(("unknown argument " + k).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  if (!(a.seconds > 0)) Usage("--seconds must be positive");
  return a;
}

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// CPU time of every thread of this process. Unlike wall time it leaves out
/// the time the threads waited for a CPU, so when other tenants of the host
/// are busy it grows only by their slowing of each instruction: about a
/// third to a half of what wall time grows by (README.md, Steadiness).
double ProcessCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

std::uint64_t NsSince(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
}

// ---- Timing decorators for the application functions (traced runs) -------
//
// They time the user function alone: the time spent inside the engine's
// Emit (routing, buffering, any spill it triggers) is measured and taken
// out. Each task reports its total as one "map_fn"/"reduce_fn" instant on
// the executor thread, inside the engine's map_task/reduce_task span.

template <typename Ctx>
class TimedContext : public Ctx {
 public:
  explicit TimedContext(Ctx& inner) : inner_(inner) {}
  void Emit(std::string_view key, std::string_view value) override {
    auto t0 = Clock::now();
    inner_.Emit(key, value);
    emit_ns += NsSince(t0);
  }
  std::uint64_t emit_ns = 0;

 protected:
  Ctx& inner_;
};

class TimedMapContext : public TimedContext<mr::MapContext> {
 public:
  using TimedContext::TimedContext;
  const std::string& shared_state() const override { return inner_.shared_state(); }
};

class TimedMapper : public mr::Mapper {
 public:
  explicit TimedMapper(std::unique_ptr<mr::Mapper> inner) : inner_(std::move(inner)) {}
  void Map(std::string_view record, mr::MapContext& ctx) override {
    TimedMapContext timed(ctx);
    auto t0 = Clock::now();
    inner_->Map(record, timed);
    fn_ns_ += NsSince(t0) - timed.emit_ns;
  }
  void Finish(mr::MapContext& ctx) override {
    TimedMapContext timed(ctx);
    auto t0 = Clock::now();
    inner_->Finish(timed);
    fn_ns_ += NsSince(t0) - timed.emit_ns;
    obs::Tracer::Global().Emit('i', "bench", "map_fn", kBenchPid, {obs::U64("ns", fn_ns_)});
  }

 private:
  std::unique_ptr<mr::Mapper> inner_;
  std::uint64_t fn_ns_ = 0;
};

class TimedReducer : public mr::Reducer {
 public:
  explicit TimedReducer(std::unique_ptr<mr::Reducer> inner) : inner_(std::move(inner)) {}
  // The engine destroys the reducer at the end of the reduce task, inside
  // its reduce_task span.
  ~TimedReducer() override {
    obs::Tracer::Global().Emit('i', "bench", "reduce_fn", kBenchPid, {obs::U64("ns", fn_ns_)});
  }
  void Reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::ReduceContext& ctx) override {
    TimedContext<mr::ReduceContext> timed(ctx);
    auto t0 = Clock::now();
    inner_->Reduce(key, values, timed);
    fn_ns_ += NsSince(t0) - timed.emit_ns;
  }

 private:
  std::unique_ptr<mr::Reducer> inner_;
  std::uint64_t fn_ns_ = 0;
};

mr::JobSpec MakeJob(const Workload& w, const char* phase, const std::string& file, int user,
                    bool timed) {
  std::string name = std::string(w.sort ? "sort-" : "wc-") + phase;
  mr::JobSpec spec = w.sort ? apps::SortJob(name, file) : apps::WordCountJob(name, file);
  spec.user = "u";
  spec.user += std::to_string(user);
  spec.deadline = kDeadline;
  spec.admission = mr::AdmissionPolicy::kQueueOnMiss;
  if (w.expire_spills) spec.intermediate_ttl = kSpillTtl;
  if (timed) {
    spec.mapper = [inner = spec.mapper] { return std::make_unique<TimedMapper>(inner()); };
    spec.reducer = [inner = spec.reducer] { return std::make_unique<TimedReducer>(inner()); };
  }
  return spec;
}

// ---- Inputs and the serial oracle ----------------------------------------

std::string MakeCorpus(const Workload& w, Bytes bytes, std::uint64_t seed) {
  Rng rng(seed);
  workload::TextOptions t;
  t.target_bytes = bytes;
  if (w.sort) {
    // Near-uniform keys over a large vocabulary: sort's first fields are
    // mostly distinct, so every record is its own reduce group.
    t.vocabulary = 1u << 20;
    t.zipf_s = 0.3;
  }
  return workload::GenerateText(rng, t);
}

std::vector<mr::KV> Oracle(const Workload& w, const std::string& text) {
  std::vector<mr::KV> out;
  if (w.sort) {
    for (const std::string& line : apps::SortSerial(text)) {
      std::size_t sp = line.find(' ');
      if (sp == std::string::npos) {
        out.push_back({line, ""});
      } else {
        out.push_back({line.substr(0, sp), line.substr(sp + 1)});
      }
    }
    // The job sorts the values of one key; SortSerial keeps input order.
    for (std::size_t i = 0; i < out.size();) {
      std::size_t j = i + 1;
      while (j < out.size() && out[j].key == out[i].key) ++j;
      std::sort(out.begin() + static_cast<std::ptrdiff_t>(i),
                out.begin() + static_cast<std::ptrdiff_t>(j),
                [](const mr::KV& a, const mr::KV& b) { return a.value < b.value; });
      i = j;
    }
  } else {
    for (const auto& [word, count] : apps::WordCountSerial(text)) {
      out.push_back({word, std::to_string(count)});
    }
  }
  return out;
}

// ---- One set-up cluster ---------------------------------------------------

struct Env {
  apps::ProcFleet fleet;
  std::shared_ptr<mr::DeploymentCoordinator> coordinator;
  std::unique_ptr<mr::Cluster> cluster;
  std::vector<std::string> corpora;
  std::vector<std::vector<mr::KV>> oracles;
  std::atomic<std::uint64_t> next_file{0};
};

/// Stops the cluster and, for the TCP workload, every worker process; false
/// if a worker did not exit with status 0.
bool Teardown(Env& env) {
  env.cluster.reset();
  if (!env.coordinator) return true;
  env.coordinator->ShutdownAll();
  bool clean = env.fleet.ExpectCleanExit();
  env.coordinator.reset();
  if (!clean) std::fprintf(stderr, "jobbench: a worker process did not exit cleanly\n");
  return clean;
}

/// Deletes expired spills on every in-process server (the engine keeps a
/// finished job's spills until their TTL passes and nothing sweeps them).
void SweepSpills(mr::Cluster& cluster) {
  for (int id : cluster.WorkerIds()) {
    mr::WorkerServer& w = cluster.worker(id);
    if (!w.remote()) w.dfs_node().blocks().Sweep();
  }
}

bool CheckOutput(const mr::JobResult& r, const std::vector<mr::KV>& oracle) {
  return r.status.ok() && r.output == oracle;
}

/// Everything before the first timed job: worker processes, cluster,
/// corpora, oracles, and one untimed round (upload, cold job, warm job)
/// through Cluster::Run. Returns false (after printing why) on failure.
bool Setup(Env& env, const Workload& w, const Args& args, const char* argv0) {
  const Bytes corpus_bytes = args.tiny ? w.corpus_bytes / 16 : w.corpus_bytes;
  mr::ClusterOptions options;
  options.num_servers = kInProcServers;
  options.block_size = w.block_size;
  options.cache_capacity = kCachePerServer;
  if (w.tcp) {
    // An OS-assigned bootstrap port: a fixed one can collide with a
    // loopback connection's ephemeral port left by an earlier run.
    mr::DeploymentOptions d;
    d.bootstrap_port = 0;
    d.cache_capacity = kCachePerServer;
    env.coordinator = std::make_shared<mr::DeploymentCoordinator>(d);
    const int port = env.coordinator->bootstrap_port();
    if (port < 0) {
      std::fprintf(stderr, "jobbench: cannot bind a bootstrap port\n");
      return false;
    }
    if (!env.fleet.Spawn(argv0, kWorkerProcs, port) ||
        !env.coordinator->WaitForWorkers(kWorkerProcs, 30'000)) {
      std::fprintf(stderr, "jobbench: worker processes did not register\n");
      return false;
    }
    options.deployment = env.coordinator;
  }
  env.cluster = std::make_unique<mr::Cluster>(options);
  for (int c = 0; c < kCorpora; ++c) {
    env.corpora.push_back(MakeCorpus(w, corpus_bytes, args.seed * 1000 + c));
    env.oracles.push_back(Oracle(w, env.corpora.back()));
  }
  const std::string file = "warmup";
  if (Status s = env.cluster->dfs().Upload(file, env.corpora[0]); !s.ok()) {
    std::fprintf(stderr, "jobbench: warm-up upload failed: %s\n", s.ToString().c_str());
    return false;
  }
  for (const char* phase : {"cold", "warm"}) {
    mr::JobResult r = env.cluster->Run(MakeJob(w, phase, file, 0, false));
    if (!CheckOutput(r, env.oracles[0])) {
      std::fprintf(stderr, "jobbench: warm-up %s job failed or differs from the oracle (%s)\n",
                   phase, r.status.ToString().c_str());
      return false;
    }
  }
  env.cluster->dfs().Delete(file);
  return true;
}

// ---- The timed stream -------------------------------------------------------

double PeakRssMiB() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

struct Stream {
  std::vector<JobRecord> jobs;
  std::vector<UploadRecord> uploads;
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time over the stream
  // Peak resident set once w.rss_after_jobs jobs completed; 0 if fewer did.
  double rss_mib = 0.0;
  bool upload_failed = false;
};

/// `submitters` closed loops, each: ingest a fresh input, run jobs_per_file
/// jobs on it (first cold, the rest warm), delete it; until `seconds` have
/// passed. A round's cold job always runs after its upload.
Stream RunStream(Env& env, const Workload& w, double seconds, bool traced) {
  Stream out;
  mr::Cluster& cluster = *env.cluster;
  std::vector<Stream> per(static_cast<std::size_t>(w.submitters));
  std::atomic<int> completed{0};
  std::atomic<double> rss_mib{0.0};
  const double cpu0 = ProcessCpuS();
  const auto t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int s = 0; s < w.submitters; ++s) {
    threads.emplace_back([&, s] {
      Stream& mine = per[static_cast<std::size_t>(s)];
      obs::Tracer& tracer = obs::Tracer::Global();
      for (int round = 0; Clock::now() < end; ++round) {
        const std::size_t c = static_cast<std::size_t>(s + round) % env.corpora.size();
        const std::string file = "in/" + std::to_string(env.next_file.fetch_add(1));
        {
          obs::TraceSpan span("bench", "upload", kBenchPid,
                              {obs::U64("bytes", env.corpora[c].size())});
          auto u0 = Clock::now();
          Status st = cluster.dfs().Upload(file, env.corpora[c]);
          if (!st.ok()) {
            std::fprintf(stderr, "jobbench: upload failed: %s\n", st.ToString().c_str());
            mine.upload_failed = true;
            return;
          }
          mine.uploads.push_back({MsSince(u0), env.corpora[c].size()});
        }
        for (int j = 0; j < w.jobs_per_file && (j == 0 || Clock::now() < end); ++j) {
          JobRecord rec;
          rec.cold = j == 0;
          obs::TraceSpan span("bench", "submit_wait", kBenchPid,
                              {obs::U64("cold", rec.cold ? 1 : 0)});
          rec.submit_us = traced ? tracer.NowUs() : 0;
          auto j0 = Clock::now();
          mr::JobHandle h =
              cluster.Submit(MakeJob(w, rec.cold ? "cold" : "warm", file, s, traced));
          span.AddArg(obs::U64("job", h.job_id()));
          mr::JobResult r = h.Wait();
          rec.ms = MsSince(j0);
          rec.job_id = r.job_id;
          rec.eta_us = r.eta_us;
          rec.stats = r.stats;
          rec.ok = CheckOutput(r, env.oracles[c]);
          if (!rec.ok) {
            std::fprintf(stderr, "jobbench: job %" PRIu64 " %s\n", r.job_id,
                         r.status.ok() ? "output differs from the oracle"
                                       : r.status.ToString().c_str());
          }
          mine.jobs.push_back(std::move(rec));
          if (completed.fetch_add(1) + 1 == w.rss_after_jobs) rss_mib = PeakRssMiB();
        }
        cluster.dfs().Delete(file);
        if (w.expire_spills) SweepSpills(cluster);
      }
    });
  }
  for (auto& t : threads) t.join();
  out.wall_s = MsSince(t0) / 1e3;
  out.cpu_s = ProcessCpuS() - cpu0;
  out.rss_mib = rss_mib;
  for (auto& p : per) {
    out.jobs.insert(out.jobs.end(), p.jobs.begin(), p.jobs.end());
    out.uploads.insert(out.uploads.end(), p.uploads.begin(), p.uploads.end());
    out.upload_failed |= p.upload_failed;
  }
  return out;
}

// ---- Metrics ----------------------------------------------------------------

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

std::vector<double> JobMs(const std::vector<JobRecord>& jobs, int cold /* -1: all */) {
  std::vector<double> v;
  for (const auto& j : jobs) {
    if (cold < 0 || j.cold == (cold == 1)) v.push_back(j.ms);
  }
  return v;
}

/// Mean of |actual completion - admission ETA| / ETA over the jobs that
/// were quoted one (the predictor needs a few completions of a job name).
double EtaError(const std::vector<JobRecord>& jobs) {
  double sum = 0;
  int n = 0;
  for (const auto& j : jobs) {
    if (j.eta_us == 0) continue;
    const double eta = static_cast<double>(j.eta_us);
    sum += std::fabs(j.ms * 1e3 - eta) / eta;
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

/// Median Upload throughput of fresh inputs written one after another on
/// the idle cluster, for kIngestSeconds and at least kIngestSamples inputs
/// (traced runs only). Even on the idle cluster, 4 KiB-block uploads in one
/// process run at one of two speeds that differ by about a third from one
/// process to the next, so this is a per-layer metric rather than a gated
/// end-to-end one.
double IngestMiBPerS(Env& env) {
  std::vector<double> rate;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; rate.size() < kIngestSamples || MsSince(t0) < kIngestSeconds * 1e3;
       ++i) {
    const std::string& data = env.corpora[i % env.corpora.size()];
    const std::string file = "in/" + std::to_string(env.next_file.fetch_add(1));
    auto u0 = Clock::now();
    if (!env.cluster->dfs().Upload(file, data).ok()) return 0.0;
    rate.push_back(static_cast<double>(data.size()) / (1 << 20) / (MsSince(u0) / 1e3));
    env.cluster->dfs().Delete(file);
  }
  return Median(rate);
}

/// The gated end-to-end metrics: what a job costs in CPU and memory. They
/// are counted in CPU time, not wall time: see README.md, Steadiness.
Metrics EndToEnd(const Stream& st, double setup_s) {
  const double jobs = static_cast<double>(std::max<std::size_t>(st.jobs.size(), 1));
  return {
      {"setup_s", setup_s, "s"},
      {"cpu_ms_per_job", st.cpu_s * 1e3 / jobs, "ms"},
      {"rss_mib", st.rss_mib > 0 ? st.rss_mib : PeakRssMiB(), "MiB"},
  };
}

/// The wall-clock job times of a stream. Not gated: on a shared host they
/// follow the host's load (README.md, Steadiness). Untraced runs print
/// them; traced runs report them, from their untraced part, as per-layer
/// metrics.
Metrics WallTimes(const Stream& st) {
  double input_mib = 0, job_s = 0;
  for (const auto& j : st.jobs) {
    input_mib += static_cast<double>(j.stats.input_bytes) / (1 << 20);
    job_s += j.ms / 1e3;
  }
  std::vector<double> all = JobMs(st.jobs, -1);
  return {
      {"wall.job_ms_p50", Percentile(all, 0.5), "ms"},
      {"wall.job_ms_p90", Percentile(all, 0.9), "ms"},
      {"wall.jobs_per_s", static_cast<double>(st.jobs.size()) / st.wall_s, "jobs/s"},
      {"wall.cold_ms_p50", Median(JobMs(st.jobs, 1)), "ms"},
      {"wall.warm_ms_p50", Median(JobMs(st.jobs, 0)), "ms"},
      {"wall.input_mib_per_s", job_s > 0 ? input_mib / job_s : 0.0, "MiB/s"},
  };
}

/// Per-call transport counters of the cluster (net.* series).
struct NetCounters {
  std::uint64_t calls = 0, bytes = 0, errors = 0;
};

NetCounters ReadNet(mr::Cluster& cluster) {
  NetCounters n;
  for (const char* label : {"inproc", "tcp"}) {
    MetricLabels l{{"transport", label}};
    n.calls += cluster.metrics().GetCounter("net.calls", l).value();
    n.bytes += cluster.metrics().GetCounter("net.bytes_sent", l).value() +
               cluster.metrics().GetCounter("net.bytes_received", l).value();
    n.errors += cluster.metrics().GetCounter("net.errors", l).value();
  }
  return n;
}

void PrintMetrics(const Metrics& m) {
  for (const auto& x : m) {
    std::printf("%-36s %16.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < m.size(); ++i) {
    double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m[i].name.c_str(), v, m[i].unit.c_str());
  }
  std::printf("}}\n");
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Workload w;
  bool found = false;
  for (const auto& c : Workloads()) {
    if (c.name == args.workload) {
      w = c;
      found = true;
    }
  }
  if (!found) Usage(("unknown workload " + args.workload).c_str());
  std::setvbuf(stdout, nullptr, _IOLBF, 0);

  // Set-up is repeated and its median reported; the last one is kept.
  const int reps = args.tiny ? 1 : kSetupReps;
  std::vector<double> setup_s;
  std::unique_ptr<Env> env;
  for (int rep = 0; rep < reps; ++rep) {
    env = std::make_unique<Env>();
    auto t0 = Clock::now();
    bool ok = Setup(*env, w, args, argv[0]);
    setup_s.push_back(MsSince(t0) / 1e3);
    if (!ok || rep + 1 < reps) {
      bool clean = Teardown(*env);
      if (!ok || !clean) return 1;
    }
  }
  if (args.corrupt_oracle) {
    for (auto& o : env->oracles) o.front().value += "x";
  }
  std::printf("workload %s seed %" PRIu64 ": %zu input bytes, %d submitter(s), %s\n",
              w.name.c_str(), args.seed, env->corpora[0].size(), w.submitters,
              w.tcp ? "4 worker processes over loopback TCP" : "8 in-process servers");

  Metrics metrics;
  Stream measured;
  std::string ungated;
  bool correct = true;
  if (!args.trace) {
    measured = RunStream(*env, w, args.seconds, false);
    metrics = EndToEnd(measured, Median(setup_s));
    // Measured too, but not steady enough from run to run to gate on; the
    // traced run reports them as per-layer metrics.
    Metrics wall = WallTimes(measured);
    wall.push_back({"sched.eta_error", EtaError(measured.jobs), "ratio"});
    for (const auto& m : wall) {
      char line[128];
      std::snprintf(line, sizeof line, "not gated: %s %.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      ungated += line;
    }
  } else {
    // Untraced, then traced for an equally long or shorter window: the
    // difference is the trace's overhead. The traced window is capped so
    // no thread's flight recorder wraps.
    const double traced_s = std::min(args.seconds / 2, kMaxTracedSeconds);
    Stream plain = RunStream(*env, w, args.seconds - traced_s, false);
    metrics = WallTimes(plain);
    const double ingest = IngestMiBPerS(*env);
    plain.upload_failed |= ingest == 0.0;
    metrics.push_back({"dfs.ingest_mib_per_s", ingest, "MiB/s"});
    obs::Tracer& tracer = obs::Tracer::Global();
    NetCounters net0 = ReadNet(*env->cluster);
    tracer.Start();
    measured = RunStream(*env, w, traced_s, true);
    NetCounters net1 = ReadNet(*env->cluster);
    const std::uint64_t probe_start = tracer.NowUs();
    correct &= RunProbes(w, env->corpora[0], &metrics);
    tracer.Stop();

    std::string report;
    AnalyzeTrace(measured.jobs, measured.uploads, probe_start, &metrics, &report);
    const double jobs = static_cast<double>(std::max<std::size_t>(measured.jobs.size(), 1));
    metrics.push_back({"net.calls_per_job", static_cast<double>(net1.calls - net0.calls) / jobs,
                       "calls"});
    metrics.push_back({"net.bytes_per_job", static_cast<double>(net1.bytes - net0.bytes) / jobs,
                       "bytes"});
    metrics.push_back({"net.call_errors", static_cast<double>(net1.errors - net0.errors),
                       "count"});
    metrics.push_back({"sched.eta_error", EtaError(measured.jobs), "ratio"});
    const double plain_p50 = Median(JobMs(plain.jobs, -1));
    const double traced_p50 = Median(JobMs(measured.jobs, -1));
    metrics.push_back({"obs.trace_overhead_frac",
                       plain_p50 > 0 ? traced_p50 / plain_p50 - 1.0 : 0.0, "ratio"});
    const std::uint64_t lost = tracer.overwritten_chunks();
    metrics.push_back({"obs.overwritten_chunks", static_cast<double>(lost), "count"});
    if (lost > 0) {
      std::fprintf(stderr, "jobbench: the trace lost %" PRIu64 " chunks of events\n", lost);
      correct = false;
    }
    std::fputs(report.c_str(), stdout);
    if (!args.trace_out.empty()) {
      if (Status s = tracer.WriteChromeTrace(args.trace_out); !s.ok()) {
        std::fprintf(stderr, "jobbench: cannot write trace: %s\n", s.ToString().c_str());
        correct = false;
      }
    }
    tracer.Clear();
    measured.upload_failed |= plain.upload_failed;
    measured.jobs.insert(measured.jobs.end(), plain.jobs.begin(), plain.jobs.end());
  }

  std::size_t failed = 0;
  for (const auto& j : measured.jobs) failed += j.ok ? 0 : 1;
  correct &= failed == 0 && !measured.upload_failed && !measured.jobs.empty();
  correct &= Teardown(*env);
  const std::vector<double> all_ms = JobMs(measured.jobs, -1);
  const double p90 = Percentile(all_ms, 0.9);
  std::uint64_t map_retries = 0;
  for (const auto& j : measured.jobs) map_retries += j.stats.map_retries;
  double upload_ms = 0;
  for (const auto& u : measured.uploads) upload_ms += u.ms;
  std::printf("jobs %zu (cold %zu, %td beyond p90, %" PRIu64 " map retries), failed %zu, "
              "failed_frac %.6f, stream %.3f s, %zu uploads taking %.2f%% of submitter time\n",
              measured.jobs.size(), JobMs(measured.jobs, 1).size(),
              std::count_if(all_ms.begin(), all_ms.end(), [p90](double v) { return v > p90; }),
              map_retries, failed,
              measured.jobs.empty() ? 0.0
                                    : static_cast<double>(failed) / measured.jobs.size(),
              measured.wall_s, measured.uploads.size(),
              100.0 * upload_ms / 1e3 / (measured.wall_s * w.submitters));
  std::fputs(ungated.c_str(), stdout);
  PrintMetrics(metrics);
  PrintResult(correct, std::max<std::size_t>(measured.jobs.size(), 1), failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace jobbench

int main(int argc, char** argv) {
  apps::MaybeRunFleetWorker(argc, argv);  // re-exec'd worker processes never return
  return jobbench::Main(argc, argv);
}
