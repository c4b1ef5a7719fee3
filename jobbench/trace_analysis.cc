// Per-layer metrics from one traced stream. Inputs are the engine's own
// spans and instants (job, map_phase, map_task, spill, reduce_phase,
// reduce_task, sort, remote_fetch, job_submit, sched_assign, block_serve,
// block_put), the benchmark's spans around its own calls (upload,
// submit_wait) and the map_fn/reduce_fn instants of the timing decorators.
//
// Spans are rebuilt from B/E pairs per (pid, tid) track; the span open on
// the same track when another begins is its parent. A layer's self time is
// its span's duration minus what its children (and the wrapped user
// function, which reports from inside the task span on the same thread)
// cover.
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <map>
#include <unordered_map>

#include "jobbench.h"
#include "obs/trace.h"

namespace jobbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

namespace {

using eclipse::obs::TraceEvent;

bool Is(const char* a, const char* b) { return a != nullptr && std::strcmp(a, b) == 0; }

const eclipse::obs::TraceArg* FindArg(const TraceEvent& e, const char* key) {
  for (std::size_t i = 0; i < e.nargs; ++i) {
    if (Is(e.args[i].key, key)) return &e.args[i];
  }
  return nullptr;
}

struct Span {
  const TraceEvent* b = nullptr;
  const TraceEvent* e = nullptr;
  int parent = -1;
  std::uint64_t start = 0, end = 0;

  std::uint64_t dur() const { return end - start; }
  const eclipse::obs::TraceArg* arg(const char* key) const {
    const auto* a = FindArg(*e, key);
    return a != nullptr ? a : FindArg(*b, key);
  }
  std::uint64_t u(const char* key, std::uint64_t def = 0) const {
    const auto* a = arg(key);
    return a != nullptr && a->sval == nullptr ? a->uval : def;
  }
  const char* s(const char* key) const {
    const auto* a = arg(key);
    return a != nullptr ? a->sval : nullptr;
  }
};

std::uint64_t Key(std::uint64_t job, std::uint64_t block) { return job << 32 | block; }

/// Index of the span in `sorted` (by start, non-overlapping per thread)
/// containing time `ts`, or -1.
int Containing(const std::vector<int>& sorted, const std::vector<Span>& spans,
               std::uint64_t ts) {
  auto it = std::upper_bound(sorted.begin(), sorted.end(), ts,
                             [&](std::uint64_t t, int i) { return t < spans[i].start; });
  if (it == sorted.begin()) return -1;
  int i = *(it - 1);
  return spans[i].end >= ts ? i : -1;
}

/// What the trace says about one job (times in µs).
struct JobAgg {
  double job_ms = 0;
  bool cold = false;
  bool has_span = false;
  double queue_wait = 0, job_span = 0, map_phase = 0, reduce_phase = 0, sort = 0, wake = 0;
  double map_fn = 0, reduce_fn = 0, map_self = 0, reduce_self = 0, spill = 0;
  std::vector<double> dispatch, map_task;

  double other() const { return job_span - map_phase - reduce_phase - sort; }
};

double MedianOf(const std::vector<JobAgg*>& jobs, double (*f)(const JobAgg&)) {
  std::vector<double> v;
  for (const JobAgg* j : jobs) v.push_back(f(*j));
  return Percentile(std::move(v), 0.5);
}

}  // namespace

void AnalyzeTrace(const std::vector<JobRecord>& jobs, const std::vector<UploadRecord>& uploads,
                  std::uint64_t window_end_us, Metrics* out, std::string* report) {
  const std::vector<TraceEvent> events = eclipse::obs::Tracer::Global().Snapshot();

  // ---- Rebuild spans; collect the instants ----
  std::vector<Span> spans;
  std::map<std::pair<int, std::uint32_t>, std::vector<int>> open;
  std::vector<const TraceEvent*> instants;
  for (const TraceEvent& ev : events) {
    if (ev.ts_us >= window_end_us) break;
    if (ev.phase == 'i') {
      instants.push_back(&ev);
    } else if (ev.phase == 'B') {
      auto& stack = open[{ev.pid, ev.tid}];
      Span s;
      s.b = &ev;
      s.start = ev.ts_us;
      s.parent = stack.empty() ? -1 : stack.back();
      stack.push_back(static_cast<int>(spans.size()));
      spans.push_back(s);
    } else if (ev.phase == 'E') {
      auto& stack = open[{ev.pid, ev.tid}];
      if (stack.empty() || !Is(spans[stack.back()].b->name, ev.name)) continue;
      spans[stack.back()].e = &ev;
      spans[stack.back()].end = ev.ts_us;
      stack.pop_back();
    }
  }

  std::unordered_map<std::uint64_t, JobAgg> by_job;
  for (const JobRecord& r : jobs) {
    JobAgg& a = by_job[r.job_id];
    a.job_ms = r.ms;
    a.cold = r.cold;
  }
  auto agg = [&](std::uint64_t job) -> JobAgg* {
    auto it = by_job.find(job);
    return it == by_job.end() ? nullptr : &it->second;
  };
  // Queue wait starts at the engine's job_submit instant; the return of
  // Wait is measured from the benchmark's own timestamp before Submit.
  std::unordered_map<std::uint64_t, std::uint64_t> submit_ts, submit_instant;
  for (const JobRecord& r : jobs) submit_ts[r.job_id] = r.submit_us;
  for (const TraceEvent* ev : instants) {
    if (Is(ev->name, "job_submit")) submit_instant[FindArg(*ev, "job")->uval] = ev->ts_us;
  }

  std::map<std::uint32_t, std::vector<int>> map_tasks_by_tid, reduce_tasks_by_tid,
      uploads_by_tid;
  std::unordered_map<std::uint64_t, int> map_task_of;  // (job, block) -> first attempt
  std::unordered_map<int, double> map_fn_ns, reduce_fn_ns, spill_us_in;
  std::map<std::string, std::vector<double>> by_locality;
  std::vector<double> spill_us, remote_fetch_us;
  for (int i = 0; i < static_cast<int>(spans.size()); ++i) {
    Span& s = spans[i];
    if (s.e == nullptr) continue;  // still open at the window's end
    const char* name = s.b->name;
    if (Is(name, "map_task")) {
      map_tasks_by_tid[s.b->tid].push_back(i);
      map_task_of.emplace(Key(s.u("job"), s.u("block")), i);
      if (const char* loc = s.s("locality")) {
        by_locality[loc].push_back(static_cast<double>(s.dur()));
      }
    } else if (Is(name, "reduce_task")) {
      reduce_tasks_by_tid[s.b->tid].push_back(i);
    } else if (Is(name, "upload") && s.b->pid == kBenchPid) {
      uploads_by_tid[s.b->tid].push_back(i);
    } else if (Is(name, "spill")) {
      spill_us.push_back(static_cast<double>(s.dur()));
      if (s.parent >= 0 && Is(spans[s.parent].b->name, "map_task")) {
        spill_us_in[s.parent] += static_cast<double>(s.dur());
      }
    } else if (Is(name, "remote_fetch")) {
      remote_fetch_us.push_back(static_cast<double>(s.dur()));
    } else if (Is(name, "job")) {
      if (JobAgg* a = agg(s.u("job"))) {
        a->has_span = true;
        a->job_span = static_cast<double>(s.dur());
        const std::uint64_t job = s.u("job");
        auto queued = submit_instant.find(job);
        a->queue_wait = static_cast<double>(s.start) -
                        static_cast<double>(queued != submit_instant.end() ? queued->second
                                                                           : submit_ts[job]);
        a->wake = static_cast<double>(submit_ts[job]) + a->job_ms * 1e3 -
                  static_cast<double>(s.end);
      }
    } else if (Is(name, "map_phase")) {
      if (JobAgg* a = agg(s.u("job"))) a->map_phase += static_cast<double>(s.dur());
    } else if (Is(name, "reduce_phase")) {
      if (JobAgg* a = agg(s.u("job"))) a->reduce_phase += static_cast<double>(s.dur());
    } else if (Is(name, "sort") && s.parent >= 0) {
      if (JobAgg* a = agg(spans[s.parent].u("job"))) a->sort += static_cast<double>(s.dur());
    }
  }

  std::uint64_t block_serves = 0, block_puts = 0;
  for (const TraceEvent* ev : instants) {
    if (Is(ev->name, "map_fn") || Is(ev->name, "reduce_fn")) {
      const bool map = Is(ev->name, "map_fn");
      auto& tasks = map ? map_tasks_by_tid[ev->tid] : reduce_tasks_by_tid[ev->tid];
      int t = Containing(tasks, spans, ev->ts_us);
      if (t >= 0) {
        (map ? map_fn_ns : reduce_fn_ns)[t] += static_cast<double>(FindArg(*ev, "ns")->uval);
      }
    } else if (Is(ev->name, "sched_assign")) {
      auto it = map_task_of.find(Key(FindArg(*ev, "job")->uval, FindArg(*ev, "block")->uval));
      JobAgg* a = agg(FindArg(*ev, "job")->uval);
      if (it != map_task_of.end() && a != nullptr) {
        a->dispatch.push_back(static_cast<double>(spans[it->second].start) -
                              static_cast<double>(ev->ts_us));
      }
    } else if (Is(ev->name, "block_serve")) {
      ++block_serves;
    } else if (Is(ev->name, "block_put")) {
      // Writes made by the benchmark's own uploads are ingest, not job work.
      if (Containing(uploads_by_tid[ev->tid], spans, ev->ts_us) < 0) ++block_puts;
    }
  }

  // ---- Per-task self times, folded into their jobs ----
  std::vector<double> map_self, reduce_self;
  for (auto& [tid, tasks] : map_tasks_by_tid) {
    for (int t : tasks) {
      const double fn = map_fn_ns[t] / 1e3, sp = spill_us_in[t];
      const double self = static_cast<double>(spans[t].dur()) - fn - sp;
      map_self.push_back(self);
      if (JobAgg* a = agg(spans[t].u("job"))) {
        a->map_fn += fn;
        a->spill += sp;
        a->map_self += self;
        a->map_task.push_back(static_cast<double>(spans[t].dur()));
      }
    }
  }
  for (auto& [tid, tasks] : reduce_tasks_by_tid) {
    for (int t : tasks) {
      const double fn = reduce_fn_ns[t] / 1e3;
      const double self = static_cast<double>(spans[t].dur()) - fn;
      reduce_self.push_back(self);
      if (JobAgg* a = agg(spans[t].u("job"))) {
        a->reduce_fn += fn;
        a->reduce_self += self;
      }
    }
  }

  std::vector<JobAgg*> traced;
  std::vector<double> all_dispatch;
  for (auto& [id, a] : by_job) {
    if (!a.has_span) continue;
    traced.push_back(&a);
    all_dispatch.insert(all_dispatch.end(), a.dispatch.begin(), a.dispatch.end());
  }
  std::uint64_t icache_hits = 0, icache_total = 0, ocache_hits = 0, ocache_total = 0;
  std::uint64_t spills = 0;
  double spilled = 0, input = 0;
  for (const JobRecord& r : jobs) {
    icache_hits += r.stats.icache_hits;
    icache_total += r.stats.icache_hits + r.stats.icache_misses;
    ocache_hits += r.stats.ocache_hits;
    ocache_total += r.stats.ocache_hits + r.stats.ocache_misses;
    spills += r.stats.spills;
    spilled += static_cast<double>(r.stats.bytes_spilled);
    input += static_cast<double>(r.stats.input_bytes);
  }
  double upload_ms = 0, upload_mib = 0;
  for (const UploadRecord& u : uploads) {
    upload_ms += u.ms;
    upload_mib += static_cast<double>(u.bytes) / (1 << 20);
  }
  const double njobs = static_cast<double>(std::max<std::size_t>(jobs.size(), 1));
  auto frac = [](double a, double b) { return b > 0 ? a / b : 0.0; };

  Metrics& m = *out;
  m.push_back({"apps.map_fn_ms",
               MedianOf(traced, [](const JobAgg& a) { return a.map_fn / 1e3; }), "ms"});
  m.push_back({"apps.reduce_fn_ms",
               MedianOf(traced, [](const JobAgg& a) { return a.reduce_fn / 1e3; }), "ms"});
  for (const char* loc : {"memory", "local_disk", "remote_disk"}) {
    m.push_back({std::string("mr.map_task_us_p50.") + loc, Percentile(by_locality[loc], 0.5),
                 "us"});
  }
  m.push_back({"mr.map_self_us_p50", Percentile(map_self, 0.5), "us"});
  m.push_back({"mr.spill_us_p50", Percentile(spill_us, 0.5), "us"});
  m.push_back({"mr.spills_per_job", static_cast<double>(spills) / njobs, "count"});
  m.push_back({"mr.shuffle_bytes_per_input_byte", frac(spilled, input), "ratio"});
  m.push_back({"mr.reduce_self_us_p50", Percentile(reduce_self, 0.5), "us"});
  m.push_back({"mr.map_phase_ms",
               MedianOf(traced, [](const JobAgg& a) { return a.map_phase / 1e3; }), "ms"});
  m.push_back({"mr.reduce_phase_ms",
               MedianOf(traced, [](const JobAgg& a) { return a.reduce_phase / 1e3; }), "ms"});
  m.push_back({"mr.sort_ms", MedianOf(traced, [](const JobAgg& a) { return a.sort / 1e3; }),
               "ms"});
  m.push_back({"sched.queue_wait_ms_p50",
               MedianOf(traced, [](const JobAgg& a) { return a.queue_wait / 1e3; }), "ms"});
  m.push_back({"sched.dispatch_wait_us_p50", Percentile(all_dispatch, 0.5), "us"});
  m.push_back({"sched.dispatch_wait_us_p90", Percentile(all_dispatch, 0.9), "us"});
  m.push_back({"cache.icache_hit_frac", frac(icache_hits, icache_total), "ratio"});
  m.push_back({"cache.ocache_hit_frac", frac(ocache_hits, ocache_total), "ratio"});
  m.push_back({"cache.remote_fetch_us_p50", Percentile(remote_fetch_us, 0.5), "us"});
  m.push_back({"dfs.upload_ms_per_mib", frac(upload_ms, upload_mib), "ms/MiB"});
  m.push_back({"dfs.block_serves_per_job", static_cast<double>(block_serves) / njobs, "count"});
  m.push_back({"dfs.block_puts_per_job", static_cast<double>(block_puts) / njobs, "count"});

  // ---- Slow half vs fast half, split at the median job time ----
  std::sort(traced.begin(), traced.end(),
            [](const JobAgg* a, const JobAgg* b) { return a->job_ms < b->job_ms; });
  const std::size_t half = traced.size() / 2;
  std::vector<JobAgg*> fast(traced.begin(), traced.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<JobAgg*> slow(traced.end() - static_cast<std::ptrdiff_t>(half), traced.end());
  struct Row {
    const char* name;
    double (*f)(const JobAgg&);
    bool additive;  // one of the terms that sum to job_ms
  };
  const Row rows[] = {
      {"job_ms", [](const JobAgg& a) { return a.job_ms; }, false},
      {"submit->job start (JobQueue wait)", [](const JobAgg& a) { return a.queue_wait / 1e3; },
       true},
      {"map phase", [](const JobAgg& a) { return a.map_phase / 1e3; }, true},
      {"reduce phase", [](const JobAgg& a) { return a.reduce_phase / 1e3; }, true},
      {"output sort", [](const JobAgg& a) { return a.sort / 1e3; }, true},
      {"rest of job span (metadata, epoch)", [](const JobAgg& a) { return a.other() / 1e3; },
       true},
      {"job end->Wait return", [](const JobAgg& a) { return a.wake / 1e3; }, true},
      {"  dispatch wait p50 (executor+SlotArbiter)",
       [](const JobAgg& a) { return Percentile(a.dispatch, 0.5) / 1e3; }, false},
      {"  dispatch wait max", [](const JobAgg& a) { return Percentile(a.dispatch, 1.0) / 1e3; },
       false},
      {"  map task p50", [](const JobAgg& a) { return Percentile(a.map_task, 0.5) / 1e3; },
       false},
      {"  map task max", [](const JobAgg& a) { return Percentile(a.map_task, 1.0) / 1e3; },
       false},
      {"  map self, summed over tasks", [](const JobAgg& a) { return a.map_self / 1e3; },
       false},
      {"  map_fn, summed over tasks", [](const JobAgg& a) { return a.map_fn / 1e3; }, false},
      {"  spill, summed over tasks", [](const JobAgg& a) { return a.spill / 1e3; }, false},
      {"  reduce self, summed over tasks", [](const JobAgg& a) { return a.reduce_self / 1e3; },
       false},
      {"  reduce_fn, summed over tasks", [](const JobAgg& a) { return a.reduce_fn / 1e3; },
       false},
  };
  std::string& rep = *report;
  char line[256];
  std::size_t slow_cold = 0, fast_cold = 0;
  for (const JobAgg* a : slow) slow_cold += a->cold ? 1 : 0;
  for (const JobAgg* a : fast) fast_cold += a->cold ? 1 : 0;
  std::snprintf(line, sizeof line,
                "slow half vs fast half of %zu traced jobs (split at the median job time; "
                "cold jobs: slow %zu, fast %zu), per-job medians in ms:\n",
                traced.size(), slow_cold, fast_cold);
  rep += line;
  std::snprintf(line, sizeof line, "  %-44s %10s %10s %10s\n", "", "slow", "fast", "gap");
  rep += line;
  // Name a layer only when it holds most of the gap and clearly more than
  // the runner-up (per-job medians of the terms need not add up exactly).
  double gap_total = 0;
  std::vector<std::pair<double, const char*>> gaps;
  for (const Row& r : rows) {
    const double s = MedianOf(slow, r.f), f = MedianOf(fast, r.f);
    std::snprintf(line, sizeof line, "  %-44s %10.3f %10.3f %10.3f\n", r.name, s, f, s - f);
    rep += line;
    if (&r == &rows[0]) gap_total = s - f;
    if (r.additive) gaps.emplace_back(s - f, r.name);
  }
  std::sort(gaps.rbegin(), gaps.rend());
  if (gap_total > 0 && gaps[0].first >= 0.5 * gap_total &&
      gaps[0].first >= 1.5 * gaps[1].first) {
    std::snprintf(line, sizeof line, "  the gap (%.3f ms) is mostly in: %s (%.3f ms, %.0f%%)\n",
                  gap_total, gaps[0].second, gaps[0].first, 100.0 * gaps[0].first / gap_total);
  } else {
    std::snprintf(line, sizeof line,
                  "  no single layer measured from outside accounts for the gap (%.3f ms); "
                  "largest: %s %.3f ms, %s %.3f ms\n",
                  gap_total, gaps[0].second, gaps[0].first, gaps[1].second, gaps[1].first);
  }
  rep += line;
  m.push_back({"split.slow_half_job_ms", MedianOf(slow, rows[0].f), "ms"});
  m.push_back({"split.fast_half_job_ms", MedianOf(fast, rows[0].f), "ms"});
}

}  // namespace jobbench
