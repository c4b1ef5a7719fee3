#include "mr/job_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <thread>

#include "common/log.h"
#include "mr/record_reader.h"
#include "net/retry.h"
#include "obs/trace.h"

namespace eclipse::mr {
namespace {

constexpr int kMaxAttemptsPerTask = 5;

/// Poll interval of the speculative collection loops. Short enough that
/// test-scale tasks (sub-millisecond) complete a wave without noticeable
/// idle time, long enough not to spin.
constexpr std::chrono::microseconds kSpecPollInterval{200};

net::Deadline TaskDeadline(const JobSpec& spec) {
  return spec.task_deadline.count() > 0
             ? net::Deadline::After(std::chrono::duration_cast<std::chrono::microseconds>(
                   spec.task_deadline))
             : net::Deadline::Never();
}

std::uint64_t ElapsedUs(std::chrono::steady_clock::time_point since,
                        std::chrono::steady_clock::time_point now) {
  auto us = std::chrono::duration_cast<std::chrono::microseconds>(now - since).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

/// MapContext bound to a ShuffleWriter (which copies the bytes into its
/// staging arena before Add returns).
class ShuffleMapContext : public MapContext {
 public:
  ShuffleMapContext(ShuffleWriter& shuffle, const std::string& shared_state)
      : shuffle_(shuffle), shared_state_(shared_state) {}

  void Emit(std::string_view key, std::string_view value) override {
    Status s = shuffle_.Add(key, value);
    if (!s.ok() && status_.ok()) status_ = s;
  }

  const std::string& shared_state() const override { return shared_state_; }
  const Status& status() const { return status_; }

 private:
  ShuffleWriter& shuffle_;
  const std::string& shared_state_;
  Status status_;
};

/// Reducer output escapes the task (into JobResult), so Emit owns a copy —
/// the one deliberate copy on the reduce side.
class VectorReduceContext : public ReduceContext {
 public:
  void Emit(std::string_view key, std::string_view value) override {
    output_.push_back(KV{std::string(key), std::string(value)});
  }
  std::vector<KV>& output() { return output_; }

 private:
  std::vector<KV> output_;
};

/// RAII guard pairing SlotArbiter::Acquire with its Release.
struct SlotLease {
  sched::SlotArbiter& arbiter;
  int worker;
  sched::SlotKind kind;
  const std::string& user;
  ~SlotLease() { arbiter.Release(worker, kind, user); }
};

}  // namespace

JobRunner::JobRunner(Cluster& cluster, const JobSpec& spec, std::uint64_t job_id,
                     std::shared_ptr<std::atomic<bool>> cancel)
    : cluster_(cluster),
      spec_(spec),
      job_id_(job_id),
      cancel_(std::move(cancel)),
      user_(spec.user.empty() ? cluster.options().user : spec.user) {}

JobResult JobRunner::Run() {
  JobResult result;
  result.job_id = job_id_;
  auto t0 = std::chrono::steady_clock::now();
  // One immutable epoch for the whole job (see the epoch_ member comment).
  epoch_ = cluster_.CurrentEpoch();
  obs::TraceSpan job_span("mr", "job", obs::kDriverPid,
                          {obs::U64("job", job_id_), obs::U64("epoch", epoch_->version)});
  if (JobCancelled()) {
    result.status = Status::Error(ErrorCode::kCancelled, "job cancelled before start");
    return result;
  }
  // Every exit from here on releases the job's private spills: once Run
  // returns, no reader of this job's spill scope is left.
  struct SpillReleaser {
    JobRunner& runner;
    ~SpillReleaser() { runner.ReleaseSpills(); }
  } releaser{*this};

  // Step 1-2 (Fig. 2): metadata from each input's file-metadata owner.
  std::vector<std::string> inputs{spec_.input_file};
  inputs.insert(inputs.end(), spec_.extra_inputs.begin(), spec_.extra_inputs.end());
  for (const auto& input : inputs) {
    auto meta = cluster_.dfs().GetMetadata(input);
    if (!meta.ok()) {
      result.status = meta.status();
      return result;
    }
    stats_.input_bytes += meta.value().size;
    metas_.push_back(std::move(meta.value()));
  }
  fs_ranges_ = epoch_->fs_ranges;

  // Step 3-5: map phase over every block of every input.
  std::vector<BlockRef> blocks;
  for (std::size_t f = 0; f < metas_.size(); ++f) {
    for (std::uint64_t i = 0; i < metas_[f].num_blocks; ++i) {
      blocks.push_back(BlockRef{f, i});
    }
  }
  Status map_status = RunMapPhase(blocks);
  if (JobCancelled()) {
    result.status = Status::Error(ErrorCode::kCancelled, "job cancelled during map phase");
    return result;
  }
  if (!map_status.ok()) {
    result.status = map_status;
    return result;
  }

  // Step 6: reduce where the intermediate results live. If a reduce finds
  // its spills died with a server (intermediates are not replicated by
  // default, §II-C), the producing maps are re-executed — their fresh
  // spills may land under the post-failure range table, so the whole reduce
  // plan is rebuilt from the authoritative spill set and retried.
  std::vector<KV> output;
  Status reduce_status;
  for (int phase_attempt = 0; phase_attempt < kMaxAttemptsPerTask; ++phase_attempt) {
    output.clear();
    reduce_status = RunReducePhase(&output);
    if (reduce_status.ok() || reduce_status.code() != ErrorCode::kNotFound) break;
  }
  if (JobCancelled()) {
    result.status =
        Status::Error(ErrorCode::kCancelled, "job cancelled during reduce phase");
    return result;
  }
  if (!reduce_status.ok()) {
    result.status = reduce_status;
    return result;
  }

  {
    obs::TraceSpan sort_span("mr", "sort", obs::kDriverPid);
    std::stable_sort(output.begin(), output.end(),
                     [](const KV& a, const KV& b) { return a.key < b.key; });
  }

  if (!spec_.output_file.empty()) {
    obs::TraceSpan upload_span("mr", "output_upload", obs::kDriverPid);
    std::string serialized;
    for (const auto& kv : output) {
      serialized += kv.key;
      serialized.push_back('\t');
      serialized += kv.value;
      serialized.push_back('\n');
    }
    cluster_.dfs().Delete(spec_.output_file);  // replace semantics
    Status s = cluster_.dfs().Upload(spec_.output_file, serialized);
    if (!s.ok()) {
      result.status = Status::Error(s.code(), "output write failed: " + s.message());
      return result;
    }
    stats_.output_bytes = serialized.size();
  }

  result.output = std::move(output);
  stats_.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  result.stats = stats_;
  result.status = Status::Ok();

  // Whole-job history for admission control: the next Submit of this job
  // name predicts its completion from runs like this one.
  cluster_.predictor().Record(spec_.name, sched::PredictPhase::kJob,
                              stats_.input_bytes,
                              static_cast<std::uint64_t>(stats_.wall_seconds * 1e6));

  auto& metrics = cluster_.metrics();
  // Per-user series beside the unlabeled cluster-wide totals. Nothing here
  // is labeled by job: a per-job series would grow the registry by one
  // entry per job forever; the trace's `job` arg attributes tasks instead.
  metrics.GetHistogram("mr.job_wall_us_by_user", {{"user", user_}})
      .Record(static_cast<std::uint64_t>(stats_.wall_seconds * 1e6));
  metrics.GetCounter("mr.jobs_by_user", {{"user", user_}}).Add();
  metrics.GetCounter("mr.jobs_completed").Add();
  metrics.GetCounter("mr.map_tasks").Add(stats_.map_tasks);
  metrics.GetCounter("mr.maps_skipped").Add(stats_.maps_skipped);
  metrics.GetCounter("mr.map_retries").Add(stats_.map_retries);
  metrics.GetCounter("mr.maps_speculated").Add(stats_.maps_speculated);
  metrics.GetCounter("mr.reduces_speculated").Add(stats_.reduces_speculated);
  metrics.GetCounter("mr.speculative_wins").Add(stats_.speculative_wins);
  metrics.GetCounter("mr.reduce_tasks").Add(stats_.reduce_tasks);
  metrics.GetCounter("mr.spills").Add(stats_.spills);
  metrics.GetCounter("mr.bytes_spilled").Add(stats_.bytes_spilled);
  metrics.GetCounter("mr.icache_hits").Add(stats_.icache_hits);
  metrics.GetCounter("mr.icache_misses").Add(stats_.icache_misses);
  metrics.GetCounter("mr.ocache_hits").Add(stats_.ocache_hits);
  metrics.GetCounter("mr.ocache_misses").Add(stats_.ocache_misses);
  metrics.GetCounter("mr.map_tasks_by_locality", {{"locality", "memory"}})
      .Add(stats_.maps_memory);
  metrics.GetCounter("mr.map_tasks_by_locality", {{"locality", "local_disk"}})
      .Add(stats_.maps_local_disk);
  metrics.GetCounter("mr.map_tasks_by_locality", {{"locality", "remote_disk"}})
      .Add(stats_.maps_remote_disk);
  metrics.GetCounter("mr.map_tasks_by_locality", {{"locality", "skipped"}})
      .Add(stats_.maps_skipped);
  metrics.GetHistogram("mr.job_wall_us")
      .Record(static_cast<std::uint64_t>(stats_.wall_seconds * 1e6));
  job_span.AddArg(obs::U64("maps", stats_.map_tasks));
  job_span.AddArg(obs::U64("reduces", stats_.reduce_tasks));
  return result;
}

Status JobRunner::RunReducePhase(std::vector<KV>* output) {
  return spec_.speculative_execution ? RunReducePhaseSpeculative(output)
                                     : RunReducePhaseSequential(output);
}

void JobRunner::ReleaseSpills() {
  // Tagged intermediates stay: every spill in spills_ was fully written and
  // its manifest is independently valid, so a later job with the same tag
  // reuses them (§II-C). Untagged spills are private to this job_id — no
  // other job can ever reference them, so delete them from the DHT FS. They
  // were never put in the oCache (RunReduceTask), so nothing is evicted.
  if (!spec_.intermediate_tag.empty()) return;
  std::map<std::string, SpillInfo> doomed;
  {
    MutexLock lock(state_mu_);
    doomed.swap(spills_);
    // Ledger ids may repeat across attempts and alias live spills.
    for (auto& info : orphan_spills_) doomed.try_emplace(info.id, std::move(info));
    spill_block_.clear();
    orphan_spills_.clear();
  }
  if (doomed.empty()) return;
  auto t0 = std::chrono::steady_clock::now();
  std::vector<dfs::DfsClient::ObjectRef> objects;
  objects.reserve(doomed.size());
  for (const auto& [id, info] : doomed) objects.push_back({id, info.range_begin});
  cluster_.dfs().DeleteObjects(objects);  // one request per owning server
  obs::Tracer::Global().Emit(
      'i', "mr", "spill_release", obs::kDriverPid,
      {obs::U64("job", job_id_), obs::U64("spills_deleted", doomed.size()),
       obs::U64("cancelled", JobCancelled() ? 1 : 0),
       obs::U64("us", ElapsedUs(t0, std::chrono::steady_clock::now()))});
}

Status JobRunner::RunReducePhaseSequential(std::vector<KV>* output) {
  obs::TraceSpan phase_span("mr", "reduce_phase", obs::kDriverPid,
                            {obs::U64("job", job_id_)});
  std::map<HashKey, std::vector<SpillInfo>> by_range;
  {
    MutexLock lock(state_mu_);
    for (const auto& [id, info] : spills_) by_range[info.range_begin].push_back(info);
  }

  for (auto& [range_begin, group] : by_range) {
    if (JobCancelled()) {
      return Status::Error(ErrorCode::kCancelled, "job cancelled during reduce phase");
    }
    Bytes group_bytes = 0;
    for (const auto& info : group) group_bytes += info.bytes;
    ReduceOutcome outcome;
    for (int attempt = 0; attempt < kMaxAttemptsPerTask; ++attempt) {
      int target = cluster_.ring().Owner(range_begin);
      if (target < 0) return Status::Error(ErrorCode::kUnavailable, "no servers left");
      WorkerServer& w = cluster_.worker(target);
      auto start = std::chrono::steady_clock::now();
      auto fut = w.Submit([this, &w, &group] { return RunReduceTask(w, group); });
      outcome = fut.get();
      if (outcome.status.ok()) {
        cluster_.predictor().Record(spec_.name, sched::PredictPhase::kReduce,
                                    group_bytes,
                                    ElapsedUs(start, std::chrono::steady_clock::now()));
        break;
      }

      if (!outcome.missing_spills.empty()) {
        // Re-run the producers with reuse disabled; their spills re-enter
        // spills_ under the current range table. The caller rebuilds the
        // reduce plan, so propagate NotFound after the re-run.
        std::vector<BlockRef> rerun;
        {
          MutexLock lock(state_mu_);
          for (const auto& id : outcome.missing_spills) {
            auto it = spill_block_.find(id);
            if (it != spill_block_.end()) rerun.push_back(it->second);
          }
        }
        std::sort(rerun.begin(), rerun.end());
        rerun.erase(std::unique(rerun.begin(), rerun.end()), rerun.end());
        LOG_INFO << "reduce lost " << outcome.missing_spills.size() << " spills; re-running "
                 << rerun.size() << " map tasks";
        Status s = RunMapPhase(rerun, /*force_recompute=*/true);
        return s.ok() ? outcome.status : s;
      }
      // Unavailable target: the ring has changed; next attempt re-resolves.
    }
    if (!outcome.status.ok()) return outcome.status;
    ++stats_.reduce_tasks;
    stats_.ocache_hits += outcome.ocache_hits;
    stats_.ocache_misses += outcome.ocache_misses;
    output->insert(output->end(), std::make_move_iterator(outcome.output.begin()),
                   std::make_move_iterator(outcome.output.end()));
  }
  return Status::Ok();
}

Status JobRunner::RunReducePhaseSpeculative(std::vector<KV>* output) {
  obs::TraceSpan phase_span("mr", "reduce_phase", obs::kDriverPid,
                            {obs::U64("job", job_id_)});
  std::map<HashKey, std::vector<SpillInfo>> by_range;
  {
    MutexLock lock(state_mu_);
    for (const auto& [id, info] : spills_) by_range[info.range_begin].push_back(info);
  }

  struct Attempt {
    int server = -1;
    bool backup = false;
    bool done = false;
    std::shared_ptr<std::atomic<bool>> cancel;
    std::chrono::steady_clock::time_point start;
    std::future<ReduceOutcome> fut;
  };
  struct Task {
    HashKey range_begin = 0;
    const std::vector<SpillInfo>* group = nullptr;  // node-stable: by_range is a std::map
    Bytes group_bytes = 0;  // summed spill payload (predictor size bucket)
    int tries = 0;          // primary (re)launches, counted against kMaxAttemptsPerTask
    bool has_backup = false;
    bool resolved = false;  // a successful outcome has been taken
    bool concluded = false;  // no further launches for this task
    ReduceOutcome outcome;  // the winner when resolved, else the last real failure
    std::vector<Attempt> attempts;
  };

  fault::StragglerOptions sopts;
  sopts.percentile = spec_.straggler_percentile;
  sopts.multiplier = spec_.straggler_multiplier;
  sopts.min_completed = spec_.speculation_min_completed;
  sopts.deviation_multiplier = spec_.straggler_deviation;
  fault::StragglerDetector detector(sopts);
  std::vector<Task> tasks;  // std::map iteration order == ascending range order
  tasks.reserve(by_range.size());
  Bytes total_group_bytes = 0;
  for (auto& [range_begin, group] : by_range) {
    Task t;
    t.range_begin = range_begin;
    t.group = &group;
    for (const auto& info : group) t.group_bytes += info.bytes;
    total_group_bytes += t.group_bytes;
    tasks.push_back(std::move(t));
  }
  if (spec_.predictor_speculation && !tasks.empty()) {
    // Deviation mode for reduces: anchor at the predicted duration of an
    // average-sized spill group from this job name's history.
    if (auto p = cluster_.predictor().Predict(spec_.name, sched::PredictPhase::kReduce,
                                              total_group_bytes / tasks.size())) {
      detector.SetPredictedUs(p->mean_us);
    }
  }

  Status fatal = Status::Ok();
  auto launch = [&](Task& t, int server, bool backup) {
    Attempt a;
    a.server = server;
    a.backup = backup;
    a.cancel = std::make_shared<std::atomic<bool>>(false);
    a.start = std::chrono::steady_clock::now();
    WorkerServer& w = cluster_.worker(server);
    const std::vector<SpillInfo>* group = t.group;
    auto cancel = a.cancel;
    a.fut = w.Submit([this, &w, group, cancel] { return RunReduceTask(w, *group, cancel); },
                     a.cancel);
    t.attempts.push_back(std::move(a));
  };

  for (auto& t : tasks) {
    int target = fatal.ok() ? cluster_.ring().Owner(t.range_begin) : -1;
    if (target < 0) {
      if (fatal.ok()) fatal = Status::Error(ErrorCode::kUnavailable, "no servers left");
      t.concluded = true;
      continue;
    }
    ++t.tries;
    launch(t, target, /*backup=*/false);
  }

  // Drain every attempt before returning anything — outstanding futures
  // reference this JobRunner and the group vectors. Losers get their cancel
  // token set the moment a sibling wins, so the join is short.
  for (;;) {
    bool all_done = true;
    bool progress = false;
    auto now = std::chrono::steady_clock::now();
    for (auto& t : tasks) {
      bool attempts_done = true;
      for (auto& a : t.attempts) {
        if (a.done) continue;
        if (a.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
          attempts_done = false;
          continue;
        }
        a.done = true;
        progress = true;
        ReduceOutcome o = a.fut.get();
        if (o.status.ok() && !t.resolved) {
          t.resolved = true;
          detector.Record(ElapsedUs(a.start, now));
          cluster_.predictor().Record(spec_.name, sched::PredictPhase::kReduce,
                                      t.group_bytes, ElapsedUs(a.start, now));
          if (a.backup) {
            ++stats_.speculative_wins;
            obs::Tracer::Global().Emit(
                'i', "mr", "speculative_win", obs::kDriverPid,
                {obs::Str("task", "reduce"),
                 obs::U64("server", static_cast<std::uint64_t>(a.server))});
          }
          bool flipped = false;
          for (auto& other : t.attempts) {
            if (!other.done && other.cancel) {
              other.cancel->store(true);
              flipped = true;
            }
          }
          // Targeted arbiter wakeups mean nobody re-checks tokens on an
          // unrelated release: a loser blocked in Acquire must be poked.
          if (flipped) cluster_.arbiter().Poke();
          t.outcome = std::move(o);
        } else if (!t.resolved) {
          // Remember the most informative failure: a kCancelled from a loser
          // never shadows a real error.
          if (o.status.code() != ErrorCode::kCancelled || t.outcome.status.ok()) {
            t.outcome = std::move(o);
          }
        }
      }
      if (!attempts_done) {
        all_done = false;
      } else if (!t.concluded) {
        if (t.resolved || !fatal.ok()) {
          t.concluded = true;
        } else if (!t.outcome.missing_spills.empty()) {
          t.concluded = true;  // producers re-run after the drain
        } else if (t.outcome.status.code() == ErrorCode::kCancelled && JobCancelled()) {
          // Job-level cancellation is terminal — never relaunched.
          fatal = t.outcome.status;
          t.concluded = true;
        } else if (t.tries >= kMaxAttemptsPerTask) {
          fatal = t.outcome.status;
          t.concluded = true;
        } else {
          // Unavailable target: the ring has changed; re-resolve the owner.
          int target = cluster_.ring().Owner(t.range_begin);
          if (target < 0) {
            fatal = Status::Error(ErrorCode::kUnavailable, "no servers left");
            t.concluded = true;
          } else {
            ++t.tries;
            t.has_backup = false;
            launch(t, target, /*backup=*/false);
            all_done = false;
          }
        }
      }
      // LATE-style speculation: one backup per running attempt generation,
      // placed on a different live server, triggered when the attempt's
      // elapsed time exceeds the completed-duration percentile threshold.
      if (!t.concluded && !t.resolved && !t.has_backup && !t.attempts.empty()) {
        Attempt& running = t.attempts.back();
        if (!running.done && detector.IsStraggler(ElapsedUs(running.start, now))) {
          int backup = PickBackupServer(running.server, sched::SlotKind::kReduce);
          if (backup >= 0) {
            t.has_backup = true;
            ++stats_.reduces_speculated;
            obs::Tracer::Global().Emit(
                'i', "mr", "speculate", obs::kDriverPid,
                {obs::Str("task", "reduce"),
                 obs::U64("server", static_cast<std::uint64_t>(backup))});
            launch(t, backup, /*backup=*/true);
            all_done = false;
          }
        }
      }
    }
    if (all_done) break;
    if (!progress) std::this_thread::sleep_for(kSpecPollInterval);
  }

  if (!fatal.ok()) return fatal;

  // Lost-spill handling mirrors the sequential phase: re-run the producers
  // of every missing spill (union across tasks) with reuse disabled, then
  // hand NotFound back so the caller rebuilds the whole reduce plan.
  Status missing_status = Status::Ok();
  std::vector<BlockRef> rerun;
  std::size_t missing_count = 0;
  {
    MutexLock lock(state_mu_);
    for (const auto& t : tasks) {
      if (t.resolved || t.outcome.missing_spills.empty()) continue;
      missing_status = t.outcome.status;
      missing_count += t.outcome.missing_spills.size();
      for (const auto& id : t.outcome.missing_spills) {
        auto it = spill_block_.find(id);
        if (it != spill_block_.end()) rerun.push_back(it->second);
      }
    }
  }
  if (!missing_status.ok()) {
    std::sort(rerun.begin(), rerun.end());
    rerun.erase(std::unique(rerun.begin(), rerun.end()), rerun.end());
    LOG_INFO << "reduce lost " << missing_count << " spills; re-running " << rerun.size()
             << " map tasks";
    Status s = RunMapPhase(rerun, /*force_recompute=*/true);
    return s.ok() ? missing_status : s;
  }

  for (auto& t : tasks) {  // ascending range order: deterministic output
    ++stats_.reduce_tasks;
    stats_.ocache_hits += t.outcome.ocache_hits;
    stats_.ocache_misses += t.outcome.ocache_misses;
    output->insert(output->end(), std::make_move_iterator(t.outcome.output.begin()),
                   std::make_move_iterator(t.outcome.output.end()));
  }
  return Status::Ok();
}

Status JobRunner::RunMapPhase(const std::vector<BlockRef>& blocks,
                              bool force_recompute) {
  struct Pending {
    BlockRef ref;
    int attempts = 0;
  };
  std::vector<Pending> queue;
  queue.reserve(blocks.size());
  for (auto b : blocks) queue.push_back(Pending{b, 0});

  const bool speculate = spec_.speculative_execution;
  // Persists across waves: retry waves inherit the duration population.
  fault::StragglerOptions sopts;
  sopts.percentile = spec_.straggler_percentile;
  sopts.multiplier = spec_.straggler_multiplier;
  sopts.min_completed = spec_.speculation_min_completed;
  sopts.deviation_multiplier = spec_.straggler_deviation;
  fault::StragglerDetector detector(sopts);
  // Typical per-task input: one block. Drives both the deviation-mode
  // anchor (below) and the size bucket completions are recorded under.
  const Bytes map_task_bytes = cluster_.options().block_size;
  if (speculate && spec_.predictor_speculation) {
    // Deviation mode: anchor the threshold at history from previous jobs of
    // this name, so even the first wave of a warm job can be caught. Cold
    // predictor → no SetPredictedUs → percentile fallback.
    if (auto p = cluster_.predictor().Predict(spec_.name, sched::PredictPhase::kMap,
                                              map_task_bytes)) {
      detector.SetPredictedUs(p->mean_us);
    }
  }

  while (!queue.empty()) {
    if (JobCancelled()) {
      return Status::Error(ErrorCode::kCancelled, "job cancelled during map phase");
    }
    obs::TraceSpan wave_span("mr", "map_phase", obs::kDriverPid,
                             {obs::U64("tasks", queue.size()), obs::U64("job", job_id_)});
    struct Attempt {
      int server = -1;
      bool backup = false;
      bool done = false;
      std::shared_ptr<std::atomic<bool>> cancel;  // null when speculation is off
      std::chrono::steady_clock::time_point start;
      std::future<MapOutcome> fut;
    };
    struct Task {
      BlockRef ref;
      int prior_attempts = 0;
      bool resolved = false;  // a successful outcome has been taken
      MapOutcome outcome;     // the winner when resolved, else the last real failure
      std::vector<Attempt> attempts;
    };

    auto launch = [&](Task& t, int server, bool backup) {
      Attempt a;
      a.server = server;
      a.backup = backup;
      a.cancel = speculate ? std::make_shared<std::atomic<bool>>(false) : nullptr;
      a.start = std::chrono::steady_clock::now();
      WorkerServer& w = cluster_.worker(server);
      BlockRef ref = t.ref;
      auto cancel = a.cancel;
      a.fut = w.Submit(
          [this, &w, ref, force_recompute, cancel] {
            return RunMapTask(w, ref, force_recompute, cancel);
          },
          a.cancel);
      t.attempts.push_back(std::move(a));
    };

    std::vector<Task> tasks;
    tasks.reserve(queue.size());
    Status dispatch_error = Status::Ok();
    for (auto& p : queue) {
      HashKey hkey = metas_[p.ref.file].KeyOfBlock(p.ref.block);
      int server = PickMapServer(hkey);
      if (server < 0) {
        // Drain the attempts already dispatched before reporting — they
        // reference this JobRunner.
        dispatch_error = Status::Error(ErrorCode::kUnavailable, "no servers left");
        break;
      }
      obs::Tracer::Global().Emit('i', "sched", "sched_assign", obs::kDriverPid,
                                 {obs::U64("block", p.ref.block),
                                  obs::U64("server", static_cast<std::uint64_t>(server)),
                                  obs::U64("job", job_id_)});
      Task t;
      t.ref = p.ref;
      t.prior_attempts = p.attempts;
      tasks.push_back(std::move(t));
      launch(tasks.back(), server, /*backup=*/false);
    }
    queue.clear();

    if (!speculate) {
      for (auto& t : tasks) {
        t.outcome = t.attempts[0].fut.get();
        t.attempts[0].done = true;
        t.resolved = t.outcome.status.ok();
        if (t.resolved && !t.outcome.skipped) {
          cluster_.predictor().Record(
              spec_.name, sched::PredictPhase::kMap, map_task_bytes,
              ElapsedUs(t.attempts[0].start, std::chrono::steady_clock::now()));
        }
      }
    } else {
      // Poll until every attempt (originals and backups) has been joined;
      // launch at most one backup per straggling task, first completion wins.
      for (;;) {
        bool all_done = true;
        bool progress = false;
        auto now = std::chrono::steady_clock::now();
        for (auto& t : tasks) {
          for (auto& a : t.attempts) {
            if (a.done) continue;
            if (a.fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
              all_done = false;
              continue;
            }
            a.done = true;
            progress = true;
            MapOutcome o = a.fut.get();
            if (o.status.ok() && !t.resolved) {
              t.resolved = true;
              detector.Record(ElapsedUs(a.start, now));
              if (!o.skipped) {
                cluster_.predictor().Record(spec_.name, sched::PredictPhase::kMap,
                                            map_task_bytes, ElapsedUs(a.start, now));
              }
              if (a.backup) {
                ++stats_.speculative_wins;
                obs::Tracer::Global().Emit(
                    'i', "mr", "speculative_win", obs::kDriverPid,
                    {obs::Str("task", "map"), obs::U64("block", t.ref.block),
                     obs::U64("server", static_cast<std::uint64_t>(a.server))});
              }
              bool flipped = false;
              for (auto& other : t.attempts) {
                if (!other.done && other.cancel) {
                  other.cancel->store(true);
                  flipped = true;
                }
              }
              // See the reduce phase: losers blocked in Acquire need a poke
              // now that releases signal only their own grantee.
              if (flipped) cluster_.arbiter().Poke();
              t.outcome = std::move(o);
            } else if (!t.resolved) {
              // A kCancelled from a loser never shadows a real error.
              if (o.status.code() != ErrorCode::kCancelled || t.outcome.status.ok()) {
                t.outcome = std::move(o);
              }
            }
          }
          if (!t.resolved && t.attempts.size() == 1 && !t.attempts[0].done &&
              detector.IsStraggler(ElapsedUs(t.attempts[0].start, now))) {
            int backup = PickBackupServer(t.attempts[0].server, sched::SlotKind::kMap);
            if (backup >= 0) {
              ++stats_.maps_speculated;
              obs::Tracer::Global().Emit(
                  'i', "mr", "speculate", obs::kDriverPid,
                  {obs::Str("task", "map"), obs::U64("block", t.ref.block),
                   obs::U64("server", static_cast<std::uint64_t>(backup))});
              launch(t, backup, /*backup=*/true);
              all_done = false;
            }
          }
        }
        if (all_done) break;
        if (!progress) std::this_thread::sleep_for(kSpecPollInterval);
      }
    }

    if (!dispatch_error.ok()) return dispatch_error;

    {
      // Failed attempts may have pushed partial spills into the DHT FS
      // before they stopped; ledger them all *before* the loop below can
      // return on the first cancelled task, so cancellation cleanup sees
      // every orphan.
      MutexLock lock(state_mu_);
      for (auto& t : tasks) {
        if (t.resolved) continue;
        for (auto& info : t.outcome.spills) orphan_spills_.push_back(std::move(info));
      }
    }
    for (auto& t : tasks) {
      if (!t.resolved) {
        const Status& failure = t.outcome.status;
        if (failure.code() == ErrorCode::kCancelled && JobCancelled()) {
          return failure;  // job-level cancellation is terminal, not retried
        }
        if (t.prior_attempts + 1 >= kMaxAttemptsPerTask) {
          return Status::Error(failure.code(),
                               "map task for block " + std::to_string(t.ref.block) +
                                   " of input " + std::to_string(t.ref.file) +
                                   " failed repeatedly: " + failure.message());
        }
        ++stats_.map_retries;
        queue.push_back(Pending{t.ref, t.prior_attempts + 1});
        continue;
      }
      MapOutcome& outcome = t.outcome;
      ++stats_.map_tasks;
      if (outcome.skipped) ++stats_.maps_skipped;
      if (outcome.icache_hit) {
        ++stats_.icache_hits;
      } else if (!outcome.skipped) {
        ++stats_.icache_misses;
      }
      if (std::strcmp(outcome.locality, "memory") == 0) {
        ++stats_.maps_memory;
      } else if (std::strcmp(outcome.locality, "local_disk") == 0) {
        ++stats_.maps_local_disk;
      } else if (std::strcmp(outcome.locality, "remote_disk") == 0) {
        ++stats_.maps_remote_disk;
      }
      MutexLock lock(state_mu_);
      if (force_recompute) {
        // Drop the block's previous (possibly manifest-derived, possibly
        // stale-range) spills: the fresh execution is authoritative.
        // The dropped entries go to the orphan ledger, so ReleaseSpills
        // still deletes any copy that outlived the failure.
        for (auto it = spill_block_.begin(); it != spill_block_.end();) {
          if (it->second == t.ref) {
            if (auto sp = spills_.find(it->first); sp != spills_.end()) {
              orphan_spills_.push_back(std::move(sp->second));
              spills_.erase(sp);
            }
            it = spill_block_.erase(it);
          } else {
            ++it;
          }
        }
      }
      for (auto& info : outcome.spills) {
        stats_.bytes_spilled += info.bytes;
        ++stats_.spills;
        spill_block_[info.id] = t.ref;
        spills_[info.id] = std::move(info);
      }
    }
  }
  return Status::Ok();
}

int JobRunner::PickMapServer(HashKey hkey) {
  if (cluster_.options().scheduler == SchedulerKind::kLaf) {
    // The epoch's scheduler is internally locked; no cluster lock involved.
    int server = epoch_->laf->Assign(hkey);
    if (!cluster_.worker(server).dead()) return server;
  } else {
    // Delay scheduling (§II-F): wait up to the timeout for a slot on the
    // static range owner, then give up locality and take any idle server.
    // The wait budget is this local deadline — per task attempt, per job —
    // so concurrent jobs cannot consume each other's budgets.
    const sched::DelayScheduler& delay = *epoch_->delay;
    sched::SlotArbiter& arbiter = cluster_.arbiter();
    int preferred = delay.Preferred(hkey);
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(delay.options().wait_timeout_sec));
    for (;;) {
      if (!cluster_.worker(preferred).dead() &&
          arbiter.FreeSlots(preferred, sched::SlotKind::kMap) > 0) {
        epoch_->delay->RecordAssignment(preferred);
        return preferred;
      }
      if (JobCancelled()) break;  // dispatch anyway; the task fails kCancelled fast
      if (std::chrono::steady_clock::now() >= deadline) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::vector<int> free_slots;
    const auto& servers = delay.servers();
    free_slots.reserve(servers.size());
    for (int s : servers) {
      free_slots.push_back(
          cluster_.worker(s).dead() ? 0 : arbiter.FreeSlots(s, sched::SlotKind::kMap));
    }
    int fallback = delay.Fallback(free_slots);
    int chosen = fallback >= 0 ? fallback : preferred;
    if (cluster_.worker(chosen).dead()) chosen = -1;
    if (chosen >= 0) {
      // The locality wait expired: the task runs off its preferred server.
      obs::Tracer::Global().Emit(
          'i', "sched", "delay_fallback", obs::kDriverPid,
          {obs::U64("preferred", static_cast<std::uint64_t>(preferred)),
           obs::U64("chosen", static_cast<std::uint64_t>(chosen)),
           obs::U64("job", job_id_)});
      epoch_->delay->RecordAssignment(chosen);
      return chosen;
    }
  }
  // Scheduler pointed at a dead server: fall back to the live ring owner.
  int owner = cluster_.ring().Owner(hkey);
  return owner;
}

int JobRunner::PickBackupServer(int avoid, sched::SlotKind kind) {
  int best = -1;
  int best_slots = -1;
  for (int id : cluster_.WorkerIds()) {
    if (id == avoid) continue;
    WorkerServer& w = cluster_.worker(id);
    if (w.dead()) continue;
    int slots = cluster_.arbiter().FreeSlots(id, kind);
    if (slots > best_slots) {
      best = id;
      best_slots = slots;
    }
  }
  return best;
}

JobRunner::MapOutcome JobRunner::RunMapTask(WorkerServer& w, BlockRef ref,
                                            bool force_recompute,
                                            std::shared_ptr<std::atomic<bool>> cancel) {
  MapOutcome out;
  // The shared slot gate: block here (not in the pool queue) until this
  // job's fair share of the worker's map slots admits the attempt. The
  // wait aborts on job cancellation, attempt cancellation, or worker
  // removal — each surfaces as the matching task status.
  sched::SlotArbiter& arbiter = cluster_.arbiter();
  Status slot = arbiter.Acquire(w.id(), sched::SlotKind::kMap, user_, cancel_.get(),
                                cancel ? cancel.get() : nullptr);
  if (!slot.ok()) {
    out.status = slot;
    return out;
  }
  SlotLease lease{arbiter, w.id(), sched::SlotKind::kMap, user_};
  // Every RPC this attempt makes (cache fetches, DHT-FS reads, spill
  // pushes) sees this cutoff through CurrentDeadline().
  net::ScopedDeadline task_deadline(TaskDeadline(spec_));
  obs::TraceSpan task_span("mr", "map_task", w.id(),
                           {obs::U64("file", ref.file), obs::U64("block", ref.block),
                            obs::U64("job", job_id_)});
  auto task_t0 = std::chrono::steady_clock::now();
  // Close the span with the outcome's classification whatever exit path the
  // task takes; also feed the per-locality latency histogram.
  struct SpanCloser {
    obs::TraceSpan& span;
    MapOutcome& out;
    JobRunner& runner;
    std::chrono::steady_clock::time_point t0;
    ~SpanCloser() {
      span.AddArg(obs::Str("locality", out.locality));
      span.AddArg(obs::U64("bytes", out.input_bytes));
      auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      runner.cluster_.metrics()
          .GetHistogram("mr.map_task_us", {{"locality", out.locality}})
          .Record(static_cast<std::uint64_t>(us));
    }
  } closer{task_span, out, *this, task_t0};
  if (w.dead()) {
    out.status = Status::Error(ErrorCode::kUnavailable, "worker died");
    return out;
  }
  const dfs::FileMetadata& meta_ = metas_[ref.file];
  const std::uint64_t block = ref.block;

  const std::string tag = spec_.intermediate_tag;
  // Untagged jobs get a job_id-namespaced scope: two concurrent submissions
  // with the same JobSpec::name used to share deterministic spill ids, and
  // first-writer-wins corrupted the loser's reduce input. Tagged scopes stay
  // name-stable on purpose — cross-job §II-C reuse looks manifests up by tag.
  const std::string spill_scope =
      !tag.empty() ? tag : "j" + std::to_string(job_id_) + "/" + spec_.name;
  const std::string manifest_id = ManifestId(spill_scope, meta_.name, block);
  const HashKey manifest_key = KeyOf(manifest_id);

  // §II-C reuse: tagged intermediates let the map skip computation. The
  // cached manifest is consumed through its handle — no copy on hit.
  if (!tag.empty() && !force_recompute) {
    cache::CacheValue manifest_data = w.CacheGet(manifest_id, cache::EntryKind::kOutput);
    if (!manifest_data) {
      if (auto obj = w.dfs().GetObject(manifest_id, manifest_key); obj.ok()) {
        manifest_data = std::make_shared<const std::string>(std::move(obj.value()));
      }
    }
    if (manifest_data) {
      if (auto man = DecodeManifest(*manifest_data); man.ok()) {
        out.spills = man.value();
        out.skipped = true;
        out.status = Status::Ok();
        return out;
      }
    }
  }

  // Input through iCache; miss falls through to the DHT FS (Fig. 2 step 4).
  // A hit hands back a refcounted handle to the cached block — no copy —
  // and on a miss the freshly read block is shared with the cache, not
  // duplicated into it. The handle keeps the bytes alive for the whole map
  // even if the entry is evicted mid-task.
  const std::string block_id = dfs::BlockId(meta_.name, block);
  const HashKey block_key = meta_.KeyOfBlock(block);
  cache::CacheValue data = w.CacheGet(block_id, cache::EntryKind::kInput);
  if (data) {
    out.icache_hit = true;
    out.locality = "memory";
  } else {
    int served_by = -1;
    auto read = w.dfs().ReadBlock(meta_, block, &served_by);
    if (!read.ok()) {
      out.status = read.status();
      return out;
    }
    out.locality = served_by == w.id() ? "local_disk" : "remote_disk";
    data = std::make_shared<const std::string>(std::move(read.value()));
    if (spec_.cache_input) {
      w.CachePut(block_id, block_key, data, cache::EntryKind::kInput);
    }
  }
  out.input_bytes = data->size();

  // Per-thread extraction buffers: executor threads are long-lived, so the
  // record-view vector's capacity and the boundary-tail arena's blocks warm
  // once and are reused by every map task this thread runs. Interior record
  // views alias the pinned block (`data` holds it for the whole task).
  static thread_local std::vector<std::string_view> records;
  static thread_local Arena record_arena;
  records.clear();
  record_arena.Reset();
  Status rec_status = ExtractRecordViews(
      meta_, block, spec_.record_delim, *data,
      [&](std::uint64_t j) { return w.dfs().ReadBlock(meta_, j); },
      [&](std::uint64_t j, Bytes off, Bytes len) {
        return w.dfs().ReadBlockRange(meta_, j, off, len);
      },
      record_arena, &records);
  if (!rec_status.ok()) {
    out.status = rec_status;
    return out;
  }

  // Proactive shuffle: spill per-range buffers while mapping (§II-D).
  const std::string prefix = "im/" + spill_scope + "/" + meta_.name + "/b" +
                             std::to_string(block);
  ShuffleWriter shuffle(prefix, fs_ranges_, w.dfs(), spec_.spill_threshold,
                        spec_.intermediate_ttl, job_id_);
  ShuffleMapContext ctx(shuffle, spec_.shared_state);
  auto mapper = spec_.mapper();
  // Every exit below reports shuffle.spills(): threshold-crossing Adds have
  // already pushed objects into the DHT FS, so even a failed or cancelled
  // attempt must surface them — the phase records failed attempts' spills in
  // the cleanup ledger so a cancelled job leaves no orphans behind.
  for (std::string_view record : records) {
    mapper->Map(record, ctx);
    if (w.dead()) {
      out.spills = shuffle.spills();
      out.status = Status::Error(ErrorCode::kUnavailable, "worker died mid-map");
      return out;
    }
    if (cancel && cancel->load(std::memory_order_relaxed)) {
      out.spills = shuffle.spills();
      out.status = Status::Error(ErrorCode::kCancelled, "duplicate map attempt lost the race");
      return out;
    }
    if (JobCancelled()) {
      out.spills = shuffle.spills();
      out.status = Status::Error(ErrorCode::kCancelled, "job cancelled mid-map");
      return out;
    }
  }
  mapper->Finish(ctx);
  if (!ctx.status().ok()) {
    out.spills = shuffle.spills();
    out.status = ctx.status();
    return out;
  }
  if (Status s = shuffle.Flush(); !s.ok()) {
    out.spills = shuffle.spills();
    out.status = s;
    return out;
  }
  out.spills = shuffle.spills();

  if (!tag.empty()) {
    auto manifest_data = std::make_shared<const std::string>(EncodeManifest(out.spills));
    w.dfs().PutObject(manifest_id, manifest_key, *manifest_data, spec_.intermediate_ttl);
    w.CachePut(manifest_id, manifest_key, std::move(manifest_data),
               cache::EntryKind::kOutput);
  }
  out.status = Status::Ok();
  return out;
}

JobRunner::ReduceOutcome JobRunner::RunReduceTask(WorkerServer& w,
                                                  const std::vector<SpillInfo>& spills,
                                                  std::shared_ptr<std::atomic<bool>> cancel) {
  ReduceOutcome out;
  sched::SlotArbiter& arbiter = cluster_.arbiter();
  Status slot = arbiter.Acquire(w.id(), sched::SlotKind::kReduce, user_, cancel_.get(),
                                cancel ? cancel.get() : nullptr);
  if (!slot.ok()) {
    out.status = slot;
    return out;
  }
  SlotLease lease{arbiter, w.id(), sched::SlotKind::kReduce, user_};
  net::ScopedDeadline task_deadline(TaskDeadline(spec_));
  obs::TraceSpan task_span("mr", "reduce_task", w.id(),
                           {obs::U64("spills", spills.size()), obs::U64("job", job_id_)});
  auto task_t0 = std::chrono::steady_clock::now();
  struct SpanCloser {
    obs::TraceSpan& span;
    ReduceOutcome& out;
    JobRunner& runner;
    std::chrono::steady_clock::time_point t0;
    ~SpanCloser() {
      span.AddArg(obs::U64("ocache_hits", out.ocache_hits));
      span.AddArg(obs::U64("ocache_misses", out.ocache_misses));
      auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
      runner.cluster_.metrics().GetHistogram("mr.reduce_task_us").Record(
          static_cast<std::uint64_t>(us));
    }
  } closer{task_span, out, *this, task_t0};
  if (w.dead()) {
    out.status = Status::Error(ErrorCode::kUnavailable, "worker died");
    return out;
  }

  // Flat zero-copy grouping: decode every spill into one view vector (the
  // payloads stay pinned — cache handles for oCache hits, `payloads` for
  // fresh fetches — so the views stay valid), index-sort once, then walk
  // the key runs. The scratch is per executor thread: its vectors' capacity
  // survives across tasks, so a steady-state reduce allocates nothing while
  // decoding and grouping (asserted by test_alloc_gate).
  static thread_local ReduceScratch scratch;
  scratch.Clear();
  std::uint64_t expected_pairs = 0;
  for (const auto& spill : spills) expected_pairs += spill.pairs;
  scratch.pairs.reserve(expected_pairs);
  std::vector<cache::CacheValue> payloads;  // pins every decoded payload
  payloads.reserve(spills.size());
  for (const auto& spill : spills) {
    if (cancel && cancel->load(std::memory_order_relaxed)) {
      out.status =
          Status::Error(ErrorCode::kCancelled, "duplicate reduce attempt lost the race");
      return out;
    }
    if (JobCancelled()) {
      out.status = Status::Error(ErrorCode::kCancelled, "job cancelled mid-reduce");
      return out;
    }
    cache::CacheValue data = w.CacheGet(spill.id, cache::EntryKind::kOutput);
    if (data) {
      ++out.ocache_hits;
    } else {
      auto obj = w.dfs().GetObject(spill.id, spill.range_begin);
      if (!obj.ok()) {
        out.missing_spills.push_back(spill.id);
        continue;
      }
      ++out.ocache_misses;
      data = std::make_shared<const std::string>(std::move(obj.value()));
      // Only tagged spills can hit again once this job returns; an untagged
      // one would hold oCache budget until evicted and is deleted at exit.
      if (spec_.cache_intermediates && !spec_.intermediate_tag.empty()) {
        w.CachePut(spill.id, spill.range_begin, data, cache::EntryKind::kOutput);
      }
    }
    if (Status s = DecodeSpillViews(*data, &scratch.pairs); !s.ok()) {
      out.status = s;
      return out;
    }
    payloads.push_back(std::move(data));
  }
  if (!out.missing_spills.empty()) {
    out.status = Status::Error(ErrorCode::kNotFound, "spills lost with their server");
    return out;
  }

  VectorReduceContext ctx;
  auto reducer = spec_.reducer();
  bool completed = ForEachGroupViews(
      scratch, [&](std::string_view key, const std::vector<std::string_view>& values) {
        reducer->Reduce(key, values, ctx);
        if (w.dead()) {
          out.status = Status::Error(ErrorCode::kUnavailable, "worker died mid-reduce");
          return false;
        }
        if (cancel && cancel->load(std::memory_order_relaxed)) {
          out.status =
              Status::Error(ErrorCode::kCancelled, "duplicate reduce attempt lost the race");
          return false;
        }
        if (JobCancelled()) {
          out.status = Status::Error(ErrorCode::kCancelled, "job cancelled mid-reduce");
          return false;
        }
        return true;
      });
  if (!completed) return out;
  out.output = std::move(ctx.output());
  out.status = Status::Ok();
  return out;
}

JobResult Cluster::Run(const JobSpec& spec) {
  JobRunner runner(*this, spec, Cluster::NextJobId());
  return runner.Run();
}

}  // namespace eclipse::mr
