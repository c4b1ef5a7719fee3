#include "mr/job_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <thread>

#include "common/log.h"
#include "fault/straggler.h"
#include "mr/record_reader.h"
#include "net/retry.h"
#include "obs/trace.h"

namespace eclipse::mr {
namespace {

constexpr int kMaxAttemptsPerTask = 5;

net::Deadline TaskDeadline(const JobSpec& spec) {
  return spec.task_deadline.count() > 0
             ? net::Deadline::After(std::chrono::duration_cast<std::chrono::microseconds>(
                   spec.task_deadline))
             : net::Deadline::Never();
}

fault::StragglerOptions StragglerOptionsOf(const JobSpec& spec) {
  fault::StragglerOptions o;
  o.percentile = spec.straggler_percentile;
  o.multiplier = spec.straggler_multiplier;
  o.min_completed = spec.speculation_min_completed;
  o.deviation_multiplier = spec.straggler_deviation;
  return o;
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

bool JobRunner::Interrupted(WorkerServer& w, const std::atomic<bool>& cancel,
                            Status* why) const {
  if (w.dead()) {
    *why = Status::Error(ErrorCode::kUnavailable, "worker died mid-task");
  } else if (cancel.load(std::memory_order_relaxed)) {
    *why = Status::Error(ErrorCode::kCancelled, "duplicate attempt lost the race");
  } else if (JobCancelled()) {
    *why = Status::Error(ErrorCode::kCancelled, "job cancelled mid-task");
  } else {
    return false;
  }
  return true;
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

/// The task-attempt engine of both phases. Add() one task per block or range
/// group, then Run(): one attempt per task is launched; a failed task is
/// relaunched in place on a re-resolved server, up to kMaxAttemptsPerTask
/// launches; with speculative_execution, a task whose running attempt
/// crosses the StragglerDetector threshold gets one backup on another server
/// (LATE-style). The first success wins: its sibling is cancelled and poked
/// out of any slot wait, and its outcome dropped. The driver sleeps until an
/// attempt completes or the next threshold crossing, never on a poll
/// interval.
///
/// Each attempt publishes its outcome into its own slot, then the slot into
/// done_, then signals the driver; outcomes, stats_, the predictor and the
/// detector are touched by the driver thread alone. The destructor waits for
/// every attempt's future, so no body outlives the set, or the JobRunner and
/// plan it references, on any exit path.
template <typename Outcome>
class JobRunner::AttemptSet {
 public:
  struct Phase {
    const char* name;  // "map" / "reduce": the speculation instants' `task` arg
    sched::SlotKind kind;
    sched::PredictPhase predict;
    std::uint64_t JobStats::*speculated;  // backups launched
    std::uint64_t JobStats::*retries;     // relaunches; null: not counted
    /// Primary server for task `i`, asked again on every relaunch; -1 when
    /// no server is left.
    std::function<int(std::size_t i)> place;
    /// The attempt body; runs on an executor thread holding a slot of `kind`.
    std::function<Outcome(WorkerServer&, std::size_t i, const std::atomic<bool>& cancel)> run;
  };

  struct Attempt {
    std::size_t task = 0;
    int server = -1;
    bool backup = false;
    bool collected = false;  // the driver has taken the outcome
    std::shared_ptr<std::atomic<bool>> cancel = std::make_shared<std::atomic<bool>>(false);
    std::chrono::steady_clock::time_point start, end;
    Outcome outcome;  // written by the body before it signals
    std::exception_ptr error;  // what user code threw, rethrown on the driver
    std::future<void> fut;
  };

  struct Task {
    obs::TraceArg label;  // names the task in instants and errors
    Bytes bytes = 0;      // predictor size bucket
    int launches = 0;     // primaries, counted against kMaxAttemptsPerTask
    Attempt* primary = nullptr;  // the current generation's attempts
    Attempt* backup = nullptr;
    bool resolved = false;  // `outcome` is the winner's
    Outcome outcome;        // the winner, else the most informative failure
  };

  AttemptSet(JobRunner& runner, Phase phase)
      : runner_(runner),
        phase_(std::move(phase)),
        speculate_(runner.spec_.speculative_execution),
        detector_(StragglerOptionsOf(runner.spec_)) {}

  ~AttemptSet() {
    for (Attempt& a : attempts_) a.fut.wait();
  }

  AttemptSet(const AttemptSet&) = delete;
  AttemptSet& operator=(const AttemptSet&) = delete;

  void Add(obs::TraceArg label, Bytes bytes) {
    Task& t = tasks_.emplace_back();
    t.label = label;
    t.bytes = bytes;
    total_bytes_ += bytes;
  }

  /// Runs every task to a winner or a fatal failure and joins every
  /// attempt. Returns the first fatal status. A reduce whose spills are lost
  /// is not retried: it ends unresolved with its `missing_spills`.
  Status Run() {
    if (speculate_ && runner_.spec_.predictor_speculation && !tasks_.empty()) {
      // Deviation mode: anchor the threshold at an average task's predicted
      // duration from earlier jobs of this name, so even the first attempts
      // of a warm job can be caught. Cold predictor: percentile fallback.
      if (auto p = runner_.cluster_.predictor().Predict(runner_.spec_.name, phase_.predict,
                                                        total_bytes_ / tasks_.size())) {
        detector_.SetPredictedUs(p->mean_us);
      }
    }
    for (std::size_t i = 0; i < tasks_.size() && fatal_.ok(); ++i) LaunchPrimary(i);
    auto wake = LaunchBackups();  // deviation mode may already have a threshold
    while (running_ > 0) {
      {
        MutexLock lock(mu_);
        while (done_.empty()) {
          if (wake == std::chrono::steady_clock::time_point::max()) {
            cv_.wait(lock);
          } else if (cv_.wait_until(lock, wake) == std::cv_status::timeout) {
            break;
          }
        }
        collecting_.swap(done_);
      }
      for (Attempt* a : collecting_) Collect(*a);
      collecting_.clear();
      wake = LaunchBackups();
    }
    return fatal_;
  }

  std::vector<Task>& tasks() { return tasks_; }

 private:
  static bool Skipped(const MapOutcome& o) { return o.skipped; }
  static bool Skipped(const ReduceOutcome&) { return false; }
  static bool LostSpills(const MapOutcome&) { return false; }
  static bool LostSpills(const ReduceOutcome& o) { return !o.missing_spills.empty(); }
  static bool Live(const Attempt* a) { return a != nullptr && !a->collected; }

  void LaunchPrimary(std::size_t i) {
    int server = phase_.place(i);
    if (server < 0) return Fail(Status::Error(ErrorCode::kUnavailable, "no servers left"));
    Task& t = tasks_[i];
    ++t.launches;
    t.primary = &Launch(i, server, /*backup=*/false);
    t.backup = nullptr;
  }

  Attempt& Launch(std::size_t i, int server, bool backup) {
    Attempt& a = attempts_.emplace_back();
    a.task = i;
    a.server = server;
    a.backup = backup;
    a.start = std::chrono::steady_clock::now();
    ++running_;
    WorkerServer& w = runner_.cluster_.worker(server);
    a.fut = w.Submit(
        [this, &w, &a] {
          // The shared slot gate: block here (not in the executor queue)
          // until this job's fair share of the worker's slots admits the
          // attempt. The wait aborts on job cancellation, attempt
          // cancellation, or worker removal — each surfaces as the matching
          // task status.
          sched::SlotArbiter& arbiter = runner_.cluster_.arbiter();
          Status slot = arbiter.Acquire(w.id(), phase_.kind, runner_.user_,
                                        runner_.cancel_.get(), a.cancel.get());
          if (slot.ok()) {
            SlotLease lease{arbiter, w.id(), phase_.kind, runner_.user_};
            // Every RPC this attempt makes (cache fetches, DHT-FS reads,
            // spill pushes) sees this cutoff through CurrentDeadline().
            net::ScopedDeadline deadline(TaskDeadline(runner_.spec_));
            try {
              a.outcome = phase_.run(w, a.task, *a.cancel);
            } catch (...) {
              a.error = std::current_exception();  // user code threw
            }
          } else {
            a.outcome.status = slot;
          }
          a.end = std::chrono::steady_clock::now();
          {
            MutexLock lock(mu_);
            done_.push_back(&a);
          }
          cv_.notify_one();
        },
        a.cancel);
    return a;
  }

  void Collect(Attempt& a) {
    a.collected = true;
    --running_;
    if (a.error) {
      Fail(Status::Error(ErrorCode::kInternal, "task attempt threw"));  // stop the rest
      std::rethrow_exception(a.error);  // the destructor still drains
    }
    Task& t = tasks_[a.task];
    if (t.resolved) return;  // a loser: the winner's outcome stands
    if (a.outcome.status.ok()) {
      t.resolved = true;
      const std::uint64_t us = ElapsedUs(a.start, a.end);
      detector_.Record(us);
      if (!Skipped(a.outcome)) {
        runner_.cluster_.predictor().Record(runner_.spec_.name, phase_.predict, t.bytes, us);
      }
      if (a.backup) {
        ++runner_.stats_.speculative_wins;
        Instant("speculative_win", t, a.server);
      }
      t.outcome = std::move(a.outcome);
      if (Cancel(&a == t.primary ? t.backup : t.primary)) runner_.cluster_.arbiter().Poke();
      return;
    }
    // A kCancelled from a loser never shadows a real error.
    if (a.outcome.status.code() != ErrorCode::kCancelled || t.outcome.status.ok()) {
      t.outcome = std::move(a.outcome);
    }
    if (Live(t.primary) || Live(t.backup) || !fatal_.ok() || LostSpills(t.outcome)) return;
    const Status& failure = t.outcome.status;
    if (runner_.JobCancelled()) {
      // Job-level cancellation is terminal, not retried.
      Fail(Status::Error(ErrorCode::kCancelled, "job cancelled"));
    } else if (t.launches >= kMaxAttemptsPerTask) {
      Fail(Status::Error(failure.code(), std::string(phase_.name) + " task " + t.label.key +
                                             " " + std::to_string(t.label.uval) +
                                             " failed repeatedly: " + failure.message()));
    } else {
      if (phase_.retries != nullptr) ++(runner_.stats_.*phase_.retries);
      LaunchPrimary(a.task);  // the ring may have changed: re-resolve
    }
  }

  /// Backs up every task whose running primary crossed the straggler
  /// threshold; returns when the next one will.
  std::chrono::steady_clock::time_point LaunchBackups() {
    auto wake = std::chrono::steady_clock::time_point::max();
    const std::uint64_t threshold = detector_.ThresholdUs();
    if (!speculate_ || !fatal_.ok() || threshold == 0) return wake;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < tasks_.size(); ++i) {
      Task& t = tasks_[i];
      if (t.resolved || !Live(t.primary) || t.backup != nullptr) continue;
      if (!detector_.IsStraggler(ElapsedUs(t.primary->start, now))) {
        wake = std::min(wake, t.primary->start + std::chrono::microseconds(threshold + 1));
        continue;
      }
      int server = runner_.PickBackupServer(t.primary->server, phase_.kind);
      if (server < 0) continue;  // no other live server; the next wake re-checks
      ++(runner_.stats_.*phase_.speculated);
      Instant("speculate", t, server);
      t.backup = &Launch(i, server, /*backup=*/true);
    }
    return wake;
  }

  void Fail(Status s) {
    if (!fatal_.ok()) return;
    fatal_ = std::move(s);
    bool flipped = false;
    for (Task& t : tasks_) {
      flipped |= Cancel(t.primary);
      flipped |= Cancel(t.backup);
    }
    if (flipped) runner_.cluster_.arbiter().Poke();
  }

  /// Flips a live attempt's token; true if it did. Targeted arbiter wakeups
  /// mean nobody re-checks tokens on an unrelated release, so the caller
  /// pokes the arbiter for any attempt blocked in Acquire.
  static bool Cancel(Attempt* a) { return Live(a) && !a->cancel->exchange(true); }

  void Instant(const char* name, const Task& t, int server) {
    obs::Tracer::Global().Emit('i', "mr", name, obs::kDriverPid,
                               {obs::Str("task", phase_.name), t.label,
                                obs::U64("server", static_cast<std::uint64_t>(server))});
  }

  JobRunner& runner_;
  const Phase phase_;
  const bool speculate_;
  fault::StragglerDetector detector_;
  std::vector<Task> tasks_;
  Bytes total_bytes_ = 0;
  std::deque<Attempt> attempts_;  // stable slots: bodies write through &a
  std::size_t running_ = 0;       // launched, not yet collected
  Status fatal_ = Status::Ok();
  std::vector<Attempt*> collecting_;  // driver-side swap partner of done_

  Mutex mu_{Rank::kAttemptSet, "JobRunner::AttemptSet::mu_"};
  CondVar cv_;
  std::vector<Attempt*> done_ GUARDED_BY(mu_);  // published, not yet collected
};

Status JobRunner::RunReducePhase(std::vector<KV>* output) {
  obs::TraceSpan phase_span("mr", "reduce_phase", obs::kDriverPid,
                            {obs::U64("job", job_id_)});
  std::map<HashKey, std::vector<SpillInfo>> by_range;
  {
    MutexLock lock(state_mu_);
    for (const auto& [id, info] : spills_) by_range[info.range_begin].push_back(info);
  }
  // Ascending range order: the output is concatenated in task order.
  std::vector<std::pair<HashKey, std::vector<SpillInfo>>> groups(
      std::make_move_iterator(by_range.begin()), std::make_move_iterator(by_range.end()));

  AttemptSet<ReduceOutcome> set(
      *this, {"reduce", sched::SlotKind::kReduce, sched::PredictPhase::kReduce,
              &JobStats::reduces_speculated, nullptr,
              [&](std::size_t i) { return cluster_.ring().Owner(groups[i].first); },
              [this, &groups](WorkerServer& w, std::size_t i, const auto& cancel) {
                return RunReduceTask(w, groups[i].second, cancel);
              }});
  for (std::size_t i = 0; i < groups.size(); ++i) {
    Bytes bytes = 0;
    for (const auto& info : groups[i].second) bytes += info.bytes;
    set.Add(obs::U64("group", i), bytes);
  }
  if (Status s = set.Run(); !s.ok()) return s;

  // Spills that died with their server (intermediates are not replicated by
  // default, §II-C): re-run the producers of every lost spill at once with
  // reuse disabled, then hand NotFound back so Run rebuilds the whole plan.
  std::vector<BlockRef> rerun;
  std::size_t lost = 0;
  {
    MutexLock lock(state_mu_);
    for (const auto& t : set.tasks()) {
      lost += t.outcome.missing_spills.size();
      for (const auto& id : t.outcome.missing_spills) {
        auto it = spill_block_.find(id);
        if (it != spill_block_.end()) rerun.push_back(it->second);
      }
    }
  }
  if (lost > 0) {
    std::sort(rerun.begin(), rerun.end());
    rerun.erase(std::unique(rerun.begin(), rerun.end()), rerun.end());
    LOG_INFO << "reduce lost " << lost << " spills; re-running " << rerun.size()
             << " map tasks";
    Status s = RunMapPhase(rerun, /*force_recompute=*/true);
    return s.ok() ? Status::Error(ErrorCode::kNotFound, "spills lost with their server") : s;
  }

  for (auto& t : set.tasks()) {
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
  obs::TraceSpan phase_span("mr", "map_phase", obs::kDriverPid,
                            {obs::U64("tasks", blocks.size()), obs::U64("job", job_id_)});
  AttemptSet<MapOutcome> set(
      *this,
      {"map", sched::SlotKind::kMap, sched::PredictPhase::kMap, &JobStats::maps_speculated,
       &JobStats::map_retries,
       [&](std::size_t i) {
         const BlockRef& ref = blocks[i];
         int server = PickMapServer(metas_[ref.file].KeyOfBlock(ref.block));
         if (server >= 0) {
           obs::Tracer::Global().Emit('i', "sched", "sched_assign", obs::kDriverPid,
                                      {obs::U64("block", ref.block),
                                       obs::U64("server", static_cast<std::uint64_t>(server)),
                                       obs::U64("job", job_id_)});
         }
         return server;
       },
       [this, &blocks, force_recompute](WorkerServer& w, std::size_t i, const auto& cancel) {
         MapOutcome o = RunMapTask(w, blocks[i], force_recompute, cancel);
         if (!o.status.ok() && !o.spills.empty()) {
           // A failed or cancelled attempt may have pushed partial spills
           // before it stopped: ledger them so ReleaseSpills sees every orphan.
           MutexLock lock(state_mu_);
           for (auto& info : o.spills) orphan_spills_.push_back(std::move(info));
         }
         return o;
       }});
  // One block per task: the size bucket completions are recorded under.
  for (const BlockRef& ref : blocks) {
    set.Add(obs::U64("block", ref.block), cluster_.options().block_size);
  }
  Status status = set.Run();

  // Commit every winner, also when the phase failed: its spills must reach
  // spills_ for ReleaseSpills to delete them.
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    auto& t = set.tasks()[i];
    if (!t.resolved) continue;
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
        if (it->second == blocks[i]) {
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
      spill_block_[info.id] = blocks[i];
      spills_[info.id] = std::move(info);
    }
  }
  return status;
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
                                            const std::atomic<bool>& cancel) {
  MapOutcome out;
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
      runner.cluster_.metrics()
          .GetHistogram("mr.map_task_us", {{"locality", out.locality}})
          .Record(ElapsedUs(t0, std::chrono::steady_clock::now()));
    }
  } closer{task_span, out, *this, task_t0};
  if (Interrupted(w, cancel, &out.status)) return out;
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
  // A failed or cancelled attempt reports shuffle.spills() too:
  // threshold-crossing Adds have already pushed objects into the DHT FS, and
  // the phase records failed attempts' spills in the cleanup ledger so a
  // cancelled job leaves no orphans behind.
  for (std::string_view record : records) {
    mapper->Map(record, ctx);
    if (Interrupted(w, cancel, &out.status)) break;
  }
  if (out.status.ok()) {
    mapper->Finish(ctx);
    out.status = ctx.status();
  }
  if (out.status.ok()) out.status = shuffle.Flush();
  out.spills = shuffle.spills();
  if (!out.status.ok()) return out;

  if (!tag.empty()) {
    auto manifest_data = std::make_shared<const std::string>(EncodeManifest(out.spills));
    w.dfs().PutObject(manifest_id, manifest_key, *manifest_data, spec_.intermediate_ttl);
    w.CachePut(manifest_id, manifest_key, std::move(manifest_data),
               cache::EntryKind::kOutput);
  }
  return out;
}

JobRunner::ReduceOutcome JobRunner::RunReduceTask(WorkerServer& w,
                                                  const std::vector<SpillInfo>& spills,
                                                  const std::atomic<bool>& cancel) {
  ReduceOutcome out;
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
      runner.cluster_.metrics().GetHistogram("mr.reduce_task_us").Record(
          ElapsedUs(t0, std::chrono::steady_clock::now()));
    }
  } closer{task_span, out, *this, task_t0};

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
    if (Interrupted(w, cancel, &out.status)) return out;
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
        return !Interrupted(w, cancel, &out.status);
      });
  if (completed) out.output = std::move(ctx.output());
  return out;
}

JobResult Cluster::Run(const JobSpec& spec) {
  JobRunner runner(*this, spec, Cluster::NextJobId());
  return runner.Run();
}

}  // namespace eclipse::mr
