// Job orchestration: Fig. 2's flow on the emulated cluster.
//
//  1. resolve the input file's metadata at its metadata owner,
//  2. assign one map task per block — LAF (Algorithm 1) or Delay (§II-F),
//  3. map tasks read input through iCache (falling back to the DHT FS) and
//     proactively spill intermediates to the reducer-side DHT FS (§II-D),
//  4. reduce tasks run where the intermediate hash keys live, reading spills
//     through oCache,
//  5. failures re-execute the affected map tasks and re-place reduces on the
//     take-over servers (intermediates that died with a server are rebuilt
//     by re-running their producers).
#pragma once

#include <atomic>
#include <memory>

#include "mr/cluster.h"
#include "mr/shuffle.h"

namespace eclipse::mr {

class JobRunner {
 public:
  /// `job_id` is the process-wide id from Cluster::NextJobId(); it
  /// namespaces the job's spill scope and labels its observability.
  /// `cancel` (optional) is the job-level cancellation token
  /// (JobHandle::Cancel): every task attempt, slot wait, and phase boundary
  /// observes it. `spec` must outlive the runner.
  JobRunner(Cluster& cluster, const JobSpec& spec, std::uint64_t job_id,
            std::shared_ptr<std::atomic<bool>> cancel = nullptr);

  JobResult Run();

 private:
  struct MapOutcome {
    Status status;
    std::vector<SpillInfo> spills;
    bool skipped = false;     // fed entirely from tagged intermediates
    bool icache_hit = false;
    Bytes input_bytes = 0;
    /// Locality class of the input read: "memory", "local_disk",
    /// "remote_disk", or "skipped" (string literal; also used as the trace
    /// span's `locality` argument and the metrics label value).
    const char* locality = "skipped";
  };

  struct ReduceOutcome {
    Status status;
    std::vector<KV> output;
    std::uint64_t ocache_hits = 0;
    std::uint64_t ocache_misses = 0;
    std::vector<std::string> missing_spills;
  };

  /// A map task's input: (index into metas_, block index).
  struct BlockRef {
    std::size_t file;
    std::uint64_t block;
    bool operator<(const BlockRef& o) const {
      return file != o.file ? file < o.file : block < o.block;
    }
    bool operator==(const BlockRef&) const = default;
  };

  /// Attempt bodies; they run holding a slot of their kind under the task
  /// deadline (AttemptSet). `cancel` is the attempt's duplicate-cancellation
  /// token: speculative execution sets it once a sibling attempt wins, and
  /// the task exits kCancelled at its next record boundary. Output stays
  /// correct either way — spill ids are deterministic and contents
  /// identical, so concurrent duplicate attempts overwrite each other
  /// idempotently (first-writer-wins).
  MapOutcome RunMapTask(WorkerServer& w, BlockRef ref, bool force_recompute,
                        const std::atomic<bool>& cancel);
  ReduceOutcome RunReduceTask(WorkerServer& w, const std::vector<SpillInfo>& spills,
                              const std::atomic<bool>& cancel);

  /// Should a running attempt stop now? True, with the reason in `*why`,
  /// when its worker died, a sibling attempt won, or the job was cancelled.
  bool Interrupted(WorkerServer& w, const std::atomic<bool>& cancel, Status* why) const;

  /// Pick the map server for a block key under this job's scheduler epoch.
  /// For Delay this may block up to the locality-wait timeout (the wait
  /// budget is a local per-call deadline, so concurrent jobs cannot consume
  /// each other's budgets).
  int PickMapServer(HashKey hkey);

  /// Backup-attempt placement: the live server (≠ `avoid`) with the most
  /// free slots of `kind`, or -1 when no other server is alive.
  int PickBackupServer(int avoid, sched::SlotKind kind);

  /// Has JobHandle::Cancel been called on this job?
  bool JobCancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  /// Best-effort removal of an untagged job's spills (spills_ and the
  /// orphan ledger) from the DHT FS, batched: one request per server. Runs
  /// on every exit of Run — success, failure and cancel.
  /// Tagged jobs keep theirs: their manifests stay reusable (§II-C).
  void ReleaseSpills();

  /// The one task-attempt engine both phases run on: retries, backups,
  /// first-success-wins and the drain of every attempt (job_runner.cc).
  template <typename Outcome>
  class AttemptSet;

  /// One pass over the reduce plan derived from the current spill set: every
  /// range group runs at once on its owner. Returns NotFound after
  /// re-running the producers of lost spills (the caller rebuilds the plan
  /// and retries), or the first fatal status.
  Status RunReducePhase(std::vector<KV>* output);

  /// Run the map phase over `blocks`, merging spills into spills_ /
  /// spill_block_. `force_recompute` bypasses tagged-intermediate reuse —
  /// required when re-running maps whose spills died with a server.
  /// Returns first fatal status.
  Status RunMapPhase(const std::vector<BlockRef>& blocks, bool force_recompute = false);

  Cluster& cluster_;
  const JobSpec& spec_;
  const std::uint64_t job_id_;
  std::shared_ptr<std::atomic<bool>> cancel_;  // null when not cancellable
  std::string user_;  // spec_.user, or the cluster default when empty
  /// This job's immutable scheduling epoch, captured once at Run start:
  /// another job's LAF repartition mutates only the shared epoch scheduler
  /// (internally locked), and a membership rebuild publishes a *new* epoch —
  /// neither can silently re-route this job's in-flight shuffle.
  std::shared_ptr<const SchedulerEpoch> epoch_;
  std::vector<dfs::FileMetadata> metas_;  // input_file first, then extras
  RangeTable fs_ranges_;  // epoch_->fs_ranges; spill range identities are
                          // stable across mid-job membership changes

  Mutex state_mu_{Rank::kJobRunnerState, "JobRunner::state_mu_"};
  std::map<std::string, SpillInfo> spills_ GUARDED_BY(state_mu_);  // id -> info (deduped)
  std::map<std::string, BlockRef> spill_block_
      GUARDED_BY(state_mu_);  // id -> producing input block
  /// Spills reported by failed or cancelled attempts, and spills dropped
  /// from the plan when their maps re-ran. Not part of the reduce plan;
  /// ReleaseSpills deletes them alongside spills_ so a finished job leaves
  /// no intermediates in the DHT FS. Spill ids are deterministic, so a
  /// retried attempt may re-register the same ids in spills_; the release
  /// dedupes them.
  std::vector<SpillInfo> orphan_spills_ GUARDED_BY(state_mu_);
  JobStats stats_;            // driver-thread only (outcomes are collected on
                              // the submitting thread, never on pool threads)
};

}  // namespace eclipse::mr
