// Cross-job task-slot arbitration (multi-tenancy for the paper's resource
// manager, §II-A).
//
// With a single job, each worker's fixed map/reduce slot count is enforced
// by the size of its task thread pool. With N concurrent jobs that private
// assumption breaks: every JobRunner would see the full pool as its own.
// The SlotArbiter is the shared source of truth — every task attempt, from
// any job, must Acquire a (worker, kind) slot before computing and Release
// it afterwards, so per-worker concurrency never exceeds the configured
// slot count no matter how many jobs are in flight.
//
// Contended slots are granted by weighted max-min fairness per user: when a
// slot frees, it goes to the waiting user with the smallest share, where
// share = (slots currently held across all workers) / weight. Ties fall
// back to arrival order, so a user's own requests stay FIFO and no waiter
// starves (its share only shrinks relative to users that keep getting
// grants). Weights default to 1.0 (equal shares); SetWeight gives a user a
// proportionally larger share of contended slots.
//
// Lock discipline: one internal mutex, held only for bookkeeping — never
// across a task, an RPC, or a scheduler decision. Each blocked Acquire
// sleeps on its *own* condition variable, and state changes signal exactly
// the waiters they affect: a release wakes the one waiter the freed slot
// was granted to, a worker removal wakes that worker's waiters, and Poke()
// (cancellation-token re-check) walks the waiter list once. The previous
// design broadcast one shared condvar on every release — with W waiters
// across J jobs each release cost W wakeups, a thundering herd measured as
// a top multi-job tax (docs/performance.md). WakeupSignals() counts the
// targeted signals so tests can assert the herd stays gone.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "common/mutex.h"
#include "common/result.h"

namespace eclipse::sched {

enum class SlotKind { kMap, kReduce };

class SlotArbiter {
 public:
  SlotArbiter() = default;

  SlotArbiter(const SlotArbiter&) = delete;
  SlotArbiter& operator=(const SlotArbiter&) = delete;

  /// Register a worker's slot capacity. Re-adding an existing id resets its
  /// free counts (only valid when no slots of that worker are held).
  void AddWorker(int worker, int map_slots, int reduce_slots);

  /// The worker died: current and future Acquire calls on it fail
  /// kUnavailable. Slots already held may still be Released (the release is
  /// absorbed without re-granting).
  void RemoveWorker(int worker);

  /// Fair-share weight for `user` (default 1.0; must be > 0).
  void SetWeight(const std::string& user, double weight);

  /// Predicted remaining work of `user`'s admitted jobs, in µs (0 clears).
  /// Fed by the JobQueue from the RuntimePredictor at job start/finish.
  /// Contended-slot shares become deadline-aware: the share divisor is
  /// weight × factor where factor = (mean demand across users with demand)
  /// / (this user's demand), clamped to [1/4, 4]. Users with *less*
  /// predicted remaining work drain first — shortest-remaining-work bias,
  /// the reason a tight-deadline job finishes while a bulk job occupies the
  /// cluster — and the clamp bounds the bias so a bulk user always keeps at
  /// least a quarter of its static share. Users with no demand reported
  /// (or none set anywhere) keep factor 1: behavior is byte-identical to
  /// the static-weight arbiter until predictions flow.
  void SetPredictedDemand(const std::string& user, double demand_us);

  /// Block until a slot of `kind` on `worker` is granted. Returns:
  ///   Ok            — slot held; caller must Release(worker, kind, user)
  ///   kUnavailable  — worker unknown or removed (re-place the task)
  ///   kCancelled    — a cancellation token flipped while waiting
  /// Either token pointer may be null. Tokens are polled on wakeups; callers
  /// that flip a token must Poke() the arbiter (JobHandle::Cancel does).
  Status Acquire(int worker, SlotKind kind, const std::string& user,
                 const std::atomic<bool>* cancel_a = nullptr,
                 const std::atomic<bool>* cancel_b = nullptr);

  /// Return a slot granted by Acquire.
  void Release(int worker, SlotKind kind, const std::string& user);

  /// Free slots of `kind` on `worker` right now (0 for unknown/removed
  /// workers). The scheduler's availability probe — inherently racy, like
  /// the pool-depth probe it replaces; the authoritative gate is Acquire.
  int FreeSlots(int worker, SlotKind kind) const;

  /// Slots currently held by `user` across all workers.
  int InUse(const std::string& user) const;

  /// Waiters currently blocked in Acquire (for tests and gauges).
  std::size_t Waiting() const;

  /// Total grants handed out that had to wait at least one wakeup.
  std::uint64_t ContendedGrants() const;

  /// Wake every waiter so it re-checks its cancellation tokens.
  void Poke();

  /// Total targeted wakeup signals issued (grants, failures, pokes). A
  /// release that grants one slot issues exactly one signal regardless of
  /// how many tasks are waiting (asserted by SlotArbiter.BoundedWakeups).
  std::uint64_t WakeupSignals() const;

 private:
  struct WorkerSlots {
    int free_map = 0;
    int free_reduce = 0;
    bool alive = false;
  };
  struct UserShare {
    int in_use = 0;
    double weight = 1.0;
    double demand_us = 0.0;  // predicted remaining work (0 = not reported)
  };
  struct Waiter {
    int worker = 0;
    SlotKind kind = SlotKind::kMap;
    const std::string* user = nullptr;
    std::uint64_t seq = 0;     // arrival order (FIFO tie-break)
    bool granted = false;      // slot transferred to this waiter
    bool failed = false;       // worker removed while waiting
    CondVar cv;                // private wakeup channel (targeted signals)
  };

  int& FreeCount(WorkerSlots& w, SlotKind kind) const {
    return kind == SlotKind::kMap ? w.free_map : w.free_reduce;
  }
  double Share(const UserShare& u) const REQUIRES(mu_);

  /// Hand every free slot of (worker, kind) to the needlest waiters,
  /// signalling each grantee's private condvar.
  /// Call with mu_ held after any state change that frees a slot.
  void GrantFreed(int worker, SlotKind kind) REQUIRES(mu_);

  void ReleaseLocked(int worker, SlotKind kind, const std::string& user) REQUIRES(mu_);

  /// Wake exactly one waiter (its cv), counting the signal.
  void Signal(Waiter& w) REQUIRES(mu_) {
    ++wakeup_signals_;
    w.cv.notify_one();
  }

  mutable Mutex mu_{Rank::kSlotArbiter, "SlotArbiter::mu_"};
  std::map<int, WorkerSlots> workers_ GUARDED_BY(mu_);
  std::map<std::string, UserShare> users_ GUARDED_BY(mu_);
  std::deque<Waiter*> waiters_ GUARDED_BY(mu_);
  // Aggregate over users with demand_us > 0, kept incrementally so Share is
  // O(1) inside GrantFreed's waiter scan.
  double demand_sum_us_ GUARDED_BY(mu_) = 0.0;
  int demand_users_ GUARDED_BY(mu_) = 0;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 0;
  std::uint64_t contended_grants_ GUARDED_BY(mu_) = 0;
  std::uint64_t wakeup_signals_ GUARDED_BY(mu_) = 0;
};

}  // namespace eclipse::sched
