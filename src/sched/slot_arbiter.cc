#include "sched/slot_arbiter.h"

#include <algorithm>
#include <cassert>

namespace eclipse::sched {

void SlotArbiter::AddWorker(int worker, int map_slots, int reduce_slots) {
  MutexLock lock(mu_);
  WorkerSlots& w = workers_[worker];
  w.free_map = map_slots;
  w.free_reduce = reduce_slots;
  w.alive = true;
  GrantFreed(worker, SlotKind::kMap);
  GrantFreed(worker, SlotKind::kReduce);
}

void SlotArbiter::RemoveWorker(int worker) {
  MutexLock lock(mu_);
  auto it = workers_.find(worker);
  if (it == workers_.end()) return;
  it->second.alive = false;
  it->second.free_map = 0;
  it->second.free_reduce = 0;
  for (Waiter* waiter : waiters_) {
    if (waiter->worker == worker && !waiter->granted && !waiter->failed) {
      waiter->failed = true;
      Signal(*waiter);
    }
  }
}

void SlotArbiter::SetWeight(const std::string& user, double weight) {
  assert(weight > 0.0);
  MutexLock lock(mu_);
  users_[user].weight = weight;
}

void SlotArbiter::SetPredictedDemand(const std::string& user, double demand_us) {
  if (demand_us < 0.0) demand_us = 0.0;
  MutexLock lock(mu_);
  UserShare& u = users_[user];
  if (u.demand_us > 0.0) {
    demand_sum_us_ -= u.demand_us;
    --demand_users_;
  }
  u.demand_us = demand_us;
  if (demand_us > 0.0) {
    demand_sum_us_ += demand_us;
    ++demand_users_;
  }
}

double SlotArbiter::Share(const UserShare& u) const {
  // Deadline bias (see SetPredictedDemand): less predicted remaining work →
  // larger effective weight → smaller share → wins contended slots sooner.
  double factor = 1.0;
  if (u.demand_us > 0.0 && demand_users_ > 0) {
    const double mean = demand_sum_us_ / demand_users_;
    if (mean > 0.0) factor = std::clamp(mean / u.demand_us, 0.25, 4.0);
  }
  return u.in_use / (u.weight * factor);
}

Status SlotArbiter::Acquire(int worker, SlotKind kind, const std::string& user,
                            const std::atomic<bool>* cancel_a,
                            const std::atomic<bool>* cancel_b) {
  auto cancelled = [&] {
    return (cancel_a != nullptr && cancel_a->load(std::memory_order_relaxed)) ||
           (cancel_b != nullptr && cancel_b->load(std::memory_order_relaxed));
  };
  MutexLock lock(mu_);
  if (cancelled()) return Status::Error(ErrorCode::kCancelled, "slot acquire cancelled");
  auto it = workers_.find(worker);
  if (it == workers_.end() || !it->second.alive) {
    return Status::Error(ErrorCode::kUnavailable,
                         "worker " + std::to_string(worker) + " not in arbiter");
  }
  // Fast path: a free slot and nobody ahead of us wants it. Taking it while
  // same-kind waiters exist would jump the fairness queue — GrantFreed has
  // already decided those slots belong to the waiters.
  bool contended_kind = false;
  for (const Waiter* w : waiters_) {
    if (w->worker == worker && w->kind == kind && !w->granted && !w->failed) {
      contended_kind = true;
      break;
    }
  }
  if (!contended_kind && FreeCount(it->second, kind) > 0) {
    --FreeCount(it->second, kind);
    ++users_[user].in_use;
    return Status::Ok();
  }

  Waiter self;
  self.worker = worker;
  self.kind = kind;
  self.user = &user;
  self.seq = next_seq_++;
  waiters_.push_back(&self);
  // The slot we could not take might be assignable to us after all (e.g. we
  // are now the needlest user); re-run the grant pass with us enqueued.
  GrantFreed(worker, kind);
  while (!self.granted && !self.failed && !cancelled()) {
    self.cv.wait(lock);
  }
  waiters_.erase(std::find(waiters_.begin(), waiters_.end(), &self));
  if (self.granted) {
    ++contended_grants_;
    if (cancelled()) {
      // Lost the race between grant and wakeup: hand the slot back.
      // GrantFreed already counted it against us, so a plain release undoes it.
      ReleaseLocked(worker, kind, *self.user);
      return Status::Error(ErrorCode::kCancelled, "slot acquire cancelled");
    }
    return Status::Ok();
  }
  if (self.failed) {
    return Status::Error(ErrorCode::kUnavailable,
                         "worker " + std::to_string(worker) + " removed while waiting");
  }
  return Status::Error(ErrorCode::kCancelled, "slot acquire cancelled");
}

void SlotArbiter::Release(int worker, SlotKind kind, const std::string& user) {
  MutexLock lock(mu_);
  ReleaseLocked(worker, kind, user);
}

void SlotArbiter::ReleaseLocked(int worker, SlotKind kind, const std::string& user) {
  auto uit = users_.find(user);
  assert(uit != users_.end() && uit->second.in_use > 0);
  if (uit != users_.end() && uit->second.in_use > 0) --uit->second.in_use;
  auto it = workers_.find(worker);
  if (it == workers_.end() || !it->second.alive) return;  // removed: absorb
  ++FreeCount(it->second, kind);
  GrantFreed(worker, kind);
}

int SlotArbiter::FreeSlots(int worker, SlotKind kind) const {
  MutexLock lock(mu_);
  auto it = workers_.find(worker);
  if (it == workers_.end() || !it->second.alive) return 0;
  // Slots already earmarked for waiters are not free to a prober.
  int free = kind == SlotKind::kMap ? it->second.free_map : it->second.free_reduce;
  for (const Waiter* w : waiters_) {
    if (w->worker == worker && w->kind == kind && !w->granted && !w->failed) --free;
  }
  return free < 0 ? 0 : free;
}

int SlotArbiter::InUse(const std::string& user) const {
  MutexLock lock(mu_);
  auto it = users_.find(user);
  return it == users_.end() ? 0 : it->second.in_use;
}

std::size_t SlotArbiter::Waiting() const {
  MutexLock lock(mu_);
  return waiters_.size();
}

std::uint64_t SlotArbiter::ContendedGrants() const {
  MutexLock lock(mu_);
  return contended_grants_;
}

void SlotArbiter::Poke() {
  // Token re-check after a cancellation: every waiter must look at its own
  // tokens, so this is the one legitimately O(waiters) signal — and it only
  // runs on cancel events, never on the per-release path.
  MutexLock lock(mu_);
  for (Waiter* waiter : waiters_) Signal(*waiter);
}

std::uint64_t SlotArbiter::WakeupSignals() const {
  MutexLock lock(mu_);
  return wakeup_signals_;
}

void SlotArbiter::GrantFreed(int worker, SlotKind kind) {
  auto wit = workers_.find(worker);
  if (wit == workers_.end() || !wit->second.alive) return;
  int& free = FreeCount(wit->second, kind);
  while (free > 0) {
    // Weighted max-min: among waiters for this (worker, kind), pick the one
    // whose user holds the smallest share = in_use / weight; FIFO on ties.
    Waiter* best = nullptr;
    double best_share = 0.0;
    for (Waiter* w : waiters_) {
      if (w->worker != worker || w->kind != kind || w->granted || w->failed) continue;
      double share = Share(users_[*w->user]);
      if (best == nullptr || share < best_share ||
          (share == best_share && w->seq < best->seq)) {
        best = w;
        best_share = share;
      }
    }
    if (best == nullptr) break;
    --free;
    ++users_[*best->user].in_use;
    best->granted = true;
    Signal(*best);
  }
}

}  // namespace eclipse::sched
