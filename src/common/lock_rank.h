// The machine-checked lock hierarchy: every eclipse::Mutex is constructed
// with one of these ranks, and a thread may only acquire a mutex whose rank
// is *strictly greater* than every rank it already holds ("leaf-most last",
// docs/architecture.md). The ordering below is therefore not documentation —
// it is the contract three independent checkers enforce:
//
//   1. Clang thread-safety analysis (ACQUIRED_AFTER edges, compile time),
//   2. the runtime lock-order validator in common/mutex.h (every debug /
//      sanitizer test run, aborts on the first inversion),
//   3. tools/eclipse_lint.py (AST pass over the compile database).
//
// tools/lock_hierarchy.json is the machine-readable manifest of this enum
// (rank name, value, owning mutex, file); eclipse-lint cross-checks the
// three representations (this header, the manifest, and the rank table in
// docs/static-analysis.md) and fails CI when they drift.
//
// Bands, outermost (acquired first) to leaf-most (acquired last):
//   100  job front end      (JobQueue / JobState publication)
//   200  cluster control    (workers -> ring -> sched, the documented chain)
//   300  membership         (ring view, callback lists)
//   400  job execution      (spill registry)
//   500  schedulers         (LAF, Delay, slot arbiter)
//   600  storage            (DFS metadata/routing, block store, cache)
//   700  transports         (in-process map, TCP endpoints, dispatcher)
//   800  fault injection    (fault controller, straggler detector)
//   900  common infra       (thread pool, metrics, tracing) — leaf-most,
//        safe to take under anything because these are touched from
//        arbitrary call sites (a counter bump, a first-event trace
//        registration) that may already hold module locks.
//   990  tests              (ad-hoc locks in tests/; leaf of leaves)
//
// Adding a mutex: pick the band of its module, choose an unused value that
// respects every acquisition path through it, add the manifest entry, and
// regenerate the docs table (tools/eclipse_lint.py --check-manifest tells
// you what is missing).
#pragma once

namespace eclipse {

enum class Rank : int {
  // -- 100: job front end ---------------------------------------------------
  kJobQueue = 100,       // mr/job_queue.h     JobQueue::mu_
  kJobState = 110,       // mr/job_queue.h     internal::JobState::mu

  // -- 190: deployment control (acquired before the cluster chain: the
  //    coordinator's bootstrap/heartbeat state may be consulted on paths
  //    that go on to take cluster locks) ------------------------------------
  kDeployment = 190,  // mr/deployment.h     DeploymentCoordinator::mu_

  // -- 200: cluster control plane (workers_mu_ -> ring_mu_ -> sched_mu_) ----
  kClusterWorkers = 200,  // mr/cluster.h      Cluster::workers_mu_
  kClusterRing = 210,     // mr/cluster.h      Cluster::ring_mu_
  kClusterSched = 220,    // mr/cluster.h      Cluster::sched_mu_
  kWorkerHost = 230,      // mr/worker_host.h  WorkerHost::mu_

  // -- 300: membership ------------------------------------------------------
  kMembership = 300,     // dht/membership.h   MembershipAgent::mu_
  kMembershipCb = 310,   // dht/membership.h   MembershipAgent::cb_mu_

  // -- 400: job execution ---------------------------------------------------
  kJobRunnerState = 400,  // mr/job_runner.h   JobRunner::state_mu_
  kAttemptSet = 410,      // mr/job_runner.cc  JobRunner::AttemptSet::mu_

  // -- 500: schedulers ------------------------------------------------------
  kLafScheduler = 500,    // sched/laf_scheduler.h    LafScheduler::mu_
  kDelayScheduler = 510,  // sched/delay_scheduler.h  DelayScheduler::mu_
  kSlotArbiter = 520,     // sched/slot_arbiter.h     SlotArbiter::mu_
  kTaskExecState = 525,   // sched/task_executor.h    TaskExecutor::grow_mu_
  kTaskExecQueue = 530,   // sched/task_executor.h    TaskExecutor::Shard::mu
  kRuntimePredictor = 540,  // sched/runtime_predictor.h  RuntimePredictor::mu_

  // -- 600: storage ---------------------------------------------------------
  kDfsMeta = 600,        // dfs/dfs_node.h     DfsNode::meta_mu_
  kDfsRoute = 610,       // dfs/dfs_node.h     DfsNode::route_mu_
  kBlockStore = 620,     // dfs/block_store.h  BlockStore::mu_
  kBlockStoreHook = 630, // dfs/block_store.h  BlockStore::hook_mu_
  kCacheLru = 640,       // cache/lru_cache.h  LruCache::mu_

  // -- 700: transports ------------------------------------------------------
  kTransport = 700,      // net/transport.h      InProcessTransport::mu_
  kTcpTransport = 710,   // net/tcp_transport.h  TcpTransport::mu_
  kEpollServer = 712,    // net/epoll_server.h   EpollServer::mu_
  kEpollPool = 714,      // net/epoll_server.h   EpollServer::pool_mu_
  kConnPool = 716,       // net/conn_pool.h      ConnPool::mu_
  kDispatcher = 730,     // net/dispatcher.h     Dispatcher::mu_

  // -- 800: fault injection -------------------------------------------------
  kFaultController = 800,    // fault/fault_plan.h  FaultController::mu_
  kStragglerDetector = 810,  // fault/straggler.h   StragglerDetector::mu_

  // -- 900: common infra (leaf-most) ----------------------------------------
  kMetrics = 910,        // common/metrics.h      MetricsRegistry::mu_
  kTraceRegistry = 920,  // obs/trace.h           Tracer::mu_
  kTraceLog = 930,       // obs/trace.h           Tracer::ThreadLog::mu
  kEventCount = 940,     // common/event_count.h  EventCount::mu_
  kBufferPool = 950,     // common/buffer_pool.h  BufferPool::mu_

  // -- 980: function-local scratch locks (leaf) -----------------------------
  kScratch = 980,  // locals guarding per-call aggregation (e.g. error fold)

  // -- 990: tests -----------------------------------------------------------
  kTest = 990,  // ad-hoc mutexes in tests/ and bench/
};

/// The leaf band boundary: a mutex with rank >= kLeafRankFloor is a *leaf*
/// lock — blocking calls (transport RPCs, CondVar waits on other mutexes,
/// BlockStore I/O) are forbidden while holding anything below this line
/// (enforced by eclipse-lint's blocking-call rule, not at runtime).
inline constexpr int kLeafRankFloor = 900;

/// Numeric value of a rank (for the validator's comparisons and reports).
constexpr int RankValue(Rank r) { return static_cast<int>(r); }

}  // namespace eclipse
