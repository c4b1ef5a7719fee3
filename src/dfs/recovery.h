// Post-failure re-replication, run by the resource manager.
//
// Paper §II-A: "If a server fails, the resource manager reconstructs the
// lost file blocks in a take-over server using the replicated data blocks."
// After membership removes a failed server, every key it owned is owned by
// its successor, and replica sets shift — this pass walks the survivors'
// inventories and copies whatever is missing so each durable block and
// metadata record is back at the configured replication factor.
//
// Objects written by DfsClient::PutObject — intermediate results and
// iteration outputs — are unreplicated by design (§II-C): they keep the
// replication they were written with, so this pass neither copies them nor
// counts them lost. A job re-runs the producers of spills that died.
#pragma once

#include <cstddef>

#include "dfs/dfs_client.h"

namespace eclipse::dfs {

struct RecoveryReport {
  std::size_t blocks_copied = 0;
  std::size_t metadata_copied = 0;
  std::size_t blocks_lost = 0;     // file blocks with no surviving replica
  std::size_t blocks_dropped = 0;  // extraneous copies removed (join rebalance)
};

class FsRecovery {
 public:
  /// `self` is the resource manager's transport endpoint; `ring_provider`
  /// must already reflect the post-failure membership.
  FsRecovery(int self, net::Transport& transport, RingProvider ring_provider);

  /// Scan every live server's block and metadata inventory and restore the
  /// replication factor. With `drop_extraneous` (the server-join rebalance
  /// mode, §II: the resource manager also handles joins), copies held by
  /// servers that are no longer in an item's replica set are deleted once
  /// every target has one — so ownership follows the ring as it grows.
  RecoveryReport Repair(std::size_t replication = 3, bool drop_extraneous = false);

 private:
  const int self_;
  net::Transport& transport_;
  RingProvider ring_;
};

}  // namespace eclipse::dfs
