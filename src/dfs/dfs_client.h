// Client API of the DHT file system.
//
// Implements the paper's access protocol (§II-A, Fig. 2): hash the file name
// to find the metadata owner, read the metadata there (permission check
// happens at the owner), then fetch blocks directly from the servers whose
// hash-key ranges cover each block key — no central directory is ever
// consulted. Writes replicate metadata and blocks to the owner's predecessor
// and successor.
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "dfs/dfs_node.h"
#include "net/retry.h"
#include "net/transport.h"

namespace eclipse::dfs {

struct DfsClientOptions {
  Bytes default_block_size = 4_KiB;  // tests/examples scale; paper used 128 MiB
  std::size_t replication = 3;       // owner + successor + predecessor
  std::string user = "eclipse";
  /// Per-call retry policy (kUnavailable only; see net/retry.h). The
  /// default retries twice with millisecond backoff — enough to ride out a
  /// dropped frame, cheap enough that probing a genuinely dead server stays
  /// fast before falling through to the next replica.
  net::RetryPolicy retry;
};

class DfsClient {
 public:
  /// `self` identifies the calling endpoint on the transport (a worker node
  /// id, or any unused id for an external client).
  DfsClient(int self, net::Transport& transport, RingProvider ring_provider,
            DfsClientOptions options = {});

  // ---- Whole-file operations -------------------------------------------

  /// Partition `content` into fixed-size blocks and write the file: metadata
  /// to the metadata owner (+ replicas), each block to the servers owning
  /// its hash key (+ replicas). Fails AlreadyExists if `name` is taken.
  Status Upload(const std::string& name, const std::string& content);
  Status Upload(const std::string& name, const std::string& content, Bytes block_size,
                bool public_read);

  /// Read metadata (with the owner-side permission check) then every block.
  Result<std::string> ReadFile(const std::string& name);

  /// Remove a file: all block replicas, then all metadata replicas.
  Status Delete(const std::string& name);

  /// List every file in the namespace readable by this client's user. The
  /// namespace is decentralized (§II-A), so this unions the metadata held
  /// by all live servers and deduplicates the replicas. Sorted by name.
  std::vector<FileMetadata> ListFiles();

  // ---- Block-granular operations (the MapReduce engine's path) ----------

  Result<FileMetadata> GetMetadata(const std::string& name);

  /// Read one block, trying the owner first and then the other replicas.
  Result<std::string> ReadBlock(const FileMetadata& meta, std::uint64_t index);

  /// Same, reporting which server actually served the block in
  /// `*served_by` (unchanged on failure). The MapReduce engine uses this to
  /// classify a map task's locality: served_by == the worker's own id means
  /// the block came off local disk, anything else was a remote-disk read.
  Result<std::string> ReadBlock(const FileMetadata& meta, std::uint64_t index,
                                int* served_by);

  /// Read `len` bytes of block `index` starting at `offset` (clamped to the
  /// block end). The record reader uses this to peek at one boundary byte
  /// without transferring the whole previous block.
  Result<std::string> ReadBlockRange(const FileMetadata& meta, std::uint64_t index,
                                     Bytes offset, Bytes len);

  /// Read one block through multi-hop DHT routing, entering the overlay at
  /// `entry_node` (§II-A's non-zero-hop mode; requires DfsNode::
  /// EnableRouting on the servers). Mainly for deployments whose finger
  /// tables are smaller than the ring.
  Result<std::string> ReadBlockRouted(const FileMetadata& meta, std::uint64_t index,
                                      int entry_node, std::uint32_t max_hops = 64);

  // ---- Intermediate results (§II-C/D) ------------------------------------

  /// Persist an intermediate result (or iteration output) under an explicit
  /// id and hash key. Not replicated by default; optional TTL.
  Status PutObject(const std::string& id, HashKey key, const std::string& data,
                   std::chrono::milliseconds ttl = std::chrono::milliseconds::zero(),
                   std::size_t replication = 1);

  /// Fetch an object stored with PutObject (or fail NotFound / Expired).
  Result<std::string> GetObject(const std::string& id, HashKey key);

  /// An object stored with PutObject: its id and the hash key it was put by.
  struct ObjectRef {
    std::string_view id;
    HashKey key = 0;
  };

  /// Delete objects (or file blocks) on every replica candidate, with one
  /// request per server: each receives every id it may hold in a single
  /// kDeleteBlock.
  /// Best-effort: unreachable servers are skipped.
  void DeleteObjects(const std::vector<ObjectRef>& objects, std::size_t replication = 1);

  const DfsClientOptions& options() const { return options_; }

  /// Writes that succeeded although some of their replica targets refused
  /// them (a ring smaller than `replication` has fewer targets, not a refusal).
  std::uint64_t under_replicated_writes() const {
    return under_replicated_writes_.load(std::memory_order_relaxed);
  }

  /// The endpoint id this client calls from (a worker id, or an external
  /// client id).
  int self() const { return self_; }

 private:
  Result<net::Message> CallOk(int to, const net::Message& m);
  /// Send `put` to every replica target of `key`; true when one accepted.
  bool PutReplicas(const dht::Ring& ring, HashKey key, std::size_t replication,
                   const net::Message& put);

  const int self_;
  net::Transport& transport_;
  RingProvider ring_;
  DfsClientOptions options_;
  std::atomic<std::uint64_t> under_replicated_writes_{0};
};

}  // namespace eclipse::dfs
