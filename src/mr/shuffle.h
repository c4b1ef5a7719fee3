// Proactive shuffling (paper §II-D).
//
// "EclipseMR lets each mapper pipeline the intermediate results to the DHT
// file system in a decentralized fashion while they are being generated.
// Based on the hash keys of the intermediate results, each map task stores
// the intermediate results in a memory buffer for each hash key range. When
// the size of this buffer reaches a certain threshold specified by the
// application, EclipseMR spills the buffered results to the DHT file
// system so that they can be accessed by reducers."
//
// The ShuffleWriter keeps one buffer per DHT-FS hash-key range; each spill
// becomes a persisted object placed at the range owner, and the spill id is
// reported back so the scheduler can place the reduce task where the
// intermediates already live. Records route to their range by binary search
// over the sorted range boundaries — O(log R) per record, the dominant
// per-record cost after hashing (see docs/performance.md).
//
// Allocation model (docs/performance.md "The hot path"): Add copies the
// record's bytes into the range's arena and appends one KVView — after the
// first few records warm the arena blocks and the view vector's capacity,
// the per-record path performs no heap allocation. A spill encodes the
// views into a pooled BinaryWriter buffer (common/buffer_pool.h) and then
// Resets the arena, so the threshold still bounds staged memory. The
// reduce side mirrors this: DecodeSpillViews parses views over the pinned
// spill payload and ForEachGroupViews groups them through reusable
// ReduceScratch buffers — one index sort, no per-key node or string.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/arena.h"
#include "common/hash_key.h"
#include "common/hot_path.h"
#include "common/serde.h"
#include "dfs/dfs_client.h"
#include "mr/types.h"

namespace eclipse::mr {

/// What a mapper tells the scheduler about one spilled buffer.
struct SpillInfo {
  std::string id;       // DHT-FS object id
  HashKey range_begin;  // identifies the target hash-key range
  std::uint64_t pairs;
  Bytes bytes;
};

/// Serialize / parse one spill's KV payload.
std::string EncodeSpill(const std::vector<KV>& pairs);
Result<std::vector<KV>> DecodeSpill(const std::string& data);

/// Encode `pairs` into `w` (cleared first). The writer keeps its backing
/// buffer, so a pooled writer encodes every spill of a task through one
/// warmed allocation.
void EncodeSpillTo(const std::vector<KVView>& pairs, BinaryWriter& w);

/// Append-decoding variant: parses into `*out` (reserving ahead) so a
/// reducer can accumulate many spills into one flat vector without
/// per-spill intermediate allocations. On error `*out` may hold a partial
/// tail; callers treat the whole decode as failed.
Status DecodeSpillInto(const std::string& data, std::vector<KV>* out);

/// Zero-copy decode: appended views alias `data`, which must stay alive —
/// and unmoved — while the views are used (the reduce path pins each spill
/// payload through its cache handle for exactly this reason).
Status DecodeSpillViews(const std::string& data, std::vector<KVView>* out);

/// Index into `sorted_begins` (ascending range-begin boundaries of a set of
/// ranges tiling the ring) of the range covering `hk`: the last begin <= hk,
/// wrapping to the final range for keys below the first boundary. Pure —
/// exercised directly by tests against the linear-scan reference.
ECLIPSE_HOT_PATH
std::size_t RouteToRange(const std::vector<HashKey>& sorted_begins, HashKey hk);

/// Sort-then-group `pairs` by key (stable: values keep their spill order)
/// and invoke `fn(key, values)` once per distinct key in ascending key
/// order, moving the values out of `pairs`. Returns false if `fn` returned
/// false (early stop), true otherwise. Owning-KV variant kept for tests and
/// tools; the reduce data path uses ForEachGroupViews.
bool ForEachGroup(std::vector<KV>& pairs,
                  const std::function<bool(const std::string& key,
                                           std::vector<std::string>& values)>& fn);

/// Reusable reduce-task buffers. One instance lives per executor thread
/// (thread_local in job_runner.cc): Clear() drops contents but keeps every
/// vector's capacity, so steady-state reduce tasks allocate nothing while
/// grouping.
struct ReduceScratch {
  std::vector<KVView> pairs;          // all spills' records, as views
  std::vector<std::uint32_t> order;   // index sort: stability without
                                      // stable_sort's temp-buffer allocation
  std::vector<std::string_view> values;  // per-group value views
  void Clear() {
    pairs.clear();
    order.clear();
    values.clear();
  }
};

/// Group scratch.pairs by key and call fn(key, values) per distinct key in
/// ascending key order; value views keep their append (spill) order, which
/// matches what the stable sort in ForEachGroup produced. Returns false on
/// early stop. Templated on Fn so the call costs no std::function
/// allocation; uses an index sort (std::sort is in-place; std::stable_sort
/// allocates a merge buffer) to stay allocation-free once scratch is warm.
template <typename Fn>
ECLIPSE_HOT_PATH bool ForEachGroupViews(ReduceScratch& scratch, Fn&& fn) {
  const std::vector<KVView>& pairs = scratch.pairs;
  const std::uint32_t n = static_cast<std::uint32_t>(pairs.size());
  scratch.order.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) scratch.order[i] = i;
  std::sort(scratch.order.begin(), scratch.order.end(),
            [&pairs](std::uint32_t a, std::uint32_t b) {
              if (pairs[a].key != pairs[b].key) return pairs[a].key < pairs[b].key;
              return a < b;  // stability: ties keep append order
            });
  for (std::uint32_t i = 0; i < n;) {
    std::uint32_t j = i + 1;
    while (j < n && pairs[scratch.order[j]].key == pairs[scratch.order[i]].key) ++j;
    scratch.values.clear();
    scratch.values.reserve(j - i);
    for (std::uint32_t k = i; k < j; ++k) {
      scratch.values.push_back(pairs[scratch.order[k]].value);
    }
    if (!fn(pairs[scratch.order[i]].key, scratch.values)) return false;
    i = j;
  }
  return true;
}

/// Direct-mapped memo of key → ring digest. Intermediate keys repeat
/// heavily (Zipf words, graph vertex ids, cluster ids), and the SHA-1 ring
/// digest is by far the most expensive per-record step in Add — one
/// compression round per call. The memo stores the key bytes inline and
/// compares them exactly, so a slot collision can never misroute a record
/// (it just recomputes); keys longer than the inline buffer bypass the
/// memo. No heap allocation anywhere: 16 KiB of inline slots per writer.
class KeyMemo {
 public:
  ECLIPSE_HOT_PATH HashKey Get(std::string_view key) {
    if (key.size() > kMaxLen) return KeyOf(key);
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 slot index
    for (char c : key) {
      h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
    }
    Entry& e = slots_[h & (kSlots - 1)];
    if (e.len == key.size() &&
        std::memcmp(e.bytes, key.data(), key.size()) == 0) {
      return e.hk;
    }
    HashKey hk = KeyOf(key);
    e.len = static_cast<std::uint8_t>(key.size());
    std::memcpy(e.bytes, key.data(), key.size());
    e.hk = hk;
    return hk;
  }

 private:
  static constexpr std::size_t kSlots = 512;  // power of two (mask below)
  static constexpr std::size_t kMaxLen = 23;
  struct Entry {
    std::uint8_t len = 255;  // never equals a real key length <= kMaxLen
    char bytes[kMaxLen];
    HashKey hk = 0;
  };
  std::array<Entry, kSlots> slots_{};
};

class ShuffleWriter {
 public:
  /// `prefix` scopes spill ids ("im/<job-or-tag>/b<block>"); spills are
  /// placed by `fs_ranges` (the static DHT-FS partition) through `dfs`.
  /// Spill ids are deterministic (prefix + range + sequence) so a
  /// re-executed map task overwrites its own earlier spills idempotently.
  /// `job_id` only labels the spill trace spans (the id itself is scoped
  /// through `prefix`); 0 for writers outside any job.
  ShuffleWriter(std::string prefix, const RangeTable& fs_ranges, dfs::DfsClient& dfs,
                Bytes spill_threshold, std::chrono::milliseconds ttl,
                std::uint64_t job_id = 0);
  ~ShuffleWriter();

  ShuffleWriter(const ShuffleWriter&) = delete;
  ShuffleWriter& operator=(const ShuffleWriter&) = delete;

  /// Buffer one intermediate pair under the range covering KeyOf(key);
  /// spills that range's buffer if it crossed the threshold. The bytes are
  /// copied into the range's arena before return — callers may pass views
  /// into buffers they are about to reuse.
  ECLIPSE_HOT_PATH
  Status Add(std::string_view key, std::string_view value);

  /// Spill every non-empty buffer (end of the map task).
  Status Flush();

  /// All spills produced (valid after Flush).
  const std::vector<SpillInfo>& spills() const { return spills_; }

 private:
  struct RangeBuffer {
    Arena arena;                // staged bytes; Reset (blocks kept) per spill
    std::vector<KVView> pairs;  // views into arena; capacity kept per spill
    Bytes bytes = 0;
    std::uint64_t seq = 0;
  };

  Status SpillRange(std::size_t idx);

  std::string prefix_;
  dfs::DfsClient& dfs_;
  Bytes threshold_;
  std::chrono::milliseconds ttl_;
  std::uint64_t job_id_;
  // Parallel arrays over the non-empty ranges, sorted by range begin:
  // begins_ is the binary-search index, ranges_ the defensive containment
  // check, buffers_ the per-range accumulation state.
  std::vector<HashKey> begins_;
  std::vector<KeyRange> ranges_;
  std::vector<RangeBuffer> buffers_;
  std::vector<SpillInfo> spills_;
  KeyMemo key_memo_;     // skips SHA-1 for repeated intermediate keys
  BinaryWriter encode_;  // backing buffer borrowed from BufferPool::Global
};

/// Deterministic spill object id. It names the target range by both ends:
/// after a membership change a range can keep its begin but grow or shrink,
/// and a spill written under the new table must not alias (in the DHT FS or
/// a reducer's oCache) one written under the old table with other contents.
std::string SpillId(const std::string& prefix, const KeyRange& range, std::uint64_t seq);

/// Manifest object listing a map task's spills, enabling §II-C reuse
/// ("if a user application specifies it can reuse intermediate results and
/// they are available ... the map tasks skip computation").
std::string EncodeManifest(const std::vector<SpillInfo>& spills);
Result<std::vector<SpillInfo>> DecodeManifest(const std::string& data);

/// Manifest id for (tag, input file, block).
std::string ManifestId(const std::string& tag, const std::string& input, std::uint64_t block);

}  // namespace eclipse::mr
