#include "dfs/dfs_client.h"

#include <map>
#include <string_view>
#include <thread>

#include "common/buffer_pool.h"
#include "common/log.h"
#include "common/mutex.h"

namespace eclipse::dfs {

DfsClient::DfsClient(int self, net::Transport& transport, RingProvider ring_provider,
                     DfsClientOptions options)
    : self_(self), transport_(transport), ring_(std::move(ring_provider)),
      options_(std::move(options)) {}

Result<net::Message> DfsClient::CallOk(int to, const net::Message& m) {
  auto resp = net::CallWithRetry(transport_, self_, to, m, options_.retry,
                                 static_cast<std::uint64_t>(self_));
  if (!resp.ok()) return resp.status();
  if (net::IsError(resp.value())) return net::DecodeError(resp.value());
  return resp;
}

bool DfsClient::PutReplicas(const dht::Ring& ring, HashKey key, std::size_t replication,
                            const net::Message& put) {
  const std::vector<int> targets = ring.Replicas(key, replication);
  std::size_t ok_count = 0;
  for (int server : targets) {
    if (CallOk(server, put).ok()) ++ok_count;
  }
  if (ok_count > 0 && ok_count < targets.size()) {
    under_replicated_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  return ok_count > 0;
}

Status DfsClient::Upload(const std::string& name, const std::string& content) {
  return Upload(name, content, options_.default_block_size, /*public_read=*/true);
}

Status DfsClient::Upload(const std::string& name, const std::string& content,
                         Bytes block_size, bool public_read) {
  if (name.empty() || block_size == 0) {
    return Status::Error(ErrorCode::kInvalidArgument, "empty name or zero block size");
  }
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  if (ring.empty()) return Status::Error(ErrorCode::kUnavailable, "no servers");

  if (GetMetadata(name).ok()) {
    return Status::Error(ErrorCode::kAlreadyExists, name + " already exists");
  }

  FileMetadata meta;
  meta.name = name;
  meta.owner = options_.user;
  meta.public_read = public_read;
  meta.size = content.size();
  meta.block_size = block_size;
  meta.num_blocks = NumBlocks(content.size(), block_size);

  // Blocks first, metadata last, so a visible file is always complete.
  for (std::uint64_t i = 0; i < meta.num_blocks; ++i) {
    HashKey key = meta.KeyOfBlock(i);
    Bytes off = i * block_size;
    // A view into `content` — the block bytes are copied exactly once,
    // straight into the pre-sized wire buffer.
    std::string_view data = std::string_view(content).substr(off, block_size);
    std::string id = BlockId(name, i);
    BinaryWriter w;
    w.Reserve(4 + id.size() + 8 + 8 + 4 + data.size());
    w.PutString(id);
    w.PutU64(key);
    w.PutU64(0);  // no TTL
    w.PutString(data);
    net::Message put{msg::kPutBlock, w.Take()};
    if (!PutReplicas(ring, key, options_.replication, put)) {
      return Status::Error(ErrorCode::kUnavailable,
                           "no replica accepted block " + std::to_string(i));
    }
  }

  BinaryWriter w;
  meta.Serialize(w);
  net::Message put{msg::kPutMetadata, w.Take()};
  if (!PutReplicas(ring, meta.MetaKey(), options_.replication, put)) {
    return Status::Error(ErrorCode::kUnavailable, "no replica accepted metadata");
  }
  return Status::Ok();
}

Result<FileMetadata> DfsClient::GetMetadata(const std::string& name) {
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  if (ring.empty()) return Status::Error(ErrorCode::kUnavailable, "no servers");
  BinaryWriter w;
  w.PutString(name);
  w.PutString(options_.user);
  net::Message get{msg::kGetMetadata, w.Take()};

  Status last = Status::Error(ErrorCode::kNotFound, "no metadata for " + name);
  for (int server : ring.Replicas(KeyOf(name), options_.replication)) {
    auto resp = CallOk(server, get);
    if (resp.ok()) {
      BinaryReader r(resp.value().payload);
      return FileMetadata::Deserialize(r);
    }
    last = resp.status();
    // A definitive denial at the owner should not be retried on replicas.
    if (last.code() == ErrorCode::kPermission) return last;
    // Out of time entirely — no point probing further replicas.
    if (last.code() == ErrorCode::kDeadlineExceeded) return last;
  }
  return last;
}

Result<std::string> DfsClient::ReadBlock(const FileMetadata& meta, std::uint64_t index) {
  return ReadBlock(meta, index, nullptr);
}

Result<std::string> DfsClient::ReadBlock(const FileMetadata& meta, std::uint64_t index,
                                         int* served_by) {
  if (index >= meta.num_blocks) {
    return Status::Error(ErrorCode::kInvalidArgument, "block index out of range");
  }
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  HashKey key = meta.KeyOfBlock(index);
  BinaryWriter w;
  w.PutString(BlockId(meta.name, index));
  net::Message get{msg::kGetBlock, w.Take()};

  Status last = Status::Error(ErrorCode::kNotFound, "block unavailable");
  for (int server : ring.Replicas(key, options_.replication)) {
    auto resp = CallOk(server, get);
    if (resp.ok()) {
      if (served_by != nullptr) *served_by = server;
      return std::move(resp.value().payload);
    }
    last = resp.status();
    if (last.code() == ErrorCode::kDeadlineExceeded) return last;
  }
  return last;
}

Result<std::string> DfsClient::ReadBlockRange(const FileMetadata& meta, std::uint64_t index,
                                              Bytes offset, Bytes len) {
  if (index >= meta.num_blocks) {
    return Status::Error(ErrorCode::kInvalidArgument, "block index out of range");
  }
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  HashKey key = meta.KeyOfBlock(index);
  BinaryWriter w;
  w.PutString(BlockId(meta.name, index));
  w.PutU64(offset);
  w.PutU64(len);
  net::Message get{msg::kGetBlockRange, w.Take()};

  Status last = Status::Error(ErrorCode::kNotFound, "block unavailable");
  for (int server : ring.Replicas(key, options_.replication)) {
    auto resp = CallOk(server, get);
    if (resp.ok()) return std::move(resp.value().payload);
    last = resp.status();
    if (last.code() == ErrorCode::kDeadlineExceeded) return last;
  }
  return last;
}

Result<std::string> DfsClient::ReadBlockRouted(const FileMetadata& meta, std::uint64_t index,
                                               int entry_node, std::uint32_t max_hops) {
  if (index >= meta.num_blocks) {
    return Status::Error(ErrorCode::kInvalidArgument, "block index out of range");
  }
  auto routed = RoutedGet(transport_, self_, entry_node, BlockId(meta.name, index),
                          meta.KeyOfBlock(index), max_hops);
  if (!routed.ok()) return routed.status();
  return std::move(routed.value().data);
}

Result<std::string> DfsClient::ReadFile(const std::string& name) {
  auto meta = GetMetadata(name);
  if (!meta.ok()) return meta.status();
  const std::uint64_t n = meta.value().num_blocks;

  // §II-A: "it multicasts the block read requests to remote servers" — the
  // per-block fetches are independent, so issue them concurrently (bounded
  // fan-out) and assemble in index order.
  constexpr std::uint64_t kFanOut = 8;
  std::vector<std::string> blocks(n);
  Status first_error;
  Mutex err_mu{Rank::kScratch, "DfsClient::ReadFile.err_mu"};
  for (std::uint64_t base = 0; base < n; base += kFanOut) {
    std::vector<std::thread> fetchers;
    std::uint64_t end = std::min(n, base + kFanOut);
    for (std::uint64_t i = base; i < end; ++i) {
      fetchers.emplace_back([this, &meta, &blocks, &first_error, &err_mu, i] {
        auto block = ReadBlock(meta.value(), i);
        if (block.ok()) {
          blocks[i] = std::move(block.value());
        } else {
          MutexLock lock(err_mu);
          if (first_error.ok()) first_error = block.status();
        }
      });
    }
    for (auto& t : fetchers) t.join();
    if (!first_error.ok()) return first_error;
  }

  std::string out;
  out.reserve(meta.value().size);
  for (auto& b : blocks) out += b;
  return out;
}

Status DfsClient::Delete(const std::string& name) {
  auto meta = GetMetadata(name);
  if (!meta.ok()) return meta.status();
  const std::uint64_t num_blocks = meta.value().num_blocks;
  std::vector<std::string> ids;
  ids.reserve(num_blocks);
  for (std::uint64_t i = 0; i < num_blocks; ++i) ids.push_back(BlockId(name, i));
  std::vector<ObjectRef> blocks;
  blocks.reserve(num_blocks);
  for (std::uint64_t i = 0; i < num_blocks; ++i) {
    blocks.push_back({ids[i], meta.value().KeyOfBlock(i)});
  }
  DeleteObjects(blocks, options_.replication);

  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  BinaryWriter w;
  w.PutString(name);
  net::Message del{msg::kDeleteMetadata, w.Take()};
  for (int server : ring.Replicas(KeyOf(name), options_.replication)) CallOk(server, del);
  return Status::Ok();
}

std::vector<FileMetadata> DfsClient::ListFiles() {
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  std::map<std::string, FileMetadata> files;
  for (int server : ring.Servers()) {
    auto resp = CallOk(server, net::Message{msg::kListMetadata, {}});
    if (!resp.ok()) continue;
    BinaryReader r(resp.value().payload);
    std::uint32_t n = 0;
    if (!r.GetU32(&n)) continue;
    for (std::uint32_t i = 0; i < n; ++i) {
      auto meta = FileMetadata::Deserialize(r);
      if (!meta.ok()) break;
      if (!meta.value().public_read && meta.value().owner != options_.user) continue;
      files.emplace(meta.value().name, std::move(meta.value()));
    }
  }
  std::vector<FileMetadata> out;
  out.reserve(files.size());
  for (auto& [name, meta] : files) out.push_back(std::move(meta));
  return out;
}

Status DfsClient::PutObject(const std::string& id, HashKey key, const std::string& data,
                            std::chrono::milliseconds ttl, std::size_t replication) {
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  if (ring.empty()) return Status::Error(ErrorCode::kUnavailable, "no servers");
  // Spills call this once per buffered range per map task; the request is
  // encoded into a pooled buffer and reclaimed after the call, so the
  // steady-state upload costs no fresh allocation for the wire image.
  BinaryWriter w;
  w.Adopt(BufferPool::Global().Acquire());
  w.Reserve(4 + id.size() + 8 + 8 + 4 + data.size());
  w.PutString(id);
  w.PutU64(key);
  w.PutU64(static_cast<std::uint64_t>(ttl.count()));
  w.PutString(data);
  net::Message put{msg::kPutBlock, w.Take()};
  const bool stored = PutReplicas(ring, key, replication, put);
  BufferPool::Global().Release(std::move(put.payload));
  if (!stored) return Status::Error(ErrorCode::kUnavailable, "no replica accepted " + id);
  return Status::Ok();
}

Result<std::string> DfsClient::GetObject(const std::string& id, HashKey key) {
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  BinaryWriter w;
  w.PutString(id);
  net::Message get{msg::kGetBlock, w.Take()};
  Status last = Status::Error(ErrorCode::kNotFound, "no object " + id);
  for (int server : ring.Replicas(key, options_.replication)) {
    auto resp = CallOk(server, get);
    if (resp.ok()) return std::move(resp.value().payload);
    last = resp.status();
    if (last.code() == ErrorCode::kExpired) return last;
    if (last.code() == ErrorCode::kDeadlineExceeded) return last;
  }
  return last;
}

void DfsClient::DeleteObjects(const std::vector<ObjectRef>& objects, std::size_t replication) {
  RingSnapshot ring_snap = ring_();
  static const dht::Ring kNoRing;
  const dht::Ring& ring = ring_snap ? *ring_snap : kNoRing;
  std::map<int, std::vector<std::string_view>> by_server;
  for (const ObjectRef& o : objects) {
    for (int server : ring.Replicas(o.key, replication)) by_server[server].push_back(o.id);
  }
  for (const auto& [server, ids] : by_server) {
    BinaryWriter w;
    w.PutU32(static_cast<std::uint32_t>(ids.size()));
    for (std::string_view id : ids) w.PutString(id);
    CallOk(server, net::Message{msg::kDeleteBlock, w.Take()});
  }
}

}  // namespace eclipse::dfs
