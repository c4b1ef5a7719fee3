#include "common/hash_key.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace eclipse {

HashKey KeyOf(std::string_view name) {
  // Names of up to 55 bytes pad into a single block: the name, 0x80, zeros,
  // and the bit length in the last bytes. Every word key, block id and
  // spill id the engine routes fits, so this skips Sha1's buffering.
  if (name.size() <= 55) {
    std::uint8_t block[64] = {};
    std::memcpy(block, name.data(), name.size());
    block[name.size()] = 0x80;
    const std::size_t bits = name.size() * 8;
    block[62] = static_cast<std::uint8_t>(bits >> 8);
    block[63] = static_cast<std::uint8_t>(bits);
    internal::Sha1State state = internal::kSha1Init;
    internal::Compress(state, block);
    return (HashKey{state[0]} << 32) | state[1];
  }
  Sha1Digest d = Sha1::Hash(name);
  HashKey k = 0;
  for (int i = 0; i < 8; ++i) k = (k << 8) | d[i];
  return k;
}

HashKey BlockKey(std::string_view file_name, std::uint64_t index) {
  // "name#index" on the stack; a std::string only for very long names.
  char buf[128];
  if (file_name.size() < sizeof buf) {
    std::memcpy(buf, file_name.data(), file_name.size());
    buf[file_name.size()] = '#';
    auto [end, ec] = std::to_chars(buf + file_name.size() + 1, buf + sizeof buf, index);
    if (ec == std::errc()) return KeyOf(std::string_view(buf, static_cast<std::size_t>(end - buf)));
  }
  std::string id(file_name);
  id += '#';
  id += std::to_string(index);
  return KeyOf(id);
}

std::string KeyRange::ToString() const {
  if (begin == end) return full ? "[full)" : "[empty)";
  char buf[48];
  std::snprintf(buf, sizeof buf, "[%016llx,%016llx)", static_cast<unsigned long long>(begin),
                static_cast<unsigned long long>(end));
  return buf;
}

bool RangeTable::Assign(std::vector<std::pair<int, KeyRange>> ranges) {
  std::vector<std::pair<int, KeyRange>> nonempty;
  std::vector<std::pair<int, KeyRange>> empty;
  bool saw_full = false;
  for (auto& e : ranges) {
    if (e.second.IsEmpty()) {
      empty.push_back(e);
    } else {
      if (e.second.begin == e.second.end && e.second.full) saw_full = true;
      nonempty.push_back(e);
    }
  }
  if (saw_full) {
    if (nonempty.size() != 1) return false;  // a full range must be alone
  } else if (!nonempty.empty()) {
    std::sort(nonempty.begin(), nonempty.end(),
              [](const auto& a, const auto& b) { return a.second.begin < b.second.begin; });
    // Contiguity: each range must end exactly where the next begins, and the
    // last must wrap to the first.
    for (std::size_t i = 0; i < nonempty.size(); ++i) {
      const KeyRange& cur = nonempty[i].second;
      const KeyRange& next = nonempty[(i + 1) % nonempty.size()].second;
      if (cur.end != next.begin) return false;
    }
    // Tiling plus contiguity implies total width == 2^64; a single non-full
    // range can never tile by itself unless it wraps onto its own begin,
    // which the check above already enforces (cur.end == cur.begin => full
    // flag required, rejected as IsEmpty/full mismatch).
    if (nonempty.size() == 1) return false;
  } else {
    return false;  // no coverage at all
  }

  entries_ = std::move(nonempty);
  num_nonempty_ = entries_.size();
  entries_.insert(entries_.end(), empty.begin(), empty.end());
  return true;
}

RangeTable RangeTable::FromPositions(const std::vector<std::pair<int, HashKey>>& positions) {
  RangeTable t;
  if (positions.empty()) return t;
  auto sorted = positions;
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  std::vector<std::pair<int, KeyRange>> ranges;
  ranges.reserve(sorted.size());
  if (sorted.size() == 1) {
    ranges.emplace_back(sorted[0].first, KeyRange::Full());
  } else {
    for (std::size_t i = 0; i < sorted.size(); ++i) {
      const auto& pred = sorted[(i + sorted.size() - 1) % sorted.size()];
      const auto& self = sorted[i];
      // Key k is owned by its clockwise successor: range (pred, self].
      ranges.emplace_back(self.first, KeyRange{pred.second + 1, self.second + 1, false});
    }
  }
  t.Assign(std::move(ranges));
  return t;
}

int RangeTable::Owner(HashKey k) const {
  if (num_nonempty_ == 0) return -1;
  if (num_nonempty_ == 1) return entries_[0].first;  // full ring
  // Binary search: last non-empty entry with begin <= k; if none, the
  // wrapping range (the one with the largest begin) owns k.
  auto first = entries_.begin();
  auto last = entries_.begin() + static_cast<std::ptrdiff_t>(num_nonempty_);
  auto it = std::upper_bound(first, last, k, [](HashKey key, const auto& e) {
    return key < e.second.begin;
  });
  const auto& candidate = (it == first) ? *(last - 1) : *(it - 1);
  if (candidate.second.Contains(k)) return candidate.first;
  // k falls before the first begin and the last range does not wrap far
  // enough — cannot happen with a tiling table, but stay defensive.
  return -1;
}

KeyRange RangeTable::RangeOf(int server) const {
  for (const auto& e : entries_) {
    if (e.first == server) return e.second;
  }
  return KeyRange::Empty();
}

}  // namespace eclipse
