#include "apps/wordcount.h"

#include <cstring>

#include "apps/text_util.h"
#include "common/hot_path.h"

namespace eclipse::apps {

namespace {

std::uint64_t Load64(const char* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

std::uint64_t Load32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Fixed 64-bit hash of a non-empty word (ForEachWord yields no empty
/// ones), eight bytes per multiply. It has no per-process seed: Finish
/// emits in table order, so an unseeded hash keeps each block's spill
/// bytes the same from run to run.
std::uint64_t HashWord(std::string_view w) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  const char* p = w.data();
  const std::size_t n = w.size();
  std::uint64_t h = (n + 1) * kMul;
  if (n >= 8) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) h = (h ^ Load64(p + i)) * kMul;
    if (i < n) h = (h ^ Load64(p + n - 8)) * kMul;  // overlapping tail
  } else if (n >= 4) {
    h = (h ^ (Load32(p) << 32 | Load32(p + n - 4))) * kMul;
  } else {
    const std::uint64_t v = static_cast<std::uint64_t>(static_cast<unsigned char>(p[0])) << 16 |
                            static_cast<std::uint64_t>(static_cast<unsigned char>(p[n / 2])) << 8 |
                            static_cast<unsigned char>(p[n - 1]);
    h = (h ^ v) * kMul;
  }
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ull;
  return h ^ (h >> 32);
}

}  // namespace

WordCountMapper::WordCountMapper() : slots_(kInitialSlots) {}

void WordCountMapper::Map(std::string_view record, mr::MapContext& ctx) {
  (void)ctx;
  ForEachWord(record, [this](std::string_view word) { Count(word); });
}

ECLIPSE_HOT_PATH void WordCountMapper::Count(std::string_view word) {
  const std::uint64_t h = HashWord(word);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.count == 0) {
      s = Slot{words_.CopyString(word).data(), word.size(), h, 1};
      if (++used_ * 2 > slots_.size()) Grow();
      return;
    }
    if (s.hash == h && s.len == word.size() &&
        std::memcmp(s.ptr, word.data(), word.size()) == 0) {
      ++s.count;
      return;
    }
  }
}

void WordCountMapper::Grow() {
  std::vector<Slot> old(slots_.size() * 2);
  old.swap(slots_);
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.count == 0) continue;
    std::size_t i = s.hash & mask;
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

void WordCountMapper::Finish(mr::MapContext& ctx) {
  for (Slot& s : slots_) {
    if (s.count == 0) continue;
    ctx.Emit(std::string_view(s.ptr, s.len), FormatU64(s.count).view());
    s = Slot{};
  }
  used_ = 0;
  words_.Reset();
}

void WordCountReducer::Reduce(std::string_view key, const std::vector<std::string_view>& values,
                              mr::ReduceContext& ctx) {
  std::uint64_t total = 0;
  for (std::string_view v : values) total += ParseU64(v);
  ctx.Emit(key, FormatU64(total).view());
}

mr::JobSpec WordCountJob(std::string name, std::string input_file) {
  mr::JobSpec spec;
  spec.name = std::move(name);
  spec.input_file = std::move(input_file);
  spec.mapper = [] { return std::make_unique<WordCountMapper>(); };
  spec.reducer = [] { return std::make_unique<WordCountReducer>(); };
  return spec;
}

std::map<std::string, std::uint64_t> WordCountSerial(const std::string& text) {
  std::map<std::string, std::uint64_t> counts;
  for (auto& word : SplitWords(text)) ++counts[std::move(word)];
  return counts;
}

}  // namespace eclipse::apps
