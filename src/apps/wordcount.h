// word count — the canonical MapReduce job; one of the paper's four
// non-iterative evaluation applications (Fig. 6a, 8, 9).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/arena.h"
#include "mr/types.h"

namespace eclipse::apps {

class WordCountMapper : public mr::Mapper {
 public:
  WordCountMapper();
  void Map(std::string_view record, mr::MapContext& ctx) override;
  void Finish(mr::MapContext& ctx) override;

 private:
  // In-mapper combining: per-block partial counts shrink the shuffle. The
  // counts live in an open-addressing table (linear probing, power-of-two
  // capacity, grown at 50% load); a word's bytes are copied into `words_`
  // on its first occurrence in the block, so every later hit is a hash, a
  // length check and a memcmp. Finish emits in table order — the reduce
  // side sorts by key, so job output does not depend on it — and clears
  // the table and the arena, keeping both capacities for the next block.
  struct Slot {
    const char* ptr = nullptr;
    std::size_t len = 0;
    std::uint64_t hash = 0;
    std::uint64_t count = 0;  // 0: empty slot
  };
  static constexpr std::size_t kInitialSlots = 128;

  void Count(std::string_view word);
  void Grow();

  std::vector<Slot> slots_;
  std::size_t used_ = 0;
  Arena words_;
};

class WordCountReducer : public mr::Reducer {
 public:
  void Reduce(std::string_view key, const std::vector<std::string_view>& values,
              mr::ReduceContext& ctx) override;
};

/// A ready-to-submit JobSpec (caller sets name and input_file).
mr::JobSpec WordCountJob(std::string name, std::string input_file);

/// Serial oracle for tests: word -> count over the whole text.
std::map<std::string, std::uint64_t> WordCountSerial(const std::string& text);

}  // namespace eclipse::apps
