// Small text/number parsing helpers shared by the example applications.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hot_path.h"

namespace eclipse::apps {

/// Split on a delimiter, dropping empty pieces.
std::vector<std::string> Split(std::string_view s, char delim);

/// Split on runs of whitespace.
std::vector<std::string> SplitWords(std::string_view s);

/// The C-locale whitespace set (space, \t, \n, \v, \f, \r) as a byte
/// table: one load per byte instead of an std::isspace call.
inline constexpr std::array<bool, 256> kIsSpace = [] {
  std::array<bool, 256> t{};
  for (unsigned char c : {' ', '\t', '\n', '\v', '\f', '\r'}) t[c] = true;
  return t;
}();

/// Invoke fn(word) for every whitespace-delimited word, as views into `s` —
/// the allocation-free core of the mapper hot loops. SplitWords keeps its
/// own std::isspace loop, so the serial oracles stay an independent
/// implementation of the same split.
template <typename Fn>
ECLIPSE_HOT_PATH void ForEachWord(std::string_view s, Fn&& fn) {
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p < end) {
    while (p < end && kIsSpace[static_cast<unsigned char>(*p)]) ++p;
    const char* start = p;
    while (p < end && !kIsSpace[static_cast<unsigned char>(*p)]) ++p;
    if (p > start) fn(std::string_view(start, static_cast<std::size_t>(p - start)));
  }
}

/// Parse a decimal uint64 (0 on malformed input — app inputs are our own
/// emissions, so this never triggers in practice).
std::uint64_t ParseU64(std::string_view s);

/// Fixed-size buffer holding a uint64 rendered as decimal: reducer/combiner
/// emissions go through this instead of std::to_string so the emit path
/// stays allocation-free.
struct U64Buf {
  char data[24];
  std::uint8_t len = 0;
  std::string_view view() const { return std::string_view(data, len); }
};
U64Buf FormatU64(std::uint64_t v);

/// Parse a vector of doubles from "a,b,c" (or any single-char delimiter).
std::vector<double> ParseDoubles(std::string_view s, char delim = ',');

/// Join doubles with a delimiter, full precision round-trip.
std::string JoinDoubles(const std::vector<double>& v, char delim = ',');

/// Render one double with round-trip precision.
std::string DoubleToString(double v);

}  // namespace eclipse::apps
