#include "common/sha1.h"

#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define ECLIPSE_SHA1_X86 1
#endif

namespace eclipse {
namespace {

inline std::uint32_t Rotl(std::uint32_t x, unsigned n) {
  return (x << n) | (x >> (32 - n));
}

}  // namespace

void Sha1::Reset() {
  state_ = internal::kSha1Init;
  total_len_ = 0;
  buffer_len_ = 0;
}

void Sha1::Update(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  total_len_ += len;

  // Top up a partial block first.
  if (buffer_len_ > 0) {
    std::size_t take = std::min(len, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    len -= take;
    if (buffer_len_ == buffer_.size()) {
      internal::Compress(state_, buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (len >= 64) {
    internal::Compress(state_, p);
    p += 64;
    len -= 64;
  }
  if (len > 0) {
    std::memcpy(buffer_.data(), p, len);
    buffer_len_ = len;
  }
}

Sha1Digest Sha1::Finish() {
  // Append 0x80, pad with zeros to 56 mod 64, then the bit length big-endian.
  // Padding is written straight into the block buffer — routing a digest per
  // intermediate record through here made the old byte-at-a-time Update()
  // padding loop the single hottest code in ShuffleWriter::Add.
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    internal::Compress(state_, buffer_.data());
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  internal::Compress(state_, buffer_.data());
  buffer_len_ = 0;

  Sha1Digest out;
  for (int i = 0; i < 5; ++i) {
    out[4 * i + 0] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

namespace internal {

void CompressScalar(Sha1State& state, const std::uint8_t* block) {
  std::uint32_t w[80];
  for (int t = 0; t < 16; ++t) {
    w[t] = (std::uint32_t(block[4 * t]) << 24) | (std::uint32_t(block[4 * t + 1]) << 16) |
           (std::uint32_t(block[4 * t + 2]) << 8) | std::uint32_t(block[4 * t + 3]);
  }
  for (int t = 16; t < 80; ++t) w[t] = Rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1);

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3], e = state[4];
  // One loop per round phase: the selector branch was per-round and
  // unpredictable to the optimizer; splitting it lets each phase's f/k fold
  // into straight-line code.
  for (int t = 0; t < 20; ++t) {
    std::uint32_t tmp = Rotl(a, 5) + ((b & c) | (~b & d)) + e + 0x5A827999u + w[t];
    e = d; d = c; c = Rotl(b, 30); b = a; a = tmp;
  }
  for (int t = 20; t < 40; ++t) {
    std::uint32_t tmp = Rotl(a, 5) + (b ^ c ^ d) + e + 0x6ED9EBA1u + w[t];
    e = d; d = c; c = Rotl(b, 30); b = a; a = tmp;
  }
  for (int t = 40; t < 60; ++t) {
    std::uint32_t tmp = Rotl(a, 5) + ((b & c) | (b & d) | (c & d)) + e + 0x8F1BBCDCu + w[t];
    e = d; d = c; c = Rotl(b, 30); b = a; a = tmp;
  }
  for (int t = 60; t < 80; ++t) {
    std::uint32_t tmp = Rotl(a, 5) + (b ^ c ^ d) + e + 0xCA62C1D6u + w[t];
    e = d; d = c; c = Rotl(b, 30); b = a; a = tmp;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
}

#ifdef ECLIPSE_SHA1_X86

// Four rounds per sha1rnds4. Two registers alternate as the E input: before
// each group one of them saves ABCD, and sha1nexte turns that saved A into
// the next group's E (rotl(A, 30)) plus its four schedule words. The
// schedule keeps W[4k..4k+3] in m0..m3 as a ring: in group k, msg2 finishes
// the words of group k+1, the xor feeds group k+2 and msg1 starts group k+3.
// Groups 17-19 compute a few words past W[79]; their results are unused and
// the compiler drops them.
#define ECLIPSE_SHA1_GROUP(e_in, e_save, f, mk, mk1, mk2, mk3) \
  e_in = _mm_sha1nexte_epu32(e_in, mk);                         \
  e_save = abcd;                                                \
  abcd = _mm_sha1rnds4_epu32(abcd, e_in, f);                    \
  mk1 = _mm_sha1msg2_epu32(mk1, mk);                            \
  mk2 = _mm_xor_si128(mk2, mk);                                 \
  mk3 = _mm_sha1msg1_epu32(mk3, mk)

__attribute__((target("sha,sse4.1"))) void CompressShaNi(Sha1State& state,
                                                          const std::uint8_t* block) {
  // Reverses all 16 bytes: big-endian words, and W[0] in the top lane.
  const __m128i kByteSwap = _mm_set_epi64x(0x0001020304050607ll, 0x08090a0b0c0d0e0fll);
  __m128i abcd = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state.data())),
                                   0x1B);
  const __m128i abcd_in = abcd;
  __m128i e0 = _mm_set_epi32(static_cast<int>(state[4]), 0, 0, 0);
  const __m128i e_in = e0;
  __m128i e1;
  const auto* words = reinterpret_cast<const __m128i*>(block);
  __m128i m0 = _mm_shuffle_epi8(_mm_loadu_si128(words + 0), kByteSwap);
  __m128i m1 = _mm_shuffle_epi8(_mm_loadu_si128(words + 1), kByteSwap);
  __m128i m2 = _mm_shuffle_epi8(_mm_loadu_si128(words + 2), kByteSwap);
  __m128i m3 = _mm_shuffle_epi8(_mm_loadu_si128(words + 3), kByteSwap);

  // Groups 0-2 run before the schedule has four words to combine.
  e0 = _mm_add_epi32(e0, m0);
  e1 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
  e1 = _mm_sha1nexte_epu32(e1, m1);
  e0 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e1, 0);
  m0 = _mm_sha1msg1_epu32(m0, m1);
  e0 = _mm_sha1nexte_epu32(e0, m2);
  e1 = abcd;
  abcd = _mm_sha1rnds4_epu32(abcd, e0, 0);
  m1 = _mm_sha1msg1_epu32(m1, m2);
  m0 = _mm_xor_si128(m0, m2);

  ECLIPSE_SHA1_GROUP(e1, e0, 0, m3, m0, m1, m2);  // rounds 12-15
  ECLIPSE_SHA1_GROUP(e0, e1, 0, m0, m1, m2, m3);
  ECLIPSE_SHA1_GROUP(e1, e0, 1, m1, m2, m3, m0);  // rounds 20-23
  ECLIPSE_SHA1_GROUP(e0, e1, 1, m2, m3, m0, m1);
  ECLIPSE_SHA1_GROUP(e1, e0, 1, m3, m0, m1, m2);
  ECLIPSE_SHA1_GROUP(e0, e1, 1, m0, m1, m2, m3);
  ECLIPSE_SHA1_GROUP(e1, e0, 1, m1, m2, m3, m0);
  ECLIPSE_SHA1_GROUP(e0, e1, 2, m2, m3, m0, m1);  // rounds 40-43
  ECLIPSE_SHA1_GROUP(e1, e0, 2, m3, m0, m1, m2);
  ECLIPSE_SHA1_GROUP(e0, e1, 2, m0, m1, m2, m3);
  ECLIPSE_SHA1_GROUP(e1, e0, 2, m1, m2, m3, m0);
  ECLIPSE_SHA1_GROUP(e0, e1, 2, m2, m3, m0, m1);
  ECLIPSE_SHA1_GROUP(e1, e0, 3, m3, m0, m1, m2);  // rounds 60-63
  ECLIPSE_SHA1_GROUP(e0, e1, 3, m0, m1, m2, m3);
  ECLIPSE_SHA1_GROUP(e1, e0, 3, m1, m2, m3, m0);
  ECLIPSE_SHA1_GROUP(e0, e1, 3, m2, m3, m0, m1);
  ECLIPSE_SHA1_GROUP(e1, e0, 3, m3, m0, m1, m2);  // rounds 76-79

  // e0 saved ABCD before the last group: its rotated A is the final E.
  e0 = _mm_sha1nexte_epu32(e0, e_in);
  abcd = _mm_add_epi32(abcd, abcd_in);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state.data()), _mm_shuffle_epi32(abcd, 0x1B));
  state[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e0, 3));
}

#undef ECLIPSE_SHA1_GROUP

bool HasShaNi() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") != 0;
  }();
  return has;
}

#else

void CompressShaNi(Sha1State& state, const std::uint8_t* block) { CompressScalar(state, block); }

bool HasShaNi() { return false; }

#endif  // ECLIPSE_SHA1_X86

void Compress(Sha1State& state, const std::uint8_t* block) {
  if (HasShaNi()) {
    CompressShaNi(state, block);
  } else {
    CompressScalar(state, block);
  }
}

}  // namespace internal

std::string ToHex(const Sha1Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string s;
  s.reserve(40);
  for (std::uint8_t byte : d) {
    s.push_back(kHex[byte >> 4]);
    s.push_back(kHex[byte & 0xF]);
  }
  return s;
}

}  // namespace eclipse
