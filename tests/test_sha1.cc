#include "common/sha1.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <random>

#include "common/hash_key.h"

namespace eclipse {
namespace {

TEST(Sha1, EmptyString) {
  EXPECT_EQ(ToHex(Sha1::Hash("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(ToHex(Sha1::Hash("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(ToHex(Sha1::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(ToHex(h.Finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(ToHex(Sha1::Hash("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

// Incremental updates must agree with one-shot hashing regardless of how the
// input is chunked.
class Sha1Chunking : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Sha1Chunking, MatchesOneShot) {
  std::string msg;
  for (int i = 0; i < 500; ++i) msg += "payload-" + std::to_string(i) + "|";
  Sha1Digest expected = Sha1::Hash(msg);

  Sha1 h;
  std::size_t chunk = GetParam();
  for (std::size_t pos = 0; pos < msg.size(); pos += chunk) {
    h.Update(msg.data() + pos, std::min(chunk, msg.size() - pos));
  }
  EXPECT_EQ(h.Finish(), expected);
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha1Chunking,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 127, 128, 1000));

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.Update("first message");
  h.Finish();
  h.Reset();
  h.Update("abc");
  EXPECT_EQ(ToHex(h.Finish()), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, BoundaryLengths) {
  // Messages straddling the padding boundary (55/56/63/64 bytes).
  for (std::size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    std::string msg(len, 'x');
    Sha1 a;
    a.Update(msg);
    Sha1 b;
    for (char c : msg) b.Update(&c, 1);
    EXPECT_EQ(a.Finish(), b.Finish()) << "len=" << len;
  }
}

// The two compression paths. Each runs whole messages through a padding
// written here, independent of Sha1::Finish, and must reproduce the FIPS
// vectors, a reference digest from an independent SHA-1, and each other.

enum class Path { kScalar, kShaNi };

using CompressFn = void (*)(internal::Sha1State&, const std::uint8_t*);

CompressFn FnOf(Path p) {
  return p == Path::kScalar ? internal::CompressScalar : internal::CompressShaNi;
}

Sha1Digest HashWith(CompressFn compress, std::string_view msg) {
  std::string padded(msg);
  padded += '\x80';
  while (padded.size() % 64 != 56) padded += '\0';
  const std::uint64_t bits = std::uint64_t{msg.size()} * 8;
  for (int i = 0; i < 8; ++i) padded += static_cast<char>(bits >> (56 - 8 * i));
  internal::Sha1State st = internal::kSha1Init;
  for (std::size_t off = 0; off < padded.size(); off += 64) {
    compress(st, reinterpret_cast<const std::uint8_t*>(padded.data() + off));
  }
  Sha1Digest out;
  for (int i = 0; i < 20; ++i) out[i] = static_cast<std::uint8_t>(st[i / 4] >> (24 - 8 * (i % 4)));
  return out;
}

// Message of length `len` used by the every-length sweep.
std::string SweepMessage(std::size_t len) {
  std::string msg(len, '\0');
  for (std::size_t i = 0; i < len; ++i) msg[i] = static_cast<char>((i * 131 + len * 7) & 0xFF);
  return msg;
}

TEST(Sha1Paths, LogsDispatchedPath) {
  const char* path = internal::HasShaNi() ? "SHA-NI" : "scalar";
  std::printf("[          ] SHA-1 compression path on this CPU: %s\n", path);
  RecordProperty("sha1_path", path);
#if defined(__x86_64__) || defined(__i386__)
  EXPECT_EQ(internal::HasShaNi(), __builtin_cpu_supports("sha") != 0);
#else
  EXPECT_FALSE(internal::HasShaNi());
#endif
}

class Sha1Path : public ::testing::TestWithParam<Path> {
 protected:
  void SetUp() override {
    if (GetParam() == Path::kShaNi && !internal::HasShaNi()) {
      GTEST_SKIP() << "CPU lacks the SHA extensions: SHA-NI path not tested";
    }
  }
  CompressFn fn() const { return FnOf(GetParam()); }
};

TEST_P(Sha1Path, FipsVectors) {
  EXPECT_EQ(ToHex(HashWith(fn(), "")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(ToHex(HashWith(fn(), "abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(ToHex(HashWith(fn(), "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
  EXPECT_EQ(ToHex(HashWith(fn(), std::string(1000000, 'a'))),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

// Every length from 0 to 300 bytes covers each padding case (one block, a
// spill into a second block, exact multiples) several times over.
TEST_P(Sha1Path, EveryLengthTo300) {
  Sha1 all;  // SHA-1 of the concatenated digests, pinned below
  for (std::size_t len = 0; len <= 300; ++len) {
    const std::string msg = SweepMessage(len);
    const Sha1Digest d = HashWith(fn(), msg);
    EXPECT_EQ(d, HashWith(internal::CompressScalar, msg)) << "len=" << len;
    EXPECT_EQ(d, Sha1::Hash(msg)) << "len=" << len;
    all.Update(d.data(), d.size());
  }
  // Computed with an independent SHA-1 (Python's hashlib).
  EXPECT_EQ(ToHex(all.Finish()), "96707b37cb0466e94cbad279056d5be0aa73fc9d");
}

INSTANTIATE_TEST_SUITE_P(Paths, Sha1Path, ::testing::Values(Path::kScalar, Path::kShaNi),
                         [](const ::testing::TestParamInfo<Path>& info) {
                           return std::string(info.param == Path::kScalar ? "Scalar" : "ShaNi");
                         });

TEST(Sha1Paths, ShaNiMatchesScalarOnRandomInput) {
  if (!internal::HasShaNi()) GTEST_SKIP() << "CPU lacks the SHA extensions: nothing to compare";
  std::mt19937_64 rng(20170905);
  std::string msg;
  for (int n = 0; n < 100000; ++n) {
    msg.resize(rng() % 300);
    for (char& c : msg) c = static_cast<char>(rng());
    ASSERT_EQ(HashWith(internal::CompressShaNi, msg), HashWith(internal::CompressScalar, msg))
        << "message " << n << ", len=" << msg.size();
  }
  // Raw compressions from arbitrary chaining states, not just the IV.
  for (int n = 0; n < 10000; ++n) {
    internal::Sha1State a;
    for (auto& w : a) w = static_cast<std::uint32_t>(rng());
    std::uint8_t block[64];
    for (auto& b : block) b = static_cast<std::uint8_t>(rng());
    internal::Sha1State b = a;
    internal::CompressScalar(a, block);
    internal::CompressShaNi(b, block);
    ASSERT_EQ(a, b) << "compression " << n;
  }
}

// KeyOf pads names of up to 55 bytes into one block itself; longer names go
// through Sha1. Both must give the top 8 bytes of the ordinary digest.
TEST(KeyOfOneBlock, MatchesIncrementalSha1) {
  for (std::size_t len : {0u, 1u, 55u, 56u, 63u, 64u, 119u, 120u}) {
    const std::string msg = SweepMessage(len);
    Sha1 h;
    for (char c : msg) h.Update(&c, 1);
    const Sha1Digest d = h.Finish();
    HashKey want = 0;
    for (int i = 0; i < 8; ++i) want = (want << 8) | d[i];
    EXPECT_EQ(KeyOf(msg), want) << "len=" << len;
  }
}

}  // namespace
}  // namespace eclipse
