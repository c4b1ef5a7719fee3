// From-scratch SHA-1 (FIPS 180-4).
//
// EclipseMR, like Chord, places every object on the consistent-hash ring by
// SHA-1 of its name (paper Fig. 2: "Filesystem Hash = SHA1"). This is a
// self-contained implementation so the library has no crypto dependency;
// SHA-1's cryptographic weakness is irrelevant here — only uniformity of the
// digest matters for ring placement.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace eclipse {

/// 160-bit SHA-1 digest.
using Sha1Digest = std::array<std::uint8_t, 20>;

/// The SHA-1 block compression, exposed for the one-block `KeyOf` and for
/// tests that check both implementations against each other. Production
/// code calls `Compress`, which picks the path once per process.
namespace internal {

using Sha1State = std::array<std::uint32_t, 5>;

inline constexpr Sha1State kSha1Init = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu,
                                        0x10325476u, 0xC3D2E1F0u};

/// Portable compression of one 64-byte block into `state`.
void CompressScalar(Sha1State& state, const std::uint8_t* block);

/// The same compression on the x86 SHA extensions. Call it only when
/// `HasShaNi()` is true. Builds for other CPUs forward it to the scalar path.
void CompressShaNi(Sha1State& state, const std::uint8_t* block);

/// Whether this CPU has the SHA extensions (probed once per process).
bool HasShaNi();

/// `CompressShaNi` when `HasShaNi()`, else `CompressScalar`.
void Compress(Sha1State& state, const std::uint8_t* block);

}  // namespace internal

/// Incremental SHA-1 hasher.
///
///   Sha1 h;
///   h.Update("hello");
///   Sha1Digest d = h.Finish();
class Sha1 {
 public:
  Sha1() { Reset(); }

  /// Re-initialize to the empty-message state.
  void Reset();

  /// Absorb `len` bytes. May be called repeatedly.
  void Update(const void* data, std::size_t len);
  void Update(std::string_view s) { Update(s.data(), s.size()); }

  /// Finalize and return the digest. The hasher must be Reset() before reuse.
  Sha1Digest Finish();

  /// One-shot convenience.
  static Sha1Digest Hash(std::string_view s) {
    Sha1 h;
    h.Update(s);
    return h.Finish();
  }

 private:
  internal::Sha1State state_;
  std::uint64_t total_len_ = 0;           // bytes absorbed so far
  std::array<std::uint8_t, 64> buffer_;   // partial block
  std::size_t buffer_len_ = 0;
};

/// Lowercase hex string of a digest (40 chars).
std::string ToHex(const Sha1Digest& d);

}  // namespace eclipse
