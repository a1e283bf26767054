// SHA-256 (FIPS 180-4), implemented from scratch. This is the root hash for
// everything integrity-related in the platform: TPM PCR extension, Merkle
// signatures, file-integrity baselines, package digests, and certificates.
//
// Two compression kernels produce identical digests: the portable scalar
// one (the fallback and the oracle the tests pin against) and one on the
// x86 SHA extensions. Contexts use the kernel CPUID selects, once per
// process; there is no knob that picks one. Sha256Lanes runs 16
// independent compressions at once for callers that have that many, such
// as WOTS+ keygen, in AVX-512F registers or by looping one of those two.
#pragma once

#include <array>
#include <cstdint>

#include "genio/common/bytes.hpp"

namespace genio::crypto {

using common::Bytes;
using common::BytesView;

/// 32-byte SHA-256 digest.
using Digest = std::array<std::uint8_t, 32>;

/// Streaming SHA-256 context. Copyable: a copy taken after absorbing a
/// prefix is a midstate that can finish several messages sharing it.
class Sha256 {
 public:
  /// Compression kernels; every kernel yields the same digests.
  enum class Kernel { kScalar, kShaNi };

  /// The kernel default-constructed contexts use: SHA-NI when CPUID
  /// reports it, else scalar. Resolved on first call.
  static Kernel dispatched_kernel();
  /// Whether `kernel` can run on this CPU (kScalar always can).
  static bool supports(Kernel kernel);

  Sha256();
  /// A context on one specific kernel, so tests can run the kernels side
  /// by side. Throws std::invalid_argument if the CPU lacks it.
  explicit Sha256(Kernel kernel);

  Sha256& update(BytesView data);
  Sha256& update(std::string_view text);

  /// Finalize and return the digest. The context must not be reused after.
  Digest finish();

  /// Chaining value as eight big-endian words.
  using Midstate = std::array<std::uint32_t, 8>;
  /// The chaining value after the whole blocks absorbed so far (the IV on
  /// a fresh context). Throws std::logic_error if a partial block is
  /// buffered.
  const Midstate& midstate() const;

  /// One-shot convenience.
  static Digest hash(BytesView data);
  static Digest hash(std::string_view text);

 private:
  // Compresses `count` consecutive 64-byte blocks into `state`.
  using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t count);

  CompressFn compress_;
  Midstate state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Sixteen independent single-block SHA-256 compressions in lockstep, one
/// per lane. Words are lane-sliced: `state[i][lane]` is word i of a lane's
/// chaining value and `block[j][lane]` word j of its message block, in the
/// big-endian word order FIPS 180-4 reads a block in. There is no padding
/// and no byte order here; the caller lays out whole blocks, so a chain of
/// compressions can stay in words from one step to the next.
class Sha256Lanes {
 public:
  static constexpr std::size_t kLanes = 16;
  using State = std::array<std::array<std::uint32_t, kLanes>, 8>;
  using Block = std::array<std::array<std::uint32_t, kLanes>, 16>;

  /// Backends; every backend yields the same states. kAvx512f runs the
  /// lanes in AVX-512F registers; kShaNi and kScalar loop that
  /// single-stream Sha256 kernel over the lanes.
  enum class Kernel { kAvx512f, kShaNi, kScalar };

  /// AVX-512F when CPUID and the OS allow it, else the loop over
  /// Sha256::dispatched_kernel(). Resolved on first call.
  static Kernel dispatched_kernel();
  /// Whether `kernel` can run on this CPU (kScalar always can).
  static bool supports(Kernel kernel);

  /// Lanes on one backend. Throws std::invalid_argument if the CPU
  /// lacks it.
  explicit Sha256Lanes(Kernel kernel);

  /// Compresses block[.][lane] into state[.][lane], for every lane.
  void compress(State& state, const Block& block) const { compress_(state, block); }

 private:
  using CompressFn = void (*)(State& state, const Block& block);

  CompressFn compress_;
};

/// Digest -> Bytes (for APIs that move byte buffers around).
Bytes digest_bytes(const Digest& d);
/// Digest -> lowercase hex.
std::string digest_hex(const Digest& d);

}  // namespace genio::crypto
