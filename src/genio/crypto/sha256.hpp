// SHA-256 (FIPS 180-4), implemented from scratch. This is the root hash for
// everything integrity-related in the platform: TPM PCR extension, Merkle
// signatures, file-integrity baselines, package digests, and certificates.
//
// Two compression kernels produce identical digests: the portable scalar
// one (the fallback and the oracle the tests pin against) and one on the
// x86 SHA extensions. Contexts use the kernel CPUID selects, once per
// process; there is no knob that picks one.
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

  /// One-shot convenience.
  static Digest hash(BytesView data);
  static Digest hash(std::string_view text);

 private:
  // Compresses `count` consecutive 64-byte blocks into `state`.
  using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                              std::size_t count);

  CompressFn compress_;
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// Digest -> Bytes (for APIs that move byte buffers around).
Bytes digest_bytes(const Digest& d);
/// Digest -> lowercase hex.
std::string digest_hex(const Digest& d);

}  // namespace genio::crypto
