// AES-128 (FIPS 197) forward cipher plus CTR mode. Only the forward
// transform is implemented because every mode the platform uses (CTR, GCM)
// runs AES exclusively in the encrypt direction.
//
// An `Aes128` instance IS the cached key schedule: construction expands the
// key once, after which `encrypt_block`/`ctr_xor_in_place` are free of any
// per-call expansion. Long-lived callers (GcmContext, the PON data plane)
// hold one instance per key and rebuild it only on rekey; the key-taking
// free functions remain for one-shot use.
//
// `ctr_xor_wide` runs on the data-plane backend CPUID selects (VAES or
// AES-NI when the CPU has it, else T-tables); `encrypt_block` and
// `ctr_xor_in_place` stay byte-wise on every CPU, as the oracle the wide
// path is tested against.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "genio/common/bytes.hpp"
#include "genio/crypto/cpu.hpp"

namespace genio::crypto {

using common::Bytes;
using common::BytesView;

/// 128-bit AES key.
using AesKey = std::array<std::uint8_t, 16>;
/// One AES block.
using AesBlock = std::array<std::uint8_t, 16>;

/// Expanded-key AES-128 context (the reusable cached schedule).
class Aes128 {
 public:
  /// `kernel` lets tests run the backends side by side. Throws
  /// std::invalid_argument if the CPU lacks it.
  explicit Aes128(const AesKey& key,
                  DataplaneKernel kernel = dispatched_dataplane_kernel());

  /// The backend ctr_xor_wide runs on.
  DataplaneKernel kernel() const { return kernel_; }

  /// Encrypt a single 16-byte block.
  AesBlock encrypt_block(const AesBlock& plaintext) const;

  /// AES-CTR keystream XOR in place over `data`, starting from counter
  /// block `iv` (trailing 32-bit big-endian counter). Reuses the cached
  /// schedule — no allocation, no copies.
  void ctr_xor_in_place(const AesBlock& iv, std::span<std::uint8_t> data) const;

  /// Wide AES-CTR on this instance's backend, byte-for-byte identical to
  /// ctr_xor_in_place for every length. kVaesAvx512 runs sixteen blocks per
  /// pass in four ZMM registers, and a tail on as many masked registers as
  /// it needs; kAesPclmul keeps eight blocks of aesenc rounds in flight;
  /// kPortable interleaves four blocks' rounds over
  /// T-tables and the round-key-major u32 schedule, and hands tails shorter
  /// than 64 bytes to the single-block path. One block of zeros through it
  /// is E_K(iv), which is how GcmContext gets H on every backend and E_K(J0)
  /// on kPortable (the hardware backends' fused seal and open compute it in
  /// the same call).
  void ctr_xor_wide(const AesBlock& iv, std::span<std::uint8_t> data) const;

 private:
  // The fused AES-GCM kernels read the schedule directly.
  friend class GcmContext;

  // FIPS-197 byte order, the order aesenc reads its round key in.
  std::array<std::array<std::uint8_t, 16>, 11> round_keys_;
  // Round-key-major layout: rk_words_[4*r + j] is column j of round key r as
  // a big-endian u32 — the shape the wide T-table rounds consume directly.
  std::array<std::uint32_t, 44> rk_words_{};
  DataplaneKernel kernel_;
};

/// AES-128-CTR keystream XOR: encryption and decryption are the same
/// operation. `iv` is the initial 16-byte counter block; the counter
/// occupies the last 4 bytes (big-endian), as in NIST SP 800-38A examples.
/// Expands the key schedule per call — prefer Aes128::ctr_xor_in_place on
/// hot paths.
Bytes aes128_ctr(const AesKey& key, const AesBlock& iv, BytesView data);

/// Build an AesKey from a byte view (must be exactly 16 bytes).
AesKey make_aes_key(BytesView bytes);

}  // namespace genio::crypto
