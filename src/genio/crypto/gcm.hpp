// AES-128-GCM (NIST SP 800-38D): authenticated encryption used by the
// MACsec layer (IEEE 802.1AE mandates AES-GCM) and by GPON payload
// protection. Includes GHASH over GF(2^128).
//
// One sealing/opening code path is compiled in — GcmContext — plus the
// bitwise GHASH oracle (the free `ghash()` function) that tests and the
// data-plane bench pin it against:
//   * GcmContext — the data-plane path: construction expands the AES round
//     keys and the hash-subkey powers once, so GHASH folds several blocks
//     per reduction (independent products instead of one serial multiply
//     per block); seal/open operate in place on the caller's buffer. It
//     runs on the backend CPUID selects (DataplaneKernel in cpu.hpp).
//     On the two hardware backends a seal or an open is one fused kernel
//     call: E_K(J0) on its own aesenc chain, and the payload's CTR and
//     GHASH interleaved pass by pass (kVaesAvx512: sixteen blocks per pass
//     in ZMM registers against H^16..H^1; kAesPclmul: eight against
//     H^8..H^1), with the length block folded into the last group and the
//     AAD folded first or, in a short frame, into that group too. Each
//     backend has one pass fold, which ghash() and an AAD folded first
//     run too, and one carry-less reduction; the powers are stored in the
//     form those multiplies take, so the context is round keys and H
//     powers, 632 bytes. kPortable composes the pieces instead, as the
//     oracle: CTR through the 4-wide T-table path, then GHASH four blocks
//     per reduction against H^4..H^1, each power with an 8-bit Shoup table
//     (16 KB in all), built at construction and held behind a shared
//     pointer, so copies of a context share them.
//   * gcm_seal/gcm_open free functions construct a stack GcmContext —
//     same bytes as always (pinned by NIST vectors and the bitwise GHASH
//     oracle), but no longer a duplicated CTR/GHASH implementation.
// A GcmContext is immutable after construction and therefore safely
// shareable read-only across threads (proved under TSan).
#pragma once

#include <memory>
#include <span>

#include "genio/common/result.hpp"
#include "genio/crypto/aes.hpp"

namespace genio::crypto {

using common::Result;
using common::Status;

/// 96-bit GCM nonce (the recommended size; deterministic construction from
/// packet numbers, per 802.1AE).
using GcmNonce = std::array<std::uint8_t, 12>;
/// 128-bit authentication tag.
using GcmTag = std::array<std::uint8_t, 16>;

struct GcmSealed {
  Bytes ciphertext;
  GcmTag tag;
};

/// Encrypt-and-authenticate. `aad` is authenticated but not encrypted
/// (frame headers in MACsec). One-shot convenience: builds a stack
/// GcmContext per call — prefer a long-lived context on hot paths.
GcmSealed gcm_seal(const AesKey& key, const GcmNonce& nonce, BytesView plaintext,
                   BytesView aad);

/// Verify-and-decrypt. Fails with kDecryptionFailed if the tag does not
/// match (tampered ciphertext, wrong key, or wrong AAD). One-shot
/// convenience over a stack GcmContext.
Result<Bytes> gcm_open(const AesKey& key, const GcmNonce& nonce, BytesView ciphertext,
                       const GcmTag& tag, BytesView aad);

/// GHASH(H, data) — the bitwise 128-iteration oracle, exposed for tests
/// against NIST vectors and for pinning the aggregated table path.
AesBlock ghash(const AesBlock& h, BytesView data);

/// Shoup tables for H^1..H^4, defined in gcm.cpp (portable backend only).
struct GhashTables;

/// Precomputed per-key GCM state: AES round keys and the hash-subkey powers
/// its backend folds with (plus their Shoup tables on the portable
/// backend). Build once per key, rebuild only on rekey, share read-only
/// thereafter.
class GcmContext {
 public:
  /// `kernel` lets tests run the backends side by side. Throws
  /// std::invalid_argument if the CPU lacks it.
  explicit GcmContext(const AesKey& key,
                      DataplaneKernel kernel = dispatched_dataplane_kernel());

  /// Encrypt `data` in place and return the authentication tag.
  GcmTag seal_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                       BytesView aad) const;

  /// Verify the tag over `data` (ciphertext) + `aad` and decrypt `data` in
  /// place. On tag mismatch kDecryptionFailed is returned and `data` holds
  /// the ciphertext again: the hardware backends decrypt while they hash
  /// and then restore it with a second CTR pass; kPortable verifies before
  /// it decrypts.
  Status open_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                       const GcmTag& tag, BytesView aad) const;

  /// Allocating conveniences with the same signature shape as the free
  /// functions (one output allocation, still schedule- and table-cached).
  GcmSealed seal(const GcmNonce& nonce, BytesView plaintext, BytesView aad) const;
  Result<Bytes> open(const GcmNonce& nonce, BytesView ciphertext, const GcmTag& tag,
                     BytesView aad) const;

  /// Aggregated GHASH over this context's hash subkey on its backend —
  /// exposed so tests can pin it against the bitwise ghash() oracle.
  AesBlock ghash(BytesView data) const;

  /// The hash subkey H = E_K(0^128), in GCM byte order on every backend.
  AesBlock h() const;

  /// The underlying cached-schedule cipher (CTR reuse, tests).
  const Aes128& cipher() const { return cipher_; }

  /// The backend this context seals and opens on.
  DataplaneKernel kernel() const { return cipher_.kernel(); }

 private:
  // kPortable's tag: GHASH over AAD, ciphertext and lengths, XOR E_K(J0).
  GcmTag compute_tag(const AesBlock& j0, BytesView aad, BytesView ciphertext) const;
  // A hardware backend's one-call seal (open = false) or open: encrypts or
  // decrypts `data` in place and returns the tag over the ciphertext.
  GcmTag fused(bool open, const GcmNonce& nonce, std::span<std::uint8_t> data,
               BytesView aad) const;

  static constexpr int kMaxHPowers = 16;

  Aes128 cipher_;
  // h_pows_[16 - p] = H^p, highest power first: the order in which a
  // 16-block fold multiplies its blocks, so the ZMM kernel loads a pass's
  // powers straight, and a k-block group's as the last k entries. The
  // hardware backends store H^1..H^16 (kVaesAvx512) or H^1..H^8
  // (kAesPclmul) byte-reversed and times x^-1, the form their carry-less
  // multiplies take (gcm.cpp); kPortable stores H alone, in GCM byte
  // order, and multiplies through its Shoup tables.
  std::array<AesBlock, kMaxHPowers> h_pows_{};
  // Null on the hardware backends, which multiply carry-lessly instead.
  std::shared_ptr<const GhashTables> tables_;
};

}  // namespace genio::crypto
