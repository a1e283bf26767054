// AES-128-GCM (NIST SP 800-38D): authenticated encryption used by the
// MACsec layer (IEEE 802.1AE mandates AES-GCM) and by GPON payload
// protection. Includes GHASH over GF(2^128).
//
// One sealing/opening code path is compiled in — GcmContext — plus the
// bitwise GHASH oracle (the free `ghash()` function) that tests and the
// data-plane bench pin it against:
//   * GcmContext — the data-plane path: construction expands the AES round
//     keys once and precomputes 8-bit Shoup tables for the hash-subkey
//     powers H^1..H^4 (256 x 16-byte entries each), so GHASH folds four
//     blocks per reduction (four independent Horner chains instead of one
//     serial multiply-per-block) and the CTR keystream runs through the
//     4-wide interleaved AES path; seal/open operate in place on the
//     caller's buffer.
//   * gcm_seal/gcm_open free functions construct a stack GcmContext —
//     same bytes as always (pinned by NIST vectors and the bitwise GHASH
//     oracle), but no longer a duplicated CTR/GHASH implementation.
// A GcmContext is immutable after construction and therefore safely
// shareable read-only across threads (proved under TSan).
#pragma once

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

/// Precomputed per-key GCM state: AES round keys + Shoup tables for the
/// hash-subkey powers H^1..H^4. Build once per key, rebuild only on rekey,
/// share read-only thereafter.
class GcmContext {
 public:
  explicit GcmContext(const AesKey& key);

  /// Encrypt `data` in place and return the authentication tag.
  GcmTag seal_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                       BytesView aad) const;

  /// Verify the tag over `data` (ciphertext) + `aad`, then decrypt `data`
  /// in place. On tag mismatch `data` is left untouched (still ciphertext)
  /// and kDecryptionFailed is returned.
  Status open_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                       const GcmTag& tag, BytesView aad) const;

  /// Allocating conveniences with the same signature shape as the free
  /// functions (one output allocation, still schedule- and table-cached).
  GcmSealed seal(const GcmNonce& nonce, BytesView plaintext, BytesView aad) const;
  Result<Bytes> open(const GcmNonce& nonce, BytesView ciphertext, const GcmTag& tag,
                     BytesView aad) const;

  /// Table-driven aggregated GHASH over this context's hash subkey —
  /// exposed so tests can pin it against the bitwise ghash() oracle.
  AesBlock ghash(BytesView data) const;

  /// The hash subkey H = E_K(0^128) (for tests).
  const AesBlock& h() const { return h_pows_[0]; }

  /// H^power for power in 1..4 (for tests pinning the aggregation tables).
  const AesBlock& h_pow(int power) const {
    return h_pows_[static_cast<std::size_t>(power - 1)];
  }

  /// The underlying cached-schedule cipher (CTR reuse, tests).
  const Aes128& cipher() const { return cipher_; }

 private:
  AesBlock mult_h(const AesBlock& x) const;
  void ghash_fold(AesBlock& y, BytesView data) const;
  GcmTag compute_tag(const AesBlock& j0, BytesView aad, BytesView ciphertext) const;

  Aes128 cipher_;
  // h_pows_[p-1] = H^p; H^1 is the classic subkey, H^2..H^4 feed the
  // aggregated fold (four independent Horner chains, one reduction each
  // per 4-block group).
  std::array<AesBlock, 4> h_pows_{};
  // Shoup tables of B*H^p for every byte value B, split into 64-bit halves
  // (hi = bytes 0..7 big-endian, lo = bytes 8..15) so one block multiply
  // is 16 lookups folded with two-word shifts. Built from 8 doublings
  // plus subset XORs per power — cheap enough to rebuild on every rekey.
  // The key-independent byte-reduction table is a shared process-wide
  // static.
  std::array<std::array<std::uint64_t, 256>, 4> pow_hi_{};
  std::array<std::array<std::uint64_t, 256>, 4> pow_lo_{};
};

}  // namespace genio::crypto
