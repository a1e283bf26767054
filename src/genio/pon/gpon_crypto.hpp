// GPON payload protection per ITU-T G.987.3 guidance (M3): AES-GCM over
// XGEM payloads, keyed per ONU, with the IV derived from the superframe
// counter so both ends stay in sync without per-frame nonces on the wire.
// Both directions of a link seal under the same session data key, and the
// OLT and the ONU count superframes independently, so the IV also carries
// the direction: without it a downstream and an upstream frame of one ONU
// and port would reuse a GCM nonce.
//
// Data-plane fast path: the cipher holds one GcmContext for the ONU data
// key — AES round keys and the GHASH key powers are expanded at
// construction (and on rekey) only — and seal/open run in place on the
// frame payload, one fused kernel call each on the hardware backends. The
// tag is appended to the payload: encrypt() reserves its 16 bytes first,
// which reallocates and copies a payload that has no spare capacity, as
// every freshly copied frame does (about 28 ns at 64 B and 155 ns at 9 KB,
// single-thread on a 4-vCPU Xeon). Carrying the tag outside the payload
// would avoid that copy but change frame sizes and digests.
#pragma once

#include "genio/crypto/gcm.hpp"
#include "genio/pon/frame.hpp"

namespace genio::pon {

/// Which way a frame travels on the tree; it is byte 8 of the GCM IV.
enum class Direction : std::uint8_t { kDownstream = 0, kUpstream = 1 };

/// Encrypts/decrypts GEM payloads for one ONU data key.
class GponCipher {
 public:
  explicit GponCipher(const crypto::AesKey& data_key) : ctx_(data_key) {}

  /// Encrypt `frame`'s payload in place (sets encrypted flag, reseals FCS).
  void encrypt(GemFrame& frame, Direction direction = Direction::kDownstream) const;

  /// Decrypt in place; fails on tag mismatch (tampering, key mismatch, or
  /// a frame sealed for the other direction).
  common::Status decrypt(GemFrame& frame, Direction direction = Direction::kDownstream) const;

  /// Install a new data key (M4 rekey): rebuilds the cached context once;
  /// every subsequent frame reuses the new schedule.
  void rekey(const crypto::AesKey& data_key) { ctx_ = crypto::GcmContext(data_key); }

  /// The per-key context (shared read-only with tests/bench).
  const crypto::GcmContext& context() const { return ctx_; }

 private:
  static crypto::GcmNonce nonce_for(const GemFrame& frame, Direction direction);
  crypto::GcmContext ctx_;
};

}  // namespace genio::pon
