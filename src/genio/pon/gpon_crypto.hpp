// GPON payload protection per ITU-T G.987.3 guidance (M3): AES-GCM over
// XGEM payloads, keyed per ONU, with the IV derived from the superframe
// counter so both ends stay in sync without per-frame nonces on the wire.
//
// Data-plane fast path: the cipher holds one GcmContext for the ONU data
// key — AES round keys and the GHASH table are expanded at construction
// (and on rekey) only, and seal/open run in place on the frame payload:
// the CTR keystream is XORed into the payload bytes and the tag lands in
// reserved capacity at the tail, with zero intermediate buffers.
#pragma once

#include "genio/crypto/gcm.hpp"
#include "genio/pon/frame.hpp"

namespace genio::pon {

/// Encrypts/decrypts GEM payloads for one ONU data key.
class GponCipher {
 public:
  explicit GponCipher(const crypto::AesKey& data_key) : ctx_(data_key) {}

  /// Encrypt `frame`'s payload in place (sets encrypted flag, reseals FCS).
  void encrypt(GemFrame& frame) const;

  /// Decrypt in place; fails on tag mismatch (tampering or key mismatch).
  common::Status decrypt(GemFrame& frame) const;

  /// Install a new data key (M4 rekey): rebuilds the cached context once;
  /// every subsequent frame reuses the new schedule.
  void rekey(const crypto::AesKey& data_key) { ctx_ = crypto::GcmContext(data_key); }

  /// The per-key context (shared read-only with tests/bench).
  const crypto::GcmContext& context() const { return ctx_; }

 private:
  crypto::GcmNonce nonce_for(const GemFrame& frame) const;
  crypto::GcmContext ctx_;
};

}  // namespace genio::pon
