// HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869). HMAC authenticates frames and
// sealed blobs; HKDF derives session keys in the node-authentication
// handshake (M4) and MACsec key hierarchy (M3).
#pragma once

#include "genio/crypto/sha256.hpp"

namespace genio::crypto {

/// HMAC-SHA256 under one key. The key pads are absorbed once, at
/// construction: each mac() resumes from the saved inner and outer
/// midstates, so it costs two compressions fewer than a one-shot HMAC.
class HmacSha256 {
 public:
  /// `kernel` lets tests pin HMAC vectors on each SHA-256 kernel.
  explicit HmacSha256(BytesView key,
                      Sha256::Kernel kernel = Sha256::dispatched_kernel());

  Digest mac(BytesView data) const;

  /// The chaining values after H(key ^ ipad) and H(key ^ opad): callers
  /// that lay out their own blocks (lane-sliced WOTS+ keygen) resume from
  /// these instead of re-deriving the pads.
  const Sha256::Midstate& inner_midstate() const { return inner_.midstate(); }
  const Sha256::Midstate& outer_midstate() const { return outer_.midstate(); }

 private:
  Sha256 inner_;  // after H(key ^ ipad)
  Sha256 outer_;  // after H(key ^ opad)
};

/// HMAC-SHA256 over `data` with `key` (any key length).
Digest hmac_sha256(BytesView key, BytesView data);
Digest hmac_sha256(BytesView key, std::string_view text);

/// HKDF-Extract: PRK = HMAC(salt, ikm).
Digest hkdf_extract(BytesView salt, BytesView ikm);

/// HKDF-Expand: derive `length` bytes (length <= 255*32) bound to `info`.
Bytes hkdf_expand(const Digest& prk, BytesView info, std::size_t length);

/// Extract-then-expand convenience.
Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length);

}  // namespace genio::crypto
