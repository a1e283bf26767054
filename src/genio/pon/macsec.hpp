// MACsec (IEEE 802.1AE) over the simulated Ethernet segments (M3).
// AES-128-GCM protects frames point-to-point; the SecTag (SCI + packet
// number) is authenticated as AAD, and receivers enforce a replay-protection
// window exactly as 802.1AE specifies.
#pragma once

#include <cstdint>

#include "genio/crypto/gcm.hpp"
#include "genio/pon/frame.hpp"

namespace genio::pon {

using crypto::AesKey;
using crypto::GcmTag;

/// The SecTag on the wire: SCI (8 bytes) || PN (4 bytes), big-endian.
using SecTag = std::array<std::uint8_t, 12>;

/// A protected frame on the wire: SecTag in the clear (authenticated),
/// original frame encrypted.
struct MacsecFrame {
  std::uint64_t sci = 0;    // Secure Channel Identifier of the sender
  std::uint32_t pn = 0;     // packet number (monotonic per channel)
  Bytes ciphertext;         // GCM(serialize(inner frame))
  GcmTag tag{};

  /// SecTag used as GCM AAD — fixed-size, stack-only.
  SecTag sectag() const;
};

/// Counters a SecY exposes for monitoring (consumed by Lesson 8 benches and
/// the runtime monitor).
struct MacsecStats {
  std::uint64_t protected_frames = 0;
  std::uint64_t validated_frames = 0;
  std::uint64_t replayed_frames = 0;
  std::uint64_t invalid_tag_frames = 0;
  std::uint64_t late_frames = 0;  // below the replay window entirely
};

/// One direction of a MACsec secure channel: a transmit side with a
/// monotonically increasing packet number, and a receive side with a
/// sliding replay window. A full link is two SecYs, one per peer.
///
/// The SecY owns a GcmContext for its SAK: key schedule and GHASH key
/// powers are expanded once at construction (i.e. once per rekey, since
/// MKA-style re-keying swaps in a fresh SecY), and every protect/validate
/// reuses them with in-place CTR + aggregated GHASH.
class MacsecSecY {
 public:
  /// `sci` identifies this transmitter; `sak` is the Secure Association Key
  /// shared with the peer; `replay_window` is the acceptable reordering
  /// span (0 = strict in-order).
  MacsecSecY(std::uint64_t sci, const AesKey& sak, std::uint32_t replay_window = 64);

  /// Protect an outgoing frame (encrypt + authenticate). Packet number
  /// advances by one per frame.
  MacsecFrame protect(const EthFrame& frame);

  /// Validate an incoming frame from the peer: GCM tag, then replay window.
  common::Result<EthFrame> validate(const MacsecFrame& frame);

  const MacsecStats& stats() const { return stats_; }
  std::uint32_t next_pn() const { return next_pn_; }

 private:
  crypto::GcmNonce nonce_for(std::uint64_t sci, std::uint32_t pn) const;

  std::uint64_t sci_;
  crypto::GcmContext ctx_;  // cached schedule + GHASH powers for the SAK
  std::uint32_t replay_window_;
  std::uint32_t next_pn_ = 1;

  // Receive-side replay state: highest PN seen + bitmap of recent PNs.
  std::uint32_t rx_highest_pn_ = 0;
  std::uint64_t rx_window_bitmap_ = 0;  // bit i => (rx_highest_pn_ - i) seen

  MacsecStats stats_;
};

}  // namespace genio::pon
