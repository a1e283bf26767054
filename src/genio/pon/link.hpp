// A protected point-to-point Ethernet link (inter-OLT / OLT-to-cloud)
// with MKA-style key management on top of MACsec: the link re-keys after
// a configurable number of frames (well before PN exhaustion), rotating
// the SAK via HKDF from a connectivity association key (CAK), exactly the
// lifecycle 802.1X-2010 MKA automates.
#pragma once

#include <memory>

#include "genio/crypto/hmac.hpp"
#include "genio/pon/macsec.hpp"

namespace genio::pon {

struct LinkStats {
  std::uint64_t frames_delivered = 0;
  std::uint64_t frames_rejected = 0;
  std::uint32_t rekey_count = 0;
};

/// One endpoint's view of the protected link. Two endpoints constructed
/// from the same CAK and link id stay in sync: re-keying is triggered by
/// frame count, which both sides observe identically in order.
///
/// Each epoch's SecY carries the cached GcmContext for its SAK, so the
/// AES key schedule and GHASH key powers are built exactly once per rekey —
/// every frame in between reuses them.
class MacsecLink {
 public:
  /// `rekey_after` frames per SAK epoch, in [1, 2^32 - 1]: each epoch's
  /// SecY numbers its frames from PN 1, and a PN must not repeat under one
  /// SAK. Throws std::invalid_argument otherwise.
  MacsecLink(std::uint64_t local_sci, BytesView cak, std::string link_id,
             std::uint64_t rekey_after = 1u << 20);

  /// Protect an outgoing frame (may trigger a tx-side epoch advance).
  MacsecFrame send(const EthFrame& frame);

  /// Validate an incoming frame from the peer (advances the rx-side epoch
  /// on the same schedule).
  common::Result<EthFrame> receive(const MacsecFrame& frame);

  std::uint32_t tx_epoch() const { return tx_epoch_; }
  const LinkStats& stats() const { return stats_; }

 private:
  crypto::AesKey sak_for_epoch(std::uint32_t epoch) const;
  void roll_tx();
  void roll_rx();

  common::Bytes cak_;
  std::string link_id_;
  std::uint64_t rekey_after_;

  std::uint32_t tx_epoch_ = 0;
  std::uint32_t rx_epoch_ = 0;
  std::uint64_t tx_in_epoch_ = 0;
  std::uint64_t rx_in_epoch_ = 0;

  std::uint64_t local_sci_;
  std::unique_ptr<MacsecSecY> tx_;
  std::unique_ptr<MacsecSecY> rx_;
  LinkStats stats_;
};

}  // namespace genio::pon
