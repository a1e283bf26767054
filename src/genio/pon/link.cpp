#include "genio/pon/link.hpp"

#include <limits>
#include <stdexcept>

namespace genio::pon {

MacsecLink::MacsecLink(std::uint64_t local_sci, BytesView cak, std::string link_id,
                       std::uint64_t rekey_after)
    : cak_(cak.begin(), cak.end()),
      link_id_(std::move(link_id)),
      rekey_after_(rekey_after),
      local_sci_(local_sci) {
  if (rekey_after == 0) throw std::invalid_argument("rekey_after must be > 0");
  // A SAK's SecY numbers frames from 1 in a 32-bit PN: a longer epoch would
  // wrap it and repeat the GCM nonce (SCI || PN) under one SAK.
  if (rekey_after > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("rekey_after must fit the 32-bit PN space");
  }
  tx_ = std::make_unique<MacsecSecY>(local_sci_, sak_for_epoch(0));
  rx_ = std::make_unique<MacsecSecY>(local_sci_ ^ 1, sak_for_epoch(0));
}

crypto::AesKey MacsecLink::sak_for_epoch(std::uint32_t epoch) const {
  Bytes info = common::to_bytes("mka-sak:" + link_id_ + ":");
  common::put_u32_be(info, epoch);
  return crypto::make_aes_key(crypto::hkdf({}, cak_, info, 16));
}

void MacsecLink::roll_tx() {
  ++tx_epoch_;
  tx_in_epoch_ = 0;
  // The fresh SecY expands the new SAK's key schedule + GHASH table once
  // here; the whole epoch (rekey_after_ frames) reuses the cached context.
  tx_ = std::make_unique<MacsecSecY>(local_sci_, sak_for_epoch(tx_epoch_));
  ++stats_.rekey_count;
}

void MacsecLink::roll_rx() {
  ++rx_epoch_;
  rx_in_epoch_ = 0;
  rx_ = std::make_unique<MacsecSecY>(local_sci_ ^ 1, sak_for_epoch(rx_epoch_));
}

MacsecFrame MacsecLink::send(const EthFrame& frame) {
  if (tx_in_epoch_ >= rekey_after_) roll_tx();
  ++tx_in_epoch_;
  return tx_->protect(frame);
}

common::Result<EthFrame> MacsecLink::receive(const MacsecFrame& frame) {
  if (rx_in_epoch_ >= rekey_after_) roll_rx();
  auto got = rx_->validate(frame);
  if (got.ok()) {
    ++rx_in_epoch_;
    ++stats_.frames_delivered;
  } else {
    ++stats_.frames_rejected;
  }
  return got;
}

}  // namespace genio::pon
