#include "genio/pon/macsec.hpp"

namespace genio::pon {

namespace {

SecTag encode_sectag(std::uint64_t sci, std::uint32_t pn) {
  SecTag out;
  for (int i = 0; i < 8; ++i) {
    out[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(sci >> (56 - 8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    out[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(pn >> (24 - 8 * i));
  }
  return out;
}

}  // namespace

SecTag MacsecFrame::sectag() const { return encode_sectag(sci, pn); }

MacsecSecY::MacsecSecY(std::uint64_t sci, const AesKey& sak, std::uint32_t replay_window)
    : sci_(sci), ctx_(sak), replay_window_(replay_window) {}

crypto::GcmNonce MacsecSecY::nonce_for(std::uint64_t sci, std::uint32_t pn) const {
  // 802.1AE constructs the GCM IV from SCI (8 bytes) || PN (4 bytes).
  crypto::GcmNonce nonce{};
  for (int i = 0; i < 8; ++i) {
    nonce[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(sci >> (56 - 8 * i));
  }
  for (int i = 0; i < 4; ++i) {
    nonce[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(pn >> (24 - 8 * i));
  }
  return nonce;
}

MacsecFrame MacsecSecY::protect(const EthFrame& frame) {
  MacsecFrame out;
  out.sci = sci_;
  out.pn = next_pn_++;
  const SecTag aad = encode_sectag(out.sci, out.pn);
  // Serialize straight into the wire buffer and encrypt it in place: the
  // serialization is the only copy the seal makes.
  out.ciphertext = frame.serialize();
  out.tag = ctx_.seal_in_place(nonce_for(out.sci, out.pn), out.ciphertext,
                               BytesView(aad.data(), aad.size()));
  ++stats_.protected_frames;
  return out;
}

common::Result<EthFrame> MacsecSecY::validate(const MacsecFrame& frame) {
  // Behind the floor only if below the highest PN by more than the window;
  // written as a difference so a PN near 2^32 cannot wrap below it.
  if (frame.pn < rx_highest_pn_ && rx_highest_pn_ - frame.pn > replay_window_) {
    ++stats_.late_frames;
    return common::replay_detected("PN " + std::to_string(frame.pn) +
                                   " below replay window floor");
  }
  const SecTag aad = encode_sectag(frame.sci, frame.pn);
  // One buffer serves as ciphertext input and plaintext output. On the
  // hardware backends the in-place open decrypts it while it hashes and
  // restores the ciphertext if the tag fails; either way the buffer is
  // dropped unread on a failure.
  Bytes plaintext(frame.ciphertext.begin(), frame.ciphertext.end());
  const auto opened = ctx_.open_in_place(nonce_for(frame.sci, frame.pn), plaintext,
                                         frame.tag, BytesView(aad.data(), aad.size()));
  if (!opened.ok()) {
    ++stats_.invalid_tag_frames;
    return common::decryption_failed("MACsec ICV invalid (tampered or wrong SAK)");
  }

  if (frame.pn > rx_highest_pn_) {
    const std::uint32_t shift = frame.pn - rx_highest_pn_;
    rx_window_bitmap_ = shift >= 64 ? 0 : (rx_window_bitmap_ << shift);
    rx_window_bitmap_ |= 1;  // bit 0 = current highest
    rx_highest_pn_ = frame.pn;
  } else {
    const std::uint32_t behind = rx_highest_pn_ - frame.pn;
    if (behind >= 64 || behind > replay_window_) {
      ++stats_.late_frames;
      return common::replay_detected("PN too far behind window");
    }
    const std::uint64_t bit = 1ull << behind;
    if (rx_window_bitmap_ & bit) {
      ++stats_.replayed_frames;
      return common::replay_detected("duplicate PN " + std::to_string(frame.pn));
    }
    rx_window_bitmap_ |= bit;
  }

  auto inner = EthFrame::deserialize(plaintext);
  if (!inner) return inner.error();
  ++stats_.validated_frames;
  return inner;
}

}  // namespace genio::pon
