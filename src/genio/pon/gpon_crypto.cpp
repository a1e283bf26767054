#include "genio/pon/gpon_crypto.hpp"

#include <algorithm>

namespace genio::pon {

crypto::GcmNonce GponCipher::nonce_for(const GemFrame& frame, Direction direction) {
  // IV = superframe counter || onu_id || port_id || direction || 0^3,
  // unique per (key, direction, frame counter) as G.987.3 requires.
  crypto::GcmNonce nonce{};
  for (int i = 0; i < 4; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(frame.superframe >> (24 - 8 * i));
  }
  nonce[4] = static_cast<std::uint8_t>(frame.onu_id >> 8);
  nonce[5] = static_cast<std::uint8_t>(frame.onu_id);
  nonce[6] = static_cast<std::uint8_t>(frame.port_id >> 8);
  nonce[7] = static_cast<std::uint8_t>(frame.port_id);
  nonce[8] = static_cast<std::uint8_t>(direction);
  return nonce;
}

void GponCipher::encrypt(GemFrame& frame, Direction direction) const {
  frame.encrypted = true;  // header flag participates in AAD
  const GemHeader aad = frame.header();
  // Reserve the tag's 16 bytes up front so the in-place seal plus the tag
  // append never reallocate mid-operation.
  frame.payload.reserve(frame.payload.size() + 16);
  const crypto::GcmTag tag = ctx_.seal_in_place(
      nonce_for(frame, direction), frame.payload, BytesView(aad.data(), aad.size()));
  frame.payload.insert(frame.payload.end(), tag.begin(), tag.end());
  frame.seal_fcs();
}

common::Status GponCipher::decrypt(GemFrame& frame, Direction direction) const {
  if (!frame.encrypted) {
    return common::state_error("frame is not marked encrypted");
  }
  if (frame.payload.size() < 16) {
    return common::parse_error("encrypted payload shorter than GCM tag");
  }
  crypto::GcmTag tag;
  std::copy(frame.payload.end() - 16, frame.payload.end(), tag.begin());
  const GemHeader aad = frame.header();

  auto status = ctx_.open_in_place(
      nonce_for(frame, direction),
      std::span<std::uint8_t>(frame.payload.data(), frame.payload.size() - 16), tag,
      BytesView(aad.data(), aad.size()));
  if (!status.ok()) return status;
  frame.payload.resize(frame.payload.size() - 16);
  frame.encrypted = false;
  frame.seal_fcs();
  return common::Status::success();
}

}  // namespace genio::pon
