#include "genio/crypto/hmac.hpp"

#include <stdexcept>

namespace genio::crypto {

HmacSha256::HmacSha256(BytesView key, Sha256::Kernel kernel)
    : inner_(kernel), outer_(kernel) {
  std::array<std::uint8_t, 64> block_key{};
  if (key.size() > 64) {
    const Digest hashed = Sha256(kernel).update(key).finish();
    std::copy(hashed.begin(), hashed.end(), block_key.begin());
  } else {
    std::copy(key.begin(), key.end(), block_key.begin());
  }

  std::array<std::uint8_t, 64> ipad;
  std::array<std::uint8_t, 64> opad;
  for (int i = 0; i < 64; ++i) {
    ipad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
    opad[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  }
  inner_.update(BytesView(ipad.data(), ipad.size()));
  outer_.update(BytesView(opad.data(), opad.size()));
}

Digest HmacSha256::mac(BytesView data) const {
  Sha256 inner = inner_;
  inner.update(data);
  const Digest inner_digest = inner.finish();

  Sha256 outer = outer_;
  outer.update(BytesView(inner_digest.data(), inner_digest.size()));
  return outer.finish();
}

Digest hmac_sha256(BytesView key, BytesView data) { return HmacSha256(key).mac(data); }

Digest hmac_sha256(BytesView key, std::string_view text) {
  return hmac_sha256(
      key, BytesView(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Digest hkdf_extract(BytesView salt, BytesView ikm) {
  static const std::array<std::uint8_t, 32> kZeroSalt{};
  if (salt.empty()) salt = BytesView(kZeroSalt.data(), kZeroSalt.size());
  return hmac_sha256(salt, ikm);
}

Bytes hkdf_expand(const Digest& prk, BytesView info, std::size_t length) {
  if (length > 255 * 32) throw std::invalid_argument("hkdf_expand length too large");
  const HmacSha256 prf(BytesView(prk.data(), prk.size()));
  Bytes okm;
  okm.reserve(length);
  Bytes previous;
  std::uint8_t counter = 1;
  while (okm.size() < length) {
    Bytes block = previous;
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    const Digest t = prf.mac(block);
    previous.assign(t.begin(), t.end());
    const std::size_t take = std::min<std::size_t>(32, length - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return okm;
}

Bytes hkdf(BytesView salt, BytesView ikm, BytesView info, std::size_t length) {
  return hkdf_expand(hkdf_extract(salt, ikm), info, length);
}

}  // namespace genio::crypto
