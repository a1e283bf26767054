#include "genio/crypto/gcm.hpp"

#include <cstring>

namespace genio::crypto {

namespace {

// Multiplication in GF(2^128) with the GCM polynomial, bitwise (the
// reference oracle; GcmContext carries the table-driven fast path).
AesBlock gf_mult(const AesBlock& x, const AesBlock& y) {
  AesBlock z{};
  AesBlock v = y;
  for (int i = 0; i < 128; ++i) {
    const int byte = i / 8;
    const int bit = 7 - (i % 8);
    if ((x[static_cast<std::size_t>(byte)] >> bit) & 1) {
      for (int j = 0; j < 16; ++j) z[static_cast<std::size_t>(j)] ^= v[static_cast<std::size_t>(j)];
    }
    // v = v >> 1 with conditional reduction by R = 0xe1 || 0^120.
    const bool lsb = (v[15] & 1) != 0;
    for (int j = 15; j > 0; --j) {
      v[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
          (v[static_cast<std::size_t>(j)] >> 1) |
          ((v[static_cast<std::size_t>(j - 1)] & 1) << 7));
    }
    v[0] >>= 1;
    if (lsb) v[0] ^= 0xe1;
  }
  return z;
}

void ghash_update(AesBlock& y, const AesBlock& h, BytesView data) {
  std::size_t offset = 0;
  while (offset < data.size()) {
    AesBlock block{};
    const std::size_t n = std::min<std::size_t>(16, data.size() - offset);
    std::memcpy(block.data(), data.data() + offset, n);
    for (int i = 0; i < 16; ++i) {
      y[static_cast<std::size_t>(i)] ^= block[static_cast<std::size_t>(i)];
    }
    y = gf_mult(y, h);
    offset += n;
  }
}

AesBlock length_block(std::uint64_t aad_bits, std::uint64_t ct_bits) {
  AesBlock block{};
  for (int i = 0; i < 8; ++i) {
    block[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(aad_bits >> (56 - 8 * i));
    block[static_cast<std::size_t>(8 + i)] = static_cast<std::uint8_t>(ct_bits >> (56 - 8 * i));
  }
  return block;
}

AesBlock j0_from_nonce(const GcmNonce& nonce) {
  AesBlock j0{};
  std::memcpy(j0.data(), nonce.data(), 12);
  j0[15] = 1;
  return j0;
}

AesBlock inc32(AesBlock block) {
  for (int i = 15; i >= 12; --i) {
    if (++block[static_cast<std::size_t>(i)] != 0) break;
  }
  return block;
}

std::uint64_t load_be64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

// v = v * x in GF(2^128): shift the byte string down one bit, reducing by
// R = 0xe1 || 0^120 when the x^127 coefficient falls off.
AesBlock mul_x(AesBlock v) {
  const bool lsb = (v[15] & 1) != 0;
  for (int j = 15; j > 0; --j) {
    v[static_cast<std::size_t>(j)] = static_cast<std::uint8_t>(
        (v[static_cast<std::size_t>(j)] >> 1) |
        ((v[static_cast<std::size_t>(j - 1)] & 1) << 7));
  }
  v[0] >>= 1;
  if (lsb) v[0] ^= 0xe1;
  return v;
}

// Reduction table for shifting a block down one byte: the byte b pushed
// past x^127 holds coefficients x^120..x^127, and b * x^128 mod g(x) has
// degree <= 14 — it lands entirely in the top 16 bits of the high word.
// Key-independent, so built once for the whole process.
const std::array<std::uint16_t, 256>& byte_reduction_table() {
  static const std::array<std::uint16_t, 256> kTable = [] {
    std::array<std::uint16_t, 256> table{};
    for (unsigned b = 0; b < 256; ++b) {
      AesBlock v{};
      v[15] = static_cast<std::uint8_t>(b);
      for (int step = 0; step < 8; ++step) v = mul_x(v);
      table[b] = static_cast<std::uint16_t>((v[0] << 8) | v[1]);
    }
    return table;
  }();
  return kTable;
}

// Shoup table for one hash-subkey power: entry B is the field product B*Hp,
// where byte value B encodes the degree-<8 polynomial occupying bit
// positions x^0..x^7 (GCM's reflected bit order: x^0 is the MSB of byte 0).
// Single-bit bytes come from repeated doubling of Hp (0x80 encodes x^0, so
// T[0x80] = Hp and T[0x80 >> j] = Hp * x^j); every other entry is the XOR
// of its lowest set bit's entry and the rest — 8 shifts + 248 two-word
// XORs per power.
void build_shoup_table(const AesBlock& hp, std::array<std::uint64_t, 256>& hi,
                       std::array<std::uint64_t, 256>& lo) {
  std::array<AesBlock, 256> t{};
  t[0x80] = hp;
  for (int j = 1; j < 8; ++j) {
    t[static_cast<std::size_t>(0x80 >> j)] = mul_x(t[static_cast<std::size_t>(0x80 >> (j - 1))]);
  }
  for (unsigned b = 2; b < 256; ++b) {
    const unsigned rest = b & (b - 1);
    if (rest == 0) continue;  // power of two: already set by the doubling chain
    const unsigned low = b & (~b + 1);
    for (int i = 0; i < 16; ++i) {
      t[b][static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
          t[rest][static_cast<std::size_t>(i)] ^ t[low][static_cast<std::size_t>(i)]);
    }
  }
  for (unsigned b = 0; b < 256; ++b) {
    hi[b] = load_be64(t[b].data());
    lo[b] = load_be64(t[b].data() + 8);
  }
}

// One Shoup multiply of a 16-byte block against a precomputed power table,
// XOR-accumulated into (zh, zl). Horner over the 16 bytes: each step is a
// byte-shift (with table-driven reduction) plus one lookup.
inline void shoup_mult_acc(const std::array<std::uint64_t, 256>& hi,
                           const std::array<std::uint64_t, 256>& lo,
                           const std::uint8_t* x, std::uint64_t& zh,
                           std::uint64_t& zl) {
  const auto& reduce = byte_reduction_table();
  std::uint64_t ah = 0;
  std::uint64_t al = 0;
  for (int k = 15; k >= 0; --k) {
    const std::uint8_t overflow = static_cast<std::uint8_t>(al & 0xff);
    al = (al >> 8) | (ah << 56);
    ah = (ah >> 8) ^ (static_cast<std::uint64_t>(reduce[overflow]) << 48);
    ah ^= hi[x[k]];
    al ^= lo[x[k]];
  }
  zh ^= ah;
  zl ^= al;
}

}  // namespace

AesBlock ghash(const AesBlock& h, BytesView data) {
  AesBlock y{};
  ghash_update(y, h, data);
  return y;
}

GcmSealed gcm_seal(const AesKey& key, const GcmNonce& nonce, BytesView plaintext,
                   BytesView aad) {
  const GcmContext ctx(key);
  return ctx.seal(nonce, plaintext, aad);
}

Result<Bytes> gcm_open(const AesKey& key, const GcmNonce& nonce, BytesView ciphertext,
                       const GcmTag& tag, BytesView aad) {
  const GcmContext ctx(key);
  return ctx.open(nonce, ciphertext, tag, aad);
}

// ----------------------------------------------------------- GcmContext

GcmContext::GcmContext(const AesKey& key) : cipher_(key) {
  h_pows_[0] = cipher_.encrypt_block(AesBlock{});
  build_shoup_table(h_pows_[0], pow_hi_[0], pow_lo_[0]);
  // Higher powers chain through the H^1 table: H^p = H^(p-1) * H.
  for (std::size_t p = 1; p < 4; ++p) {
    h_pows_[p] = mult_h(h_pows_[p - 1]);
    build_shoup_table(h_pows_[p], pow_hi_[p], pow_lo_[p]);
  }
}

AesBlock GcmContext::mult_h(const AesBlock& x) const {
  std::uint64_t zh = 0;
  std::uint64_t zl = 0;
  shoup_mult_acc(pow_hi_[0], pow_lo_[0], x.data(), zh, zl);
  AesBlock z;
  store_be64(z.data(), zh);
  store_be64(z.data() + 8, zl);
  return z;
}

void GcmContext::ghash_fold(AesBlock& y, BytesView data) const {
  std::size_t offset = 0;
  // Aggregated fold, four blocks per reduction:
  //   y' = (y ^ B0)*H^4 ^ B1*H^3 ^ B2*H^2 ^ B3*H
  // — algebraically identical to four serial Horner steps, but the four
  // multiplies are independent and fill the pipeline.
  while (data.size() - offset >= 64) {
    const std::uint8_t* p = data.data() + offset;
    std::uint8_t b0[16];
    for (int i = 0; i < 16; ++i) b0[i] = static_cast<std::uint8_t>(y[static_cast<std::size_t>(i)] ^ p[i]);
    std::uint64_t zh = 0;
    std::uint64_t zl = 0;
    shoup_mult_acc(pow_hi_[3], pow_lo_[3], b0, zh, zl);
    shoup_mult_acc(pow_hi_[2], pow_lo_[2], p + 16, zh, zl);
    shoup_mult_acc(pow_hi_[1], pow_lo_[1], p + 32, zh, zl);
    shoup_mult_acc(pow_hi_[0], pow_lo_[0], p + 48, zh, zl);
    store_be64(y.data(), zh);
    store_be64(y.data() + 8, zl);
    offset += 64;
  }
  // Serial tail (full blocks plus one zero-padded partial).
  while (offset < data.size()) {
    const std::size_t n = std::min<std::size_t>(16, data.size() - offset);
    for (std::size_t i = 0; i < n; ++i) y[i] ^= data[offset + i];
    y = mult_h(y);
    offset += n;
  }
}

AesBlock GcmContext::ghash(BytesView data) const {
  AesBlock y{};
  ghash_fold(y, data);
  return y;
}

GcmTag GcmContext::compute_tag(const AesBlock& j0, BytesView aad,
                               BytesView ciphertext) const {
  AesBlock y{};
  ghash_fold(y, aad);
  ghash_fold(y, ciphertext);
  const AesBlock lens = length_block(aad.size() * 8, ciphertext.size() * 8);
  for (int i = 0; i < 16; ++i) {
    y[static_cast<std::size_t>(i)] ^= lens[static_cast<std::size_t>(i)];
  }
  y = mult_h(y);

  const AesBlock ek_j0 = cipher_.encrypt_block(j0);
  GcmTag tag;
  for (int i = 0; i < 16; ++i) {
    tag[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(
        y[static_cast<std::size_t>(i)] ^ ek_j0[static_cast<std::size_t>(i)]);
  }
  return tag;
}

GcmTag GcmContext::seal_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                                 BytesView aad) const {
  const AesBlock j0 = j0_from_nonce(nonce);
  cipher_.ctr_xor_wide(inc32(j0), data);
  return compute_tag(j0, aad, BytesView(data.data(), data.size()));
}

Status GcmContext::open_in_place(const GcmNonce& nonce, std::span<std::uint8_t> data,
                                 const GcmTag& tag, BytesView aad) const {
  const AesBlock j0 = j0_from_nonce(nonce);
  const GcmTag expected = compute_tag(j0, aad, BytesView(data.data(), data.size()));
  if (!common::constant_time_equal(BytesView(expected.data(), expected.size()),
                                   BytesView(tag.data(), tag.size()))) {
    return common::decryption_failed("GCM tag mismatch");
  }
  cipher_.ctr_xor_wide(inc32(j0), data);
  return Status::success();
}

GcmSealed GcmContext::seal(const GcmNonce& nonce, BytesView plaintext,
                           BytesView aad) const {
  GcmSealed sealed;
  sealed.ciphertext.assign(plaintext.begin(), plaintext.end());
  sealed.tag = seal_in_place(nonce, sealed.ciphertext, aad);
  return sealed;
}

Result<Bytes> GcmContext::open(const GcmNonce& nonce, BytesView ciphertext,
                               const GcmTag& tag, BytesView aad) const {
  Bytes out(ciphertext.begin(), ciphertext.end());
  auto status = open_in_place(nonce, out, tag, aad);
  if (!status.ok()) return status.error();
  return out;
}

}  // namespace genio::crypto
