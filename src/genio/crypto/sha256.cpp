#include "genio/crypto/sha256.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "genio/crypto/cpu.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace genio::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

// The portable kernel: FIPS 180-4 section 6.2.2, one block at a time.
void process_block(std::uint32_t* state, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
           (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
           (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
           static_cast<std::uint32_t>(block[4 * i + 3]);
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) process_block(state, blocks + 64 * i);
}

#if defined(__x86_64__)
// The SHA-NI kernel. The state lives in two registers in the order the
// sha256rnds2 instruction wants, ABEF and CDGH; each sha256rnds2 runs two
// rounds, and sha256msg1/msg2 extend the message schedule four words at a
// time: W[t..t+3] = msg2(msg1(W[t-16..t-13], W[t-12..t-9]) + W[t-7..t-4],
// W[t-4..t-1]).
__attribute__((target("sha,sse4.1,ssse3"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* blocks, std::size_t count) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);

  const __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  const __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (std::size_t block = 0; block < count; ++block) {
    const std::uint8_t* data = blocks + 64 * block;
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int j = 0; j < 16; ++j) {
      __m128i& group = w[j & 3];  // W[4j..4j+3]; replaces W[4j-16..4j-13]
      if (j < 4) {
        group = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * j)), byte_swap);
      } else {
        const __m128i& prev1 = w[(j - 1) & 3];
        const __m128i& prev2 = w[(j - 2) & 3];
        const __m128i& prev3 = w[(j - 3) & 3];
        const __m128i partial = _mm_add_epi32(_mm_sha256msg1_epu32(group, prev3),
                                              _mm_alignr_epi8(prev1, prev2, 4));
        group = _mm_sha256msg2_epu32(partial, prev1);
      }
      const __m128i wk = _mm_add_epi32(
          group, _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRoundConstants[4 * j])));
      // Two rounds leave the new ABEF in `cdgh` and make the old ABEF the
      // new CDGH; the next two rounds swap them back.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), _mm_blend_epi16(feba, dchg, 0xf0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), _mm_alignr_epi8(dchg, feba, 8));
}
#endif

using BlockFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks, std::size_t count);

// A lane backend that loops one single-stream kernel over the lanes: each
// lane's block is stored big-endian, the byte order that kernel reads.
template <BlockFn kCompress>
void compress_each_lane(Sha256Lanes::State& state, const Sha256Lanes::Block& block) {
  for (std::size_t lane = 0; lane < Sha256Lanes::kLanes; ++lane) {
    std::uint32_t words[8] = {};
    std::uint8_t bytes[64] = {};
    for (std::size_t i = 0; i < 8; ++i) words[i] = state[i][lane];
    for (std::size_t j = 0; j < 16; ++j) {
      const std::uint32_t w = block[j][lane];
      bytes[4 * j] = static_cast<std::uint8_t>(w >> 24);
      bytes[4 * j + 1] = static_cast<std::uint8_t>(w >> 16);
      bytes[4 * j + 2] = static_cast<std::uint8_t>(w >> 8);
      bytes[4 * j + 3] = static_cast<std::uint8_t>(w);
    }
    kCompress(words, bytes, 1);
    for (std::size_t i = 0; i < 8; ++i) state[i][lane] = words[i];
  }
}

#if defined(__x86_64__)
// The AVX-512F lane kernel: process_block with every 32-bit variable a
// 16-lane vector. Rotates and shifts use the maskz forms under an all-ones
// mask, which emit the same unmasked vprord/vpsrld: GCC 12's plain
// _mm512_ror_epi32/_mm512_srli_epi32 pass _mm512_undefined_epi32() and
// trip -Wuninitialized (GCC bug 105593). Ch, Maj and each three-way XOR
// are one vpternlogd.
template <int N>
__attribute__((target("avx512f"))) inline __m512i rotr16(__m512i x) {
  return _mm512_maskz_ror_epi32(0xFFFF, x, N);
}

template <int N>
__attribute__((target("avx512f"))) inline __m512i shr16(__m512i x) {
  return _mm512_maskz_srli_epi32(0xFFFF, x, N);
}

__attribute__((target("avx512f"))) inline __m512i xor3(__m512i a, __m512i b, __m512i c) {
  return _mm512_ternarylogic_epi32(a, b, c, 0x96);
}

__attribute__((target("avx512f"))) void compress_lanes_avx512(Sha256Lanes::State& state,
                                                             const Sha256Lanes::Block& block) {
  __m512i w[16];  // W[t] lives in w[t % 16]
  for (std::size_t j = 0; j < 16; ++j) w[j] = _mm512_loadu_si512(block[j].data());
  __m512i v[8];
  for (std::size_t i = 0; i < 8; ++i) v[i] = _mm512_loadu_si512(state[i].data());
  __m512i a = v[0], b = v[1], c = v[2], d = v[3], e = v[4], f = v[5], g = v[6], h = v[7];

#pragma GCC unroll 64
  for (int t = 0; t < 64; ++t) {
    if (t >= 16) {
      const __m512i w15 = w[(t - 15) & 15];
      const __m512i w2 = w[(t - 2) & 15];
      const __m512i s0 = xor3(rotr16<7>(w15), rotr16<18>(w15), shr16<3>(w15));
      const __m512i s1 = xor3(rotr16<17>(w2), rotr16<19>(w2), shr16<10>(w2));
      w[t & 15] = _mm512_add_epi32(_mm512_add_epi32(w[t & 15], s0),
                                   _mm512_add_epi32(w[(t - 7) & 15], s1));
    }
    const __m512i s1 = xor3(rotr16<6>(e), rotr16<11>(e), rotr16<25>(e));
    const __m512i ch = _mm512_ternarylogic_epi32(e, f, g, 0xca);  // e ? f : g
    const __m512i temp1 = _mm512_add_epi32(
        _mm512_add_epi32(h, s1),
        _mm512_add_epi32(ch, _mm512_add_epi32(
                                 _mm512_set1_epi32(static_cast<int>(kRoundConstants[t])),
                                 w[t & 15])));
    const __m512i s0 = xor3(rotr16<2>(a), rotr16<13>(a), rotr16<22>(a));
    const __m512i maj = _mm512_ternarylogic_epi32(a, b, c, 0xe8);  // majority
    h = g;
    g = f;
    f = e;
    e = _mm512_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm512_add_epi32(temp1, _mm512_add_epi32(s0, maj));
  }

  const __m512i out[8] = {a, b, c, d, e, f, g, h};
  for (std::size_t i = 0; i < 8; ++i) {
    _mm512_storeu_si512(state[i].data(), _mm512_add_epi32(v[i], out[i]));
  }
}
#endif

}  // namespace

Sha256::Kernel Sha256::dispatched_kernel() {
  // Function-local: scenarios hash at static-initialization time, before a
  // namespace-scope selection would be guaranteed to have run.
  static const Kernel kernel = cpu::has_sha_ni() ? Kernel::kShaNi : Kernel::kScalar;
  return kernel;
}

bool Sha256::supports(Kernel kernel) {
  return kernel == Kernel::kScalar || dispatched_kernel() == Kernel::kShaNi;
}

Sha256::Sha256() : Sha256(dispatched_kernel()) {}

Sha256::Sha256(Kernel kernel)
    : compress_(compress_scalar),
      state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {
  if (kernel == Kernel::kScalar) return;
  if (!supports(kernel)) throw std::invalid_argument("SHA-256: this CPU has no SHA extensions");
#if defined(__x86_64__)
  compress_ = compress_sha_ni;
#endif
}

Sha256& Sha256::update(BytesView data) {
  if (data.empty()) return *this;
  total_len_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if (buffer_len_ > 0) {
    const std::size_t take = std::min(64 - buffer_len_, n);
    std::memcpy(buffer_.data() + buffer_len_, p, take);
    buffer_len_ += take;
    p += take;
    n -= take;
    if (buffer_len_ < 64) return *this;
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  if (n >= 64) {
    compress_(state_.data(), p, n / 64);
    p += n / 64 * 64;
    n %= 64;
  }
  if (n > 0) {
    std::memcpy(buffer_.data(), p, n);
    buffer_len_ = n;
  }
  return *this;
}

Sha256& Sha256::update(std::string_view text) {
  return update(BytesView(reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {  // no room for the length: it goes in one more block
    std::memset(buffer_.data() + buffer_len_, 0, 64 - buffer_len_);
    compress_(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  for (int i = 0; i < 8; ++i) {
    buffer_[static_cast<std::size_t>(56 + i)] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  compress_(state_.data(), buffer_.data(), 1);
  buffer_len_ = 0;

  Digest out;
  for (int i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(state_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return out;
}

const Sha256::Midstate& Sha256::midstate() const {
  if (buffer_len_ != 0) throw std::logic_error("SHA-256: midstate off a block boundary");
  return state_;
}

Digest Sha256::hash(BytesView data) { return Sha256().update(data).finish(); }

Digest Sha256::hash(std::string_view text) { return Sha256().update(text).finish(); }

Sha256Lanes::Kernel Sha256Lanes::dispatched_kernel() {
  static const Kernel kernel = [] {
    if (cpu::has_avx512f()) return Kernel::kAvx512f;
    return Sha256::dispatched_kernel() == Sha256::Kernel::kShaNi ? Kernel::kShaNi
                                                                 : Kernel::kScalar;
  }();
  return kernel;
}

bool Sha256Lanes::supports(Kernel kernel) {
  switch (kernel) {
    case Kernel::kAvx512f: return dispatched_kernel() == Kernel::kAvx512f;
    case Kernel::kShaNi: return Sha256::supports(Sha256::Kernel::kShaNi);
    case Kernel::kScalar: return true;
  }
  return false;
}

Sha256Lanes::Sha256Lanes(Kernel kernel) : compress_(compress_each_lane<compress_scalar>) {
  if (kernel == Kernel::kScalar) return;
  if (!supports(kernel)) throw std::invalid_argument("SHA-256 lanes: this CPU lacks the kernel");
#if defined(__x86_64__)
  compress_ = kernel == Kernel::kAvx512f ? compress_lanes_avx512
                                         : compress_each_lane<compress_sha_ni>;
#endif
}

Bytes digest_bytes(const Digest& d) { return Bytes(d.begin(), d.end()); }

std::string digest_hex(const Digest& d) {
  return common::hex_encode(BytesView(d.data(), d.size()));
}

}  // namespace genio::crypto
