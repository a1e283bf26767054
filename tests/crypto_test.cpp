// Tests for the crypto substrate. SHA-256 / HMAC / AES / GCM are checked
// against published vectors (FIPS 180-4, RFC 4231, FIPS 197, NIST GCM);
// the hash-based signature scheme and PKI are checked for their contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "genio/common/rng.hpp"
#include "genio/crypto/aes.hpp"
#include "genio/crypto/crc32.hpp"
#include "genio/crypto/gcm.hpp"
#include "genio/crypto/hmac.hpp"
#include "genio/crypto/pki.hpp"
#include "genio/crypto/sha256.hpp"
#include "genio/crypto/signature.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;

namespace {

gc::Bytes from_hex(const std::string& hex) { return gc::hex_decode(hex).value(); }

}  // namespace

// ------------------------------------------------------------------ SHA-256

namespace {

using Kernel = cr::Sha256::Kernel;

struct HashVector {
  const char* name;
  std::string message;
  const char* hex;
};

// FIPS 180-4 example messages, plus runs of 'a' at the padding boundaries:
// 55 bytes is the longest message whose length still fits in its last
// block, 56 and 63 push the length into an extra block, 64 and 65 fill and
// just overflow one block. The boundary digests come from an independent
// SHA-256 implementation.
std::vector<HashVector> fips_vectors() {
  return {
      {"empty", "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"448-bit", "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"896-bit",
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno"
       "ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {"a*55", std::string(55, 'a'),
       "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {"a*56", std::string(56, 'a'),
       "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {"a*63", std::string(63, 'a'),
       "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {"a*64", std::string(64, 'a'),
       "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {"a*65", std::string(65, 'a'),
       "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0"},
  };
}

constexpr const char* kMillionAHex =
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0";

// Runs each test once per compression kernel, straight through
// Sha256(kernel); the SHA-NI run skips on CPUs without SHA extensions.
class Sha256Kernels : public testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (!cr::Sha256::supports(GetParam())) GTEST_SKIP() << "CPU has no SHA extensions";
  }
};

}  // namespace

TEST_P(Sha256Kernels, Fips180Vectors) {
  for (const auto& v : fips_vectors()) {
    EXPECT_EQ(cr::digest_hex(cr::Sha256(GetParam()).update(v.message).finish()), v.hex)
        << v.name;
  }
}

TEST_P(Sha256Kernels, MillionA) {
  const std::string chunk(1000, 'a');
  cr::Sha256 chunked(GetParam());
  for (int i = 0; i < 1000; ++i) chunked.update(chunk);
  EXPECT_EQ(cr::digest_hex(chunked.finish()), kMillionAHex);
  // One update: all 15,625 blocks in a single multi-block compression call.
  EXPECT_EQ(cr::digest_hex(cr::Sha256(GetParam()).update(std::string(1000000, 'a')).finish()),
            kMillionAHex);
}

TEST_P(Sha256Kernels, HmacRfc4231Vectors) {
  struct Case {
    gc::Bytes key;
    std::string data;
    const char* hex;
  };
  const Case cases[] = {
      {from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b"), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {gc::to_bytes("Jefe"), "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {gc::Bytes(131, 0xaa), "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
  };
  for (const auto& c : cases) {
    const cr::HmacSha256 keyed(c.key, GetParam());
    // The saved midstates survive a mac(): the same key MACs twice.
    for (int repeat = 0; repeat < 2; ++repeat) {
      EXPECT_EQ(cr::digest_hex(keyed.mac(gc::to_bytes(c.data))), c.hex) << c.data;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cpu, Sha256Kernels, testing::Values(Kernel::kScalar, Kernel::kShaNi),
                         [](const testing::TestParamInfo<Kernel>& info) {
                           return info.param == Kernel::kScalar ? "Scalar" : "ShaNi";
                         });

TEST(Sha256, DispatchPicksShaNiWhenCpuidReportsIt) {
#if defined(__x86_64__)
  const bool cpu_has_sha = __builtin_cpu_supports("sha") && __builtin_cpu_supports("ssse3") &&
                           __builtin_cpu_supports("sse4.1");
#else
  const bool cpu_has_sha = false;
#endif
  EXPECT_EQ(cr::Sha256::dispatched_kernel(), cpu_has_sha ? Kernel::kShaNi : Kernel::kScalar);
  EXPECT_EQ(cr::Sha256::supports(Kernel::kShaNi), cpu_has_sha);
  EXPECT_TRUE(cr::Sha256::supports(Kernel::kScalar));
  if (!cpu_has_sha) {
    EXPECT_THROW(cr::Sha256{Kernel::kShaNi}, std::invalid_argument);
  }
}

TEST(Sha256, DispatchedMatchesScalarOnRandomSplits) {
  // The scalar kernel hashes each message in one update; the dispatched
  // context gets it in random pieces (empty ones included, some longer
  // than a block) so every buffer fill level meets every kernel entry.
  gc::Rng rng(1201);
  for (std::size_t len = 0; len <= 300; ++len) {
    const gc::Bytes data = rng.bytes(len);
    cr::Sha256 dispatched;
    for (std::size_t offset = 0; offset < len;) {
      const std::size_t piece = rng.index(std::min<std::size_t>(len - offset, 130) + 1);
      dispatched.update(gc::BytesView(data.data() + offset, piece));
      offset += piece;
    }
    ASSERT_EQ(dispatched.finish(), cr::Sha256(Kernel::kScalar).update(data).finish())
        << "len=" << len;
  }
}

TEST(Sha256, StreamingMatchesOneShot) {
  const gc::Bytes data = gc::to_bytes("GENIO platform integrity check payload");
  cr::Sha256 h;
  for (std::size_t i = 0; i < data.size(); ++i) {
    h.update(gc::BytesView(&data[i], 1));
  }
  EXPECT_EQ(h.finish(), cr::Sha256::hash(data));
}

TEST(Sha256, MidstateOnlyAtBlockBoundary) {
  cr::Sha256 h;
  EXPECT_EQ(h.midstate()[0], 0x6a09e667u);  // the IV
  h.update(gc::Bytes(64, 0x36));
  EXPECT_NO_THROW(h.midstate());
  h.update(gc::Bytes(3, 0x36));
  EXPECT_THROW(h.midstate(), std::logic_error);
}

// ------------------------------------------------------- SHA-256 lanes

namespace {

using LaneKernel = cr::Sha256Lanes::Kernel;

// Runs each test once per lane backend; a backend the CPU lacks skips.
class LaneKernels : public testing::TestWithParam<LaneKernel> {
 protected:
  void SetUp() override {
    if (!cr::Sha256Lanes::supports(GetParam())) GTEST_SKIP() << "CPU lacks this lane backend";
  }
};

std::uint32_t random_word(gc::Rng& rng) { return static_cast<std::uint32_t>(rng.next_u64()); }

std::uint32_t load_u32_be(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

TEST_P(LaneKernels, MatchesScalarOnRandomBatches) {
  if (GetParam() == LaneKernel::kScalar) GTEST_SKIP() << "kScalar is the oracle";
  const cr::Sha256Lanes lanes(GetParam());
  const cr::Sha256Lanes oracle(LaneKernel::kScalar);
  gc::Rng rng(1501);
  for (int batch = 0; batch < 1000; ++batch) {
    cr::Sha256Lanes::State state{};
    cr::Sha256Lanes::Block block{};
    for (auto& row : state) std::generate(row.begin(), row.end(), [&] { return random_word(rng); });
    for (auto& row : block) std::generate(row.begin(), row.end(), [&] { return random_word(rng); });
    cr::Sha256Lanes::State expected = state;
    lanes.compress(state, block);
    oracle.compress(expected, block);
    ASSERT_EQ(state, expected) << "batch " << batch;
  }
}

TEST_P(LaneKernels, MatchesStreamingSha256) {
  // Every lane hashes its own random message: the same 1-4 whole blocks
  // in each lane, then a last block padded by hand around a 0-55-byte
  // tail. After the whole blocks a lane holds the streaming context's
  // midstate, and after the last block the digest.
  const cr::Sha256Lanes lanes(GetParam());
  gc::Rng rng(1502);
  for (int round = 0; round < 20; ++round) {
    const std::size_t whole = 64 * (1 + rng.index(4));
    std::array<gc::Bytes, cr::Sha256Lanes::kLanes> messages;
    for (auto& m : messages) m = rng.bytes(whole + rng.index(56));
    cr::Sha256Lanes::State state{};
    const cr::Sha256::Midstate iv = cr::Sha256().midstate();
    for (std::size_t i = 0; i < 8; ++i) state[i].fill(iv[i]);
    cr::Sha256Lanes::Block block{};
    for (std::size_t offset = 0; offset < whole; offset += 64) {
      for (std::size_t lane = 0; lane < cr::Sha256Lanes::kLanes; ++lane) {
        for (std::size_t j = 0; j < 16; ++j) {
          block[j][lane] = load_u32_be(messages[lane].data() + offset + 4 * j);
        }
      }
      lanes.compress(state, block);
    }
    for (std::size_t lane = 0; lane < cr::Sha256Lanes::kLanes; ++lane) {
      const gc::Bytes& m = messages[lane];
      const cr::Sha256::Midstate midstate =
          cr::Sha256(Kernel::kScalar).update(gc::BytesView(m.data(), whole)).midstate();
      for (std::size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(state[i][lane], midstate[i]) << "round " << round << " lane " << lane;
      }
      std::array<std::uint8_t, 64> padded{};
      std::copy(m.begin() + static_cast<std::ptrdiff_t>(whole), m.end(), padded.begin());
      padded[m.size() - whole] = 0x80;
      const std::uint64_t bits = 8 * m.size();
      for (std::size_t i = 0; i < 8; ++i) {
        padded[56 + i] = static_cast<std::uint8_t>(bits >> (56 - 8 * i));
      }
      for (std::size_t j = 0; j < 16; ++j) block[j][lane] = load_u32_be(padded.data() + 4 * j);
    }
    lanes.compress(state, block);
    for (std::size_t lane = 0; lane < cr::Sha256Lanes::kLanes; ++lane) {
      const cr::Digest digest = cr::Sha256(Kernel::kScalar).update(messages[lane]).finish();
      for (std::size_t i = 0; i < 8; ++i) {
        ASSERT_EQ(state[i][lane], load_u32_be(digest.data() + 4 * i))
            << "round " << round << " lane " << lane;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cpu, LaneKernels,
                         testing::Values(LaneKernel::kAvx512f, LaneKernel::kShaNi,
                                         LaneKernel::kScalar),
                         [](const testing::TestParamInfo<LaneKernel>& info) {
                           switch (info.param) {
                             case LaneKernel::kAvx512f: return "Avx512f";
                             case LaneKernel::kShaNi: return "ShaNiLoop";
                             case LaneKernel::kScalar: break;
                           }
                           return "ScalarLoop";
                         });

TEST(Sha256Lanes, DispatchPicksAvx512fWhenCpuSupportsIt) {
#if defined(__x86_64__)
  const bool avx512f = __builtin_cpu_supports("avx512f");
#else
  const bool avx512f = false;
#endif
  const LaneKernel loop = cr::Sha256::dispatched_kernel() == Kernel::kShaNi ? LaneKernel::kShaNi
                                                                            : LaneKernel::kScalar;
  EXPECT_EQ(cr::Sha256Lanes::dispatched_kernel(), avx512f ? LaneKernel::kAvx512f : loop);
  EXPECT_EQ(cr::Sha256Lanes::supports(LaneKernel::kAvx512f), avx512f);
  EXPECT_EQ(cr::Sha256Lanes::supports(LaneKernel::kShaNi), cr::Sha256::supports(Kernel::kShaNi));
  EXPECT_TRUE(cr::Sha256Lanes::supports(LaneKernel::kScalar));
  if (!avx512f) {
    EXPECT_THROW(cr::Sha256Lanes{LaneKernel::kAvx512f}, std::invalid_argument);
  }
}

// --------------------------------------------------------------- HMAC/HKDF

TEST(Hmac, OneShotMatchesRfc4231Case2) {
  const auto digest = cr::hmac_sha256(gc::to_bytes("Jefe"),
                                      std::string_view("what do ya want for nothing?"));
  EXPECT_EQ(cr::digest_hex(digest),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hkdf, Rfc5869Case1) {
  const auto ikm = from_hex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
  const auto salt = from_hex("000102030405060708090a0b0c");
  const auto info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  const auto okm = cr::hkdf(salt, ikm, info, 42);
  EXPECT_EQ(gc::hex_encode(okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, ExpandLengths) {
  const auto prk = cr::hkdf_extract({}, gc::to_bytes("ikm"));
  EXPECT_EQ(cr::hkdf_expand(prk, gc::to_bytes("x"), 16).size(), 16u);
  EXPECT_EQ(cr::hkdf_expand(prk, gc::to_bytes("x"), 100).size(), 100u);
  EXPECT_THROW(cr::hkdf_expand(prk, gc::to_bytes("x"), 255 * 32 + 1),
               std::invalid_argument);
}

// --------------------------------------------------------------------- AES

TEST(Aes128, Fips197Vector) {
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  cr::Aes128 cipher(key);
  cr::AesBlock pt;
  const auto pt_bytes = from_hex("00112233445566778899aabbccddeeff");
  std::copy(pt_bytes.begin(), pt_bytes.end(), pt.begin());
  const auto ct = cipher.encrypt_block(pt);
  EXPECT_EQ(gc::hex_encode(gc::BytesView(ct.data(), ct.size())),
            "69c4e0d86a7b0430d8cdb78070b4c55a");
}

TEST(Aes128, Sp80038aCtrVector) {
  // NIST SP 800-38A F.5.1 CTR-AES128.Encrypt, first block.
  const auto key = cr::make_aes_key(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  cr::AesBlock iv;
  const auto iv_bytes = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
  const auto pt = from_hex("6bc1bee22e409f96e93d7e117393172a");
  const auto ct = cr::aes128_ctr(key, iv, pt);
  EXPECT_EQ(gc::hex_encode(ct), "874d6191b620e3261bef6864990db6ce");
}

TEST(Aes128, CtrRoundTrip) {
  const auto key = cr::make_aes_key(from_hex("00112233445566778899aabbccddeeff"));
  cr::AesBlock iv{};
  iv[15] = 1;
  const gc::Bytes pt = gc::to_bytes("a payload that is not block aligned!!");
  const auto ct = cr::aes128_ctr(key, iv, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(cr::aes128_ctr(key, iv, ct), pt);
}

TEST(Aes128, CtrXorInPlaceMatchesFreeFunction) {
  // The in-place data-plane path must produce the same keystream as the
  // allocating helper, at block-aligned and ragged lengths.
  const auto key = cr::make_aes_key(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const cr::Aes128 cipher(key);
  cr::AesBlock iv;
  const auto iv_bytes = from_hex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::copy(iv_bytes.begin(), iv_bytes.end(), iv.begin());
  gc::Rng rng(99);
  for (const std::size_t len : {0u, 1u, 16u, 17u, 33u, 64u, 100u}) {
    gc::Bytes buf = rng.bytes(len);
    const gc::Bytes expected = cr::aes128_ctr(key, iv, buf);
    cipher.ctr_xor_in_place(iv, buf);
    EXPECT_EQ(buf, expected) << "len=" << len;
  }
}

TEST(Aes128, KeySizeValidation) {
  EXPECT_THROW(cr::make_aes_key(from_hex("0011")), std::invalid_argument);
}

// --------------------------------------------------------------------- GCM

TEST(Gcm, NistTestCase1EmptyEverything) {
  // Key=0^128, IV=0^96, no plaintext, no AAD.
  const auto key = cr::make_aes_key(gc::Bytes(16, 0));
  cr::GcmNonce nonce{};
  const auto sealed = cr::gcm_seal(key, nonce, {}, {});
  EXPECT_TRUE(sealed.ciphertext.empty());
  EXPECT_EQ(gc::hex_encode(gc::BytesView(sealed.tag.data(), sealed.tag.size())),
            "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(Gcm, NistTestCase2SingleBlock) {
  const auto key = cr::make_aes_key(gc::Bytes(16, 0));
  cr::GcmNonce nonce{};
  const auto pt = gc::Bytes(16, 0);
  const auto sealed = cr::gcm_seal(key, nonce, pt, {});
  EXPECT_EQ(gc::hex_encode(sealed.ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(gc::hex_encode(gc::BytesView(sealed.tag.data(), sealed.tag.size())),
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(Gcm, NistTestCase3FourBlocks) {
  const auto key = cr::make_aes_key(from_hex("feffe9928665731c6d6a8f9467308308"));
  cr::GcmNonce nonce;
  const auto nonce_bytes = from_hex("cafebabefacedbaddecaf888");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const auto pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const auto sealed = cr::gcm_seal(key, nonce, pt, {});
  EXPECT_EQ(gc::hex_encode(sealed.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(gc::hex_encode(gc::BytesView(sealed.tag.data(), sealed.tag.size())),
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(Gcm, NistTestCase4PartialBlockWithAad) {
  // NIST GCM spec test case 4: 60-byte plaintext (partial final block),
  // 20-byte AAD — exercises AAD folding plus a non-block-aligned tail.
  const auto key = cr::make_aes_key(from_hex("feffe9928665731c6d6a8f9467308308"));
  cr::GcmNonce nonce;
  const auto nonce_bytes = from_hex("cafebabefacedbaddecaf888");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const auto pt = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  const auto aad = from_hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  const std::string expect_ct =
      "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
      "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091";
  const std::string expect_tag = "5bc94fbc3221a5db94fae95ae7121a47";

  // Reference path.
  const auto sealed = cr::gcm_seal(key, nonce, pt, aad);
  EXPECT_EQ(gc::hex_encode(sealed.ciphertext), expect_ct);
  EXPECT_EQ(gc::hex_encode(gc::BytesView(sealed.tag.data(), sealed.tag.size())),
            expect_tag);

  // Fast path (cached schedule + table GHASH) pinned to the same vector.
  const cr::GcmContext ctx(key);
  const auto fast = ctx.seal(nonce, pt, aad);
  EXPECT_EQ(gc::hex_encode(fast.ciphertext), expect_ct);
  EXPECT_EQ(gc::hex_encode(gc::BytesView(fast.tag.data(), fast.tag.size())),
            expect_tag);
}

TEST(Gcm, CavsAadOnlyVector) {
  // NIST CAVS gcmEncryptExtIV128 (PTlen=0, AADlen=128): tag-only mode, the
  // shape MACsec integrity-only frames use.
  const auto key = cr::make_aes_key(from_hex("77be63708971c4e240d1cb79e8d77feb"));
  cr::GcmNonce nonce;
  const auto nonce_bytes = from_hex("e0e00f19fed7ba0136a797f3");
  std::copy(nonce_bytes.begin(), nonce_bytes.end(), nonce.begin());
  const auto aad = from_hex("7a43ec1d9c0a5a78a0b16533a6213cab");
  const std::string expect_tag = "209fcc8d3675ed938e9c7166709dd946";

  const auto sealed = cr::gcm_seal(key, nonce, {}, aad);
  EXPECT_TRUE(sealed.ciphertext.empty());
  EXPECT_EQ(gc::hex_encode(gc::BytesView(sealed.tag.data(), sealed.tag.size())),
            expect_tag);

  const cr::GcmContext ctx(key);
  const auto fast = ctx.seal(nonce, {}, aad);
  EXPECT_EQ(gc::hex_encode(gc::BytesView(fast.tag.data(), fast.tag.size())),
            expect_tag);
  EXPECT_TRUE(ctx.open(nonce, {}, fast.tag, aad).ok());
}

TEST(GcmContext, MatchesNistEmptyAndBlockVectors) {
  // Re-run the classic NIST cases 1-3 through the fast path.
  const auto zero_key = cr::make_aes_key(gc::Bytes(16, 0));
  const cr::GcmContext ctx(zero_key);
  cr::GcmNonce nonce{};

  const auto case1 = ctx.seal(nonce, {}, {});
  EXPECT_EQ(gc::hex_encode(gc::BytesView(case1.tag.data(), case1.tag.size())),
            "58e2fccefa7e3061367f1d57a4e7455a");

  const auto case2 = ctx.seal(nonce, gc::Bytes(16, 0), {});
  EXPECT_EQ(gc::hex_encode(case2.ciphertext), "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(gc::hex_encode(gc::BytesView(case2.tag.data(), case2.tag.size())),
            "ab6e47d42cec13bdf53a67b21257bddf");

  const auto key3 = cr::make_aes_key(from_hex("feffe9928665731c6d6a8f9467308308"));
  const cr::GcmContext ctx3(key3);
  cr::GcmNonce nonce3;
  const auto nonce3_bytes = from_hex("cafebabefacedbaddecaf888");
  std::copy(nonce3_bytes.begin(), nonce3_bytes.end(), nonce3.begin());
  const auto pt3 = from_hex(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255");
  const auto case3 = ctx3.seal(nonce3, pt3, {});
  EXPECT_EQ(gc::hex_encode(case3.ciphertext),
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985");
  EXPECT_EQ(gc::hex_encode(gc::BytesView(case3.tag.data(), case3.tag.size())),
            "4d5c2af327cd64a62cf35abd2ba6fab4");
}

TEST(GcmContext, InPlaceSealOpenRoundTrip) {
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  const cr::GcmContext ctx(key);
  cr::GcmNonce nonce{};
  nonce[0] = 0x5a;
  const gc::Bytes aad = gc::to_bytes("gem header");
  const gc::Bytes original = gc::to_bytes("in-place data plane payload, not aligned");

  gc::Bytes buf = original;
  const auto tag = ctx.seal_in_place(nonce, buf, aad);
  EXPECT_NE(buf, original);

  // The in-place ciphertext+tag must be byte-identical to the reference.
  const auto reference = cr::gcm_seal(key, nonce, original, aad);
  EXPECT_EQ(buf, reference.ciphertext);
  EXPECT_EQ(tag, reference.tag);

  ASSERT_TRUE(ctx.open_in_place(nonce, buf, tag, aad).ok());
  EXPECT_EQ(buf, original);
}

TEST(GcmContext, OpenRejectsTamperAndLeavesBufferUntouched) {
  const auto key = cr::make_aes_key(gc::Bytes(16, 9));
  const cr::GcmContext ctx(key);
  cr::GcmNonce nonce{};
  gc::Bytes buf = gc::to_bytes("payload");
  const auto tag = ctx.seal_in_place(nonce, buf, {});
  gc::Bytes tampered = buf;
  tampered[0] ^= 0x01;
  const gc::Bytes before = tampered;
  const auto st = ctx.open_in_place(nonce, tampered, tag, {});
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kDecryptionFailed);
  EXPECT_EQ(tampered, before);  // no partial decrypt on failure
}

TEST(Gcm, RoundTripWithAad) {
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  cr::GcmNonce nonce{};
  nonce[11] = 7;
  const gc::Bytes pt = gc::to_bytes("macsec protected frame payload");
  const gc::Bytes aad = gc::to_bytes("sectag: sci=olt-1, pn=42");
  const auto sealed = cr::gcm_seal(key, nonce, pt, aad);
  const auto opened = cr::gcm_open(key, nonce, sealed.ciphertext, sealed.tag, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(Gcm, TamperedCiphertextRejected) {
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  cr::GcmNonce nonce{};
  const gc::Bytes pt = gc::to_bytes("payload");
  auto sealed = cr::gcm_seal(key, nonce, pt, {});
  sealed.ciphertext[0] ^= 0x01;
  const auto opened = cr::gcm_open(key, nonce, sealed.ciphertext, sealed.tag, {});
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.error().code(), gc::ErrorCode::kDecryptionFailed);
}

TEST(Gcm, WrongAadRejected) {
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  cr::GcmNonce nonce{};
  const auto sealed = cr::gcm_seal(key, nonce, gc::to_bytes("data"), gc::to_bytes("aad-1"));
  EXPECT_FALSE(
      cr::gcm_open(key, nonce, sealed.ciphertext, sealed.tag, gc::to_bytes("aad-2")).ok());
}

TEST(Gcm, WrongKeyRejected) {
  const auto key1 = cr::make_aes_key(gc::Bytes(16, 1));
  const auto key2 = cr::make_aes_key(gc::Bytes(16, 2));
  cr::GcmNonce nonce{};
  const auto sealed = cr::gcm_seal(key1, nonce, gc::to_bytes("data"), {});
  EXPECT_FALSE(cr::gcm_open(key2, nonce, sealed.ciphertext, sealed.tag, {}).ok());
}

// ------------------------------------------------------------------- CRC32

TEST(Crc32, KnownVectors) {
  // The CRC-32/IEEE check value, pinned on the slicing-by-8 fast path and
  // the byte-at-a-time reference oracle alike.
  EXPECT_EQ(cr::crc32(gc::to_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(cr::crc32_reference(gc::to_bytes("123456789")), 0xcbf43926u);
  EXPECT_EQ(cr::crc32({}), 0x00000000u);
  EXPECT_EQ(cr::crc32_reference({}), 0x00000000u);
}

TEST(Crc32, SlicingMatchesReferenceAcrossLengths) {
  // Every length 0..257 hits each tail-remainder class of the 8-byte main
  // loop at least once; contents are seeded-random.
  gc::Rng rng(1301);
  for (std::size_t len = 0; len <= 257; ++len) {
    const gc::Bytes data = rng.bytes(len);
    EXPECT_EQ(cr::crc32(data), cr::crc32_reference(data)) << "len=" << len;
  }
}

TEST(Crc32, StreamingMatchesOneShot) {
  gc::Rng rng(1302);
  const gc::Bytes data = rng.bytes(300);
  for (const std::size_t split : {0u, 1u, 7u, 8u, 9u, 150u, 299u, 300u}) {
    std::uint32_t state = cr::crc32_init();
    state = cr::crc32_update(state, gc::BytesView(data.data(), split));
    state = cr::crc32_update(state,
                             gc::BytesView(data.data() + split, data.size() - split));
    EXPECT_EQ(cr::crc32_final(state), cr::crc32(data)) << "split=" << split;
  }
}

TEST(Crc32, DetectsBitflip) {
  gc::Bytes frame = gc::to_bytes("some ethernet frame body");
  const auto before = cr::crc32(frame);
  frame[3] ^= 0x40;
  EXPECT_NE(cr::crc32(frame), before);
}

// -------------------------------------------------------------- signatures

TEST(Signature, SignVerifyRoundTrip) {
  auto key = cr::SigningKey::generate(gc::to_bytes("seed-material-1"), 3);
  const auto sig = key.sign(std::string_view("firmware image v1.2"));
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(cr::verify(key.public_key(), std::string_view("firmware image v1.2"), *sig).ok());
}

TEST(Signature, RejectsModifiedMessage) {
  auto key = cr::SigningKey::generate(gc::to_bytes("seed-material-2"), 3);
  const auto sig = key.sign(std::string_view("original")).value();
  const auto st = cr::verify(key.public_key(), std::string_view("tampered"), sig);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kSignatureInvalid);
}

TEST(Signature, RejectsWrongKey) {
  auto key1 = cr::SigningKey::generate(gc::to_bytes("seed-a"), 3);
  auto key2 = cr::SigningKey::generate(gc::to_bytes("seed-b"), 3);
  const auto sig = key1.sign(std::string_view("msg")).value();
  EXPECT_FALSE(cr::verify(key2.public_key(), std::string_view("msg"), sig).ok());
}

TEST(Signature, ExhaustsAfter2PowHeight) {
  auto key = cr::SigningKey::generate(gc::to_bytes("seed-c"), 2);
  EXPECT_EQ(key.signatures_remaining(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(key.sign(std::string_view("m")).ok());
  }
  const auto sig = key.sign(std::string_view("m"));
  ASSERT_FALSE(sig.ok());
  EXPECT_EQ(sig.error().code(), gc::ErrorCode::kResourceExhausted);
}

TEST(Signature, EveryLeafVerifies) {
  auto key = cr::SigningKey::generate(gc::to_bytes("seed-d"), 3);
  for (int i = 0; i < 8; ++i) {
    const std::string msg = "message-" + std::to_string(i);
    const auto sig = key.sign(std::string_view(msg)).value();
    EXPECT_EQ(sig.leaf_index, static_cast<std::uint32_t>(i));
    EXPECT_TRUE(cr::verify(key.public_key(), std::string_view(msg), sig).ok()) << msg;
  }
}

TEST(Signature, SerializeRoundTrip) {
  auto key = cr::SigningKey::generate(gc::to_bytes("seed-e"), 4);
  const auto sig = key.sign(std::string_view("serialize me")).value();
  const auto wire = sig.serialize();
  const auto back = cr::Signature::deserialize(wire);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(cr::verify(key.public_key(), std::string_view("serialize me"), *back).ok());
}

TEST(Signature, DeserializeRejectsGarbage) {
  EXPECT_FALSE(cr::Signature::deserialize(gc::to_bytes("short")).ok());
  gc::Bytes junk(5000, 0xaa);
  EXPECT_FALSE(cr::Signature::deserialize(junk).ok());
}

TEST(Signature, KnownAnswer) {
  // Pinned bytes: a chain or PRF encoding that is wrong but consistent
  // between sign and verify passes every test above, and fails this one.
  auto key = cr::SigningKey::generate(gc::to_bytes("kat-seed"), 4);
  EXPECT_EQ(cr::digest_hex(key.public_key().root),
            "316ce3967a8cf9f632073619970c05ddd7f5ff5079be334011a4e4d2859fc112");
  const auto sig = key.sign(std::string_view("kat-message")).value();
  EXPECT_EQ(cr::digest_hex(cr::Sha256::hash(sig.serialize())),
            "da5fcc9aab90fd0166462c8aba6c74af285c46b619594b4e266328ea0811f597");

  // Keygen runs 16 leaves per lane batch: height 1 and 3 are partial
  // batches, 4 one full batch, 5 two and 8 sixteen. The 100-byte seed is
  // hashed before it keys the chain-seed HMAC. Every backend this CPU has
  // must build the same keys.
  struct Root {
    std::uint8_t height;
    const char* hex;
  };
  const Root roots[] = {
      {1, "57750e540e3cc3163c957eccb3b0ac5af3c39ea7931464fb62a4efb43e938cf3"},
      {3, "ae4d6d5e0b9995c64f97de953a3ad362b11f97d8280a775fcb8fd76d6a1a8041"},
      {4, "316ce3967a8cf9f632073619970c05ddd7f5ff5079be334011a4e4d2859fc112"},
      {5, "e3e4581bcee9b833b42bacc783a3e270b95ecc50dadc9d231d16a82ba0d02acd"},
      {8, "3adf7b6a85352cf10f9b128a3f49e5a928a9e506111ec546074d101169a5f64f"},
  };
  gc::Bytes long_seed(100);
  std::iota(long_seed.begin(), long_seed.end(), std::uint8_t{0});
  for (const LaneKernel kernel : {LaneKernel::kAvx512f, LaneKernel::kShaNi, LaneKernel::kScalar}) {
    if (!cr::Sha256Lanes::supports(kernel)) continue;
    SCOPED_TRACE("lane backend " + std::to_string(static_cast<int>(kernel)));
    for (const Root& r : roots) {
      const auto k = cr::SigningKey::generate(gc::to_bytes("kat-seed"), r.height, kernel);
      EXPECT_EQ(cr::digest_hex(k.public_key().root), r.hex) << "height " << int{r.height};
    }
    EXPECT_EQ(cr::digest_hex(cr::SigningKey::generate(long_seed, 4, kernel).public_key().root),
              "6556b4b38c767e54aeb1e1070e07ae1a54c4b047a5cf7dbef1ca25538d0e5af3");
    auto h5 = cr::SigningKey::generate(gc::to_bytes("kat-seed"), 5, kernel);
    cr::Signature last;
    while (h5.signatures_remaining() > 0) last = h5.sign(std::string_view("kat-message")).value();
    EXPECT_EQ(last.leaf_index, 31u);
    EXPECT_EQ(cr::digest_hex(cr::Sha256::hash(last.serialize())),
              "492027f2f41c0ba7319d92b76cbb62f5a40539ae021f5100a5b0df4d8d0918af");
  }
}

namespace {

// A test-local WOTS+ reference, one hash at a time on the scalar kernel:
// 64 message digits plus a 3-digit checksum, chain seeds
// HMAC(seed, leaf || chain), and steps H(value || chain || step).
std::array<int, 67> reference_digits(const gc::Bytes& message) {
  const cr::Digest digest = cr::Sha256(Kernel::kScalar).update(message).finish();
  std::array<int, 67> digits{};
  int checksum = 0;
  for (std::size_t i = 0; i < 32; ++i) {
    digits[2 * i] = digest[i] >> 4;
    digits[2 * i + 1] = digest[i] & 0x0f;
    checksum += 30 - digits[2 * i] - digits[2 * i + 1];
  }
  for (std::size_t i = 0; i < 3; ++i) digits[64 + i] = (checksum >> (4 * (2 - i))) & 0x0f;
  return digits;
}

cr::Digest reference_chain(const cr::HmacSha256& prf, std::uint32_t leaf, std::uint32_t chain,
                           int steps) {
  gc::Bytes info;
  gc::put_u32_be(info, leaf);
  gc::put_u32_be(info, chain);
  cr::Digest value = prf.mac(info);
  for (int step = 0; step < steps; ++step) {
    gc::Bytes data(value.begin(), value.end());
    gc::put_u32_be(data, chain);
    gc::put_u32_be(data, static_cast<std::uint32_t>(step));
    value = cr::Sha256(Kernel::kScalar).update(data).finish();
  }
  return value;
}

}  // namespace

// sign() and verify() run a leaf's 67 chains 16 at a time on the lanes,
// batched by step count; every backend must give the reference's chain
// values, and verify() on it must still catch a flip anywhere.
TEST_P(LaneKernels, SignMatchesScalarReferenceAndVerifyRejectsFlips) {
  const gc::Bytes seed = gc::to_bytes("lane-sign-seed");
  auto key = cr::SigningKey::generate(seed, 8, GetParam());
  const cr::HmacSha256 prf(seed, Kernel::kScalar);
  gc::Rng rng(1601);
  bool saw_zero = false;
  bool saw_fifteen = false;
  for (std::uint32_t leaf = 0; leaf < 200; ++leaf) {
    const gc::Bytes message = rng.bytes(1 + rng.index(100));
    const auto digits = reference_digits(message);
    saw_zero = saw_zero || std::count(digits.begin(), digits.end(), 0) > 0;
    saw_fifteen = saw_fifteen || std::count(digits.begin(), digits.end(), 15) > 0;
    const auto sig = key.sign(message).value();
    ASSERT_EQ(sig.leaf_index, leaf);
    ASSERT_EQ(sig.wots_chains.size(), 67u);
    for (std::uint32_t c = 0; c < 67; ++c) {
      ASSERT_EQ(sig.wots_chains[c], reference_chain(prf, leaf, c, digits[c]))
          << "leaf " << leaf << " chain " << c;
    }
    ASSERT_TRUE(cr::verify(key.public_key(), message, sig, GetParam()).ok()) << leaf;

    const auto flip = [&](cr::Digest& d) {
      d[rng.index(d.size())] ^= static_cast<std::uint8_t>(1 + rng.index(255));
    };
    auto bad = sig;
    flip(bad.wots_chains[0]);
    EXPECT_FALSE(cr::verify(key.public_key(), message, bad, GetParam()).ok()) << leaf;
    bad = sig;
    flip(bad.wots_chains[66]);
    EXPECT_FALSE(cr::verify(key.public_key(), message, bad, GetParam()).ok()) << leaf;
    bad = sig;
    flip(bad.auth_path[rng.index(bad.auth_path.size())]);
    EXPECT_FALSE(cr::verify(key.public_key(), message, bad, GetParam()).ok()) << leaf;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_fifteen);
}

TEST(Signature, VerifyRejectsHeightAboveTwenty) {
  // Heights above the 20 that generate() allows never reach the
  // 1 << height leaf-range check (undefined from 32 up), and the wire
  // form no longer carries more than 20 auth-path entries.
  cr::Signature sig;
  sig.wots_chains.assign(67, cr::Digest{});
  for (const std::uint8_t height : {21, 32, 255}) {
    cr::PublicKey key;
    key.height = height;
    sig.auth_path.assign(height, cr::Digest{});
    const auto st = cr::verify(key, std::string_view("m"), sig);
    ASSERT_FALSE(st.ok()) << int{height};
    EXPECT_EQ(st.error().code(), gc::ErrorCode::kSignatureInvalid);
    EXPECT_FALSE(cr::Signature::deserialize(sig.serialize()).ok()) << int{height};
  }
  sig.auth_path.assign(20, cr::Digest{});
  EXPECT_TRUE(cr::Signature::deserialize(sig.serialize()).ok());
}

TEST(Signature, DeterministicKeyFromSeed) {
  auto a = cr::SigningKey::generate(gc::to_bytes("same-seed"), 3);
  auto b = cr::SigningKey::generate(gc::to_bytes("same-seed"), 3);
  EXPECT_EQ(a.public_key().root, b.public_key().root);
  EXPECT_NE(a.public_key().fingerprint(), "");
}

TEST(Signature, ReservedLeafSignsOnce) {
  auto key = cr::SigningKey::generate(gc::to_bytes("seed-reserve"), 2);
  auto twin = cr::SigningKey::generate(gc::to_bytes("seed-reserve"), 2);
  const gc::Bytes message = gc::to_bytes("signed later");
  ASSERT_TRUE(key.sign(std::string_view("first")).ok());
  const std::uint32_t leaf = key.reserve_leaf().value();
  EXPECT_EQ(leaf, 1u);
  // A reservation counts as used, and the next sign() passes it by.
  EXPECT_EQ(key.signatures_used(), 2u);
  EXPECT_EQ(key.signatures_remaining(), 2u);
  EXPECT_EQ(key.sign(std::string_view("third")).value().leaf_index, 2u);

  // A leaf the key never reserved, or one already used, is refused.
  for (const std::uint32_t other : {0u, 2u, 3u, 4u}) {
    const auto refused = key.sign_reserved(other, message);
    ASSERT_FALSE(refused.ok()) << other;
    EXPECT_EQ(refused.error().code(), gc::ErrorCode::kInvalidArgument);
  }
  EXPECT_EQ(key.signatures_remaining(), 1u);

  // The reserved leaf signs what sign() would have signed there, once.
  const auto late = key.sign_reserved(leaf, message).value();
  EXPECT_EQ(late.leaf_index, leaf);
  EXPECT_TRUE(cr::verify(key.public_key(), message, late).ok());
  ASSERT_TRUE(twin.sign(std::string_view("first")).ok());
  EXPECT_EQ(late.serialize(), twin.sign(message).value().serialize());
  const auto again = key.sign_reserved(leaf, gc::to_bytes("a second message"));
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), gc::ErrorCode::kInvalidArgument);
  EXPECT_EQ(key.signatures_used(), 3u);
  EXPECT_EQ(key.signatures_remaining(), 1u);

  // Reserving the last leaf exhausts the key for sign() and reserve_leaf().
  EXPECT_EQ(key.reserve_leaf().value(), 3u);
  EXPECT_EQ(key.signatures_remaining(), 0u);
  EXPECT_EQ(key.sign(message).error().code(), gc::ErrorCode::kResourceExhausted);
  EXPECT_EQ(key.reserve_leaf().error().code(), gc::ErrorCode::kResourceExhausted);
}

TEST(Signature, InvalidHeightThrows) {
  EXPECT_THROW(cr::SigningKey::generate(gc::to_bytes("s"), 0), std::invalid_argument);
  EXPECT_THROW(cr::SigningKey::generate(gc::to_bytes("s"), 21), std::invalid_argument);
}

// --------------------------------------------------------------------- PKI

namespace {

struct PkiFixture {
  gc::SimTime t0 = gc::SimTime::from_days(0);
  gc::SimTime t_end = gc::SimTime::from_days(365);
  cr::CertificateAuthority root = cr::CertificateAuthority::create_root(
      "genio-root", gc::to_bytes("root-seed"), t0, t_end, 4);
};

}  // namespace

TEST(Pki, IssueAndVerifyLeafChain) {
  PkiFixture f;
  auto device = cr::SigningKey::generate(gc::to_bytes("onu-seed"), 2);
  const auto leaf = f.root
                        .issue("onu-0042", device.public_key(), f.t0,
                               gc::SimTime::from_days(30), {cr::KeyUsage::kNodeAuth})
                        .value();

  cr::TrustStore store;
  store.add_root(f.root.certificate());
  const cr::Certificate chain[] = {leaf, f.root.certificate()};
  EXPECT_TRUE(store
                  .verify_chain(chain, gc::SimTime::from_days(1), cr::KeyUsage::kNodeAuth)
                  .ok());
}

TEST(Pki, RejectsExpiredCertificate) {
  PkiFixture f;
  auto device = cr::SigningKey::generate(gc::to_bytes("onu-seed"), 2);
  const auto leaf = f.root
                        .issue("onu-1", device.public_key(), f.t0,
                               gc::SimTime::from_days(30), {cr::KeyUsage::kNodeAuth})
                        .value();
  cr::TrustStore store;
  store.add_root(f.root.certificate());
  const cr::Certificate chain[] = {leaf, f.root.certificate()};
  const auto st =
      store.verify_chain(chain, gc::SimTime::from_days(31), cr::KeyUsage::kNodeAuth);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kAuthenticationFailed);
}

TEST(Pki, RejectsRevokedCertificate) {
  PkiFixture f;
  auto device = cr::SigningKey::generate(gc::to_bytes("onu-seed"), 2);
  const auto leaf = f.root
                        .issue("onu-2", device.public_key(), f.t0, f.t_end,
                               {cr::KeyUsage::kNodeAuth})
                        .value();
  f.root.revoke(leaf.serial);

  cr::TrustStore store;
  store.add_root(f.root.certificate());
  store.add_crl("genio-root", f.root.crl());
  const cr::Certificate chain[] = {leaf, f.root.certificate()};
  EXPECT_FALSE(
      store.verify_chain(chain, gc::SimTime::from_days(1), cr::KeyUsage::kNodeAuth).ok());
}

TEST(Pki, RejectsUntrustedRoot) {
  PkiFixture f;
  auto rogue = cr::CertificateAuthority::create_root("rogue-ca", gc::to_bytes("rogue"),
                                                     f.t0, f.t_end, 4);
  auto device = cr::SigningKey::generate(gc::to_bytes("dev"), 2);
  const auto leaf = rogue
                        .issue("onu-evil", device.public_key(), f.t0, f.t_end,
                               {cr::KeyUsage::kNodeAuth})
                        .value();
  cr::TrustStore store;
  store.add_root(f.root.certificate());
  const cr::Certificate chain[] = {leaf, rogue.certificate()};
  EXPECT_FALSE(
      store.verify_chain(chain, gc::SimTime::from_days(1), cr::KeyUsage::kNodeAuth).ok());
}

TEST(Pki, IntermediateChainVerifies) {
  PkiFixture f;
  auto intermediate = cr::CertificateAuthority::create_intermediate(
                          "genio-edge-ca", gc::to_bytes("edge-seed"), f.root, f.t0, f.t_end)
                          .value();
  auto device = cr::SigningKey::generate(gc::to_bytes("olt-seed"), 2);
  const auto leaf = intermediate
                        .issue("olt-na-01", device.public_key(), f.t0, f.t_end,
                               {cr::KeyUsage::kNodeAuth})
                        .value();
  cr::TrustStore store;
  store.add_root(f.root.certificate());
  const cr::Certificate chain[] = {leaf, intermediate.certificate(), f.root.certificate()};
  EXPECT_TRUE(
      store.verify_chain(chain, gc::SimTime::from_days(1), cr::KeyUsage::kNodeAuth).ok());
}

TEST(Pki, RejectsWrongUsage) {
  PkiFixture f;
  auto device = cr::SigningKey::generate(gc::to_bytes("dev"), 2);
  const auto leaf = f.root
                        .issue("builder", device.public_key(), f.t0, f.t_end,
                               {cr::KeyUsage::kCodeSigning})
                        .value();
  cr::TrustStore store;
  store.add_root(f.root.certificate());
  const cr::Certificate chain[] = {leaf, f.root.certificate()};
  const auto st =
      store.verify_chain(chain, gc::SimTime::from_days(1), cr::KeyUsage::kNodeAuth);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kPermissionDenied);
}

TEST(Pki, TamperedCertificateFailsSignature) {
  PkiFixture f;
  auto device = cr::SigningKey::generate(gc::to_bytes("dev"), 2);
  auto leaf = f.root
                  .issue("onu-3", device.public_key(), f.t0, f.t_end,
                         {cr::KeyUsage::kNodeAuth})
                  .value();
  leaf.subject = "onu-3-forged";  // tamper after issuance
  cr::TrustStore store;
  store.add_root(f.root.certificate());
  const cr::Certificate chain[] = {leaf, f.root.certificate()};
  const auto st =
      store.verify_chain(chain, gc::SimTime::from_days(1), cr::KeyUsage::kNodeAuth);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.error().code(), gc::ErrorCode::kSignatureInvalid);
}

TEST(Pki, CaCertificateIsNotALeafForOtherUsages) {
  PkiFixture f;
  auto intermediate = cr::CertificateAuthority::create_intermediate(
                          "genio-edge-ca", gc::to_bytes("edge-seed"), f.root, f.t0, f.t_end)
                          .value();
  cr::TrustStore store;
  store.add_root(f.root.certificate());
  const cr::Certificate chain[] = {intermediate.certificate(), f.root.certificate()};
  for (const auto usage : {cr::KeyUsage::kNodeAuth, cr::KeyUsage::kCodeSigning}) {
    const auto st = store.verify_chain(chain, gc::SimTime::from_days(1), usage);
    ASSERT_FALSE(st.ok()) << cr::to_string(usage);
    EXPECT_EQ(st.error().code(), gc::ErrorCode::kPermissionDenied);
  }
  EXPECT_TRUE(
      store.verify_chain(chain, gc::SimTime::from_days(1), cr::KeyUsage::kCaSigning).ok());
}

// Two CAs from one seed: the first issues X then Y, the second reserves
// X's serial and leaf, issues Y, then X at its reservation. Both hold the
// same two certificates, byte for byte.
TEST(Pki, ReservationIssuesTheSameCertificateLater) {
  PkiFixture eager;
  PkiFixture deferred;
  const auto x_key = cr::SigningKey::generate(gc::to_bytes("x-seed"), 2).public_key();
  const auto y_key = cr::SigningKey::generate(gc::to_bytes("y-seed"), 2).public_key();
  auto issue_x = [&](cr::CertificateAuthority& ca) {
    return ca.issue("onu-x", x_key, eager.t0, eager.t_end, {cr::KeyUsage::kNodeAuth});
  };
  auto issue_y = [&](cr::CertificateAuthority& ca) {
    return ca.issue("olt-y", y_key, eager.t0, eager.t_end, {cr::KeyUsage::kNodeAuth});
  };
  const auto x1 = issue_x(eager.root).value();
  const auto y1 = issue_y(eager.root).value();

  const auto at = deferred.root.reserve().value();
  EXPECT_EQ(at.serial(), x1.serial);
  const auto y2 = issue_y(deferred.root).value();
  const auto x2 = deferred.root
                      .issue(at, "onu-x", x_key, eager.t0, eager.t_end,
                             {cr::KeyUsage::kNodeAuth})
                      .value();
  for (const auto& [a, b] : {std::pair(x1, x2), std::pair(y1, y2)}) {
    EXPECT_EQ(a.serial, b.serial) << a.subject;
    EXPECT_EQ(a.tbs_bytes(), b.tbs_bytes()) << a.subject;
    EXPECT_EQ(a.signature.serialize(), b.signature.serialize()) << a.subject;
  }
  EXPECT_EQ(deferred.root.signatures_remaining(), eager.root.signatures_remaining());

  // A reservation issues once.
  const auto again = deferred.root.issue(at, "onu-x2", x_key, eager.t0, eager.t_end,
                                         {cr::KeyUsage::kNodeAuth});
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.error().code(), gc::ErrorCode::kInvalidArgument);
}

TEST(Pki, EmptyChainRejected) {
  cr::TrustStore store;
  EXPECT_FALSE(store.verify_chain({}, gc::SimTime{}, cr::KeyUsage::kNodeAuth).ok());
}

// ------------------------------------------------- data-plane round 2

TEST(Aes128, CtrWideMatchesSingleBlockEveryLength) {
  // 1..9-block messages plus every tail length 0..15 around each block
  // boundary: the wide 4-block path and the single-block path must agree
  // byte for byte, including the fallback hand-off mid-buffer.
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  const cr::Aes128 cipher(key);
  gc::Rng rng(7001);
  cr::AesBlock iv{};
  for (std::size_t i = 0; i < iv.size(); ++i) iv[i] = static_cast<std::uint8_t>(rng.index(256));
  for (std::size_t len = 0; len <= 9 * 16 + 15; ++len) {
    const gc::Bytes data = rng.bytes(len);
    gc::Bytes wide = data;
    gc::Bytes narrow = data;
    cipher.ctr_xor_wide(iv, wide);
    cipher.ctr_xor_in_place(iv, narrow);
    ASSERT_EQ(wide, narrow) << "len=" << len;
  }
}

TEST(Aes128, CtrWideHandlesCounterWrap) {
  // The trailing 32-bit counter wraps mod 2^32 (GCM inc32 semantics); start
  // just below the wrap so wide groups straddle it.
  const auto key = cr::make_aes_key(gc::Bytes(16, 0x3c));
  const cr::Aes128 cipher(key);
  cr::AesBlock iv{};
  iv[12] = iv[13] = iv[14] = 0xff;
  iv[15] = 0xfe;  // counter = 0xfffffffe: wraps inside the first wide group
  gc::Rng rng(7002);
  const gc::Bytes data = rng.bytes(11 * 16 + 5);
  gc::Bytes wide = data;
  gc::Bytes narrow = data;
  cipher.ctr_xor_wide(iv, wide);
  cipher.ctr_xor_in_place(iv, narrow);
  EXPECT_EQ(wide, narrow);
}

TEST(GcmContext, SealMatchesBitwiseReferenceAcrossBlockCounts) {
  // Full seal (wide CTR + aggregated GHASH) against a tag assembled purely
  // from the bitwise oracle primitives, for 1..9 block messages, tail
  // lengths 0..15, and an AAD-only message.
  const auto key = cr::make_aes_key(from_hex("feffe9928665731c6d6a8f9467308308"));
  const cr::GcmContext ctx(key);
  const cr::Aes128 raw(key);
  gc::Rng rng(7004);
  const gc::Bytes aad = rng.bytes(23);

  const auto ref_tag = [&](gc::BytesView a, gc::BytesView ct) {
    gc::Bytes ghash_in;
    ghash_in.insert(ghash_in.end(), a.begin(), a.end());
    ghash_in.resize((ghash_in.size() + 15) / 16 * 16, 0);
    ghash_in.insert(ghash_in.end(), ct.begin(), ct.end());
    ghash_in.resize((ghash_in.size() + 15) / 16 * 16, 0);
    for (int i = 0; i < 8; ++i) {
      ghash_in.push_back(static_cast<std::uint8_t>((a.size() * 8) >> (56 - 8 * i)));
    }
    for (int i = 0; i < 8; ++i) {
      ghash_in.push_back(static_cast<std::uint8_t>((ct.size() * 8) >> (56 - 8 * i)));
    }
    const cr::AesBlock y = cr::ghash(ctx.h(), ghash_in);
    cr::AesBlock j0{};
    j0[15] = 1;
    const cr::AesBlock ek = raw.encrypt_block(j0);
    cr::GcmTag tag;
    for (int i = 0; i < 16; ++i) tag[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(y[static_cast<std::size_t>(i)] ^ ek[static_cast<std::size_t>(i)]);
    return tag;
  };

  std::vector<std::size_t> lengths = {0};  // AAD-only
  for (std::size_t blocks = 1; blocks <= 9; ++blocks) {
    for (std::size_t tail = 0; tail <= 15; ++tail) {
      lengths.push_back((blocks - 1) * 16 + tail);
    }
    lengths.push_back(blocks * 16);
  }
  for (const std::size_t len : lengths) {
    const gc::Bytes pt = rng.bytes(len);
    const cr::GcmNonce nonce{};  // j0 = 0^12 || 1, matching ref_tag
    const auto sealed = ctx.seal(nonce, pt, aad);
    // Ciphertext from the single-block reference CTR path.
    gc::Bytes expect_ct = pt;
    cr::AesBlock ctr{};
    ctr[15] = 2;  // inc32(j0)
    raw.ctr_xor_in_place(ctr, expect_ct);
    ASSERT_EQ(sealed.ciphertext, expect_ct) << "len=" << len;
    ASSERT_EQ(sealed.tag, ref_tag(aad, sealed.ciphertext)) << "len=" << len;
  }
}

// ---------------------------------------- data-plane round 3: backends

namespace {

using DpKernel = cr::DataplaneKernel;

const char* dp_kernel_name(const testing::TestParamInfo<DpKernel>& info) {
  switch (info.param) {
    case DpKernel::kPortable: return "Portable";
    case DpKernel::kAesPclmul: return "AesPclmul";
    case DpKernel::kVaesAvx512: return "VaesAvx512";
  }
  return "Unknown";
}

const auto kDpKernels =
    testing::Values(DpKernel::kPortable, DpKernel::kAesPclmul, DpKernel::kVaesAvx512);

// Runs each test once per data-plane backend, straight through the
// kernel-taking constructors; a hardware backend's run skips on CPUs
// without it.
class DataplaneKernels : public testing::TestWithParam<DpKernel> {
 protected:
  void SetUp() override {
    if (!cr::supports_dataplane_kernel(GetParam())) {
      GTEST_SKIP() << "CPU lacks this data-plane backend";
    }
  }
};

class AesKernels : public DataplaneKernels {};
class GcmKernels : public DataplaneKernels {};
class Crc32Kernels : public DataplaneKernels {};

cr::GcmNonce nonce_from_hex(const std::string& hex) {
  cr::GcmNonce nonce{};
  const gc::Bytes bytes = from_hex(hex);
  std::copy(bytes.begin(), bytes.end(), nonce.begin());
  return nonce;
}

std::string hex_tag(const cr::GcmTag& tag) {
  return gc::hex_encode(gc::BytesView(tag.data(), tag.size()));
}

// GCM assembled only from the oracles: byte-wise single-block CTR, and the
// bitwise GHASH over zero-padded AAD, ciphertext and the length block.
cr::GcmSealed bitwise_seal(const cr::AesKey& key, const cr::GcmNonce& nonce,
                           gc::BytesView plaintext, gc::BytesView aad) {
  const cr::Aes128 aes(key, DpKernel::kPortable);
  cr::AesBlock j0{};
  std::copy(nonce.begin(), nonce.end(), j0.begin());
  j0[15] = 1;
  cr::AesBlock ctr = j0;
  ctr[15] = 2;
  cr::GcmSealed out;
  out.ciphertext.assign(plaintext.begin(), plaintext.end());
  aes.ctr_xor_in_place(ctr, out.ciphertext);

  gc::Bytes ghash_in(aad.begin(), aad.end());
  ghash_in.resize((ghash_in.size() + 15) / 16 * 16, 0);
  ghash_in.insert(ghash_in.end(), out.ciphertext.begin(), out.ciphertext.end());
  ghash_in.resize((ghash_in.size() + 15) / 16 * 16, 0);
  for (const std::uint64_t bits : {aad.size() * 8, plaintext.size() * 8}) {
    for (int i = 0; i < 8; ++i) ghash_in.push_back(static_cast<std::uint8_t>(bits >> (56 - 8 * i)));
  }
  const cr::AesBlock y = cr::ghash(aes.encrypt_block(cr::AesBlock{}), ghash_in);
  const cr::AesBlock ek_j0 = aes.encrypt_block(j0);
  for (std::size_t i = 0; i < 16; ++i) out.tag[i] = static_cast<std::uint8_t>(y[i] ^ ek_j0[i]);
  return out;
}

}  // namespace

TEST(DataplaneKernel, DispatchPicksTheLastBackendCpuidReports) {
#if defined(__x86_64__)
  const bool has_aes_pclmul = __builtin_cpu_supports("aes") && __builtin_cpu_supports("pclmul") &&
                              __builtin_cpu_supports("ssse3") && __builtin_cpu_supports("sse4.1");
  const bool has_vaes = has_aes_pclmul && __builtin_cpu_supports("vaes") &&
                        __builtin_cpu_supports("vpclmulqdq") &&
                        __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw");
#else
  const bool has_aes_pclmul = false;
  const bool has_vaes = false;
#endif
  EXPECT_EQ(cr::dispatched_dataplane_kernel(), has_vaes         ? DpKernel::kVaesAvx512
                                               : has_aes_pclmul ? DpKernel::kAesPclmul
                                                                : DpKernel::kPortable);
  EXPECT_EQ(cr::supports_dataplane_kernel(DpKernel::kVaesAvx512), has_vaes);
  EXPECT_EQ(cr::supports_dataplane_kernel(DpKernel::kAesPclmul), has_aes_pclmul);
  EXPECT_TRUE(cr::supports_dataplane_kernel(DpKernel::kPortable));
  const auto key = cr::make_aes_key(gc::Bytes(16, 1));
  EXPECT_EQ(cr::Aes128(key).kernel(), cr::dispatched_dataplane_kernel());
  EXPECT_EQ(cr::GcmContext(key).kernel(), cr::dispatched_dataplane_kernel());
  for (const DpKernel kernel : {DpKernel::kAesPclmul, DpKernel::kVaesAvx512}) {
    if (cr::supports_dataplane_kernel(kernel)) continue;
    EXPECT_THROW(cr::Aes128(key, kernel), std::invalid_argument);
    EXPECT_THROW(cr::GcmContext(key, kernel), std::invalid_argument);
    EXPECT_THROW(cr::crc32_update(cr::crc32_init(), {}, kernel), std::invalid_argument);
  }
}

TEST_P(AesKernels, CtrWideMatchesSingleBlockPath) {
  // Lengths 0..1100 run every tail behind one to four 256-byte passes;
  // 4096 and 9000 run many. CTR over a prefix is the prefix of the
  // keystream, so one single-block keystream per IV is the oracle for
  // every length, at each start offset into the buffer.
  const auto key = cr::make_aes_key(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  const cr::Aes128 cipher(key, GetParam());
  const cr::Aes128 oracle(key, DpKernel::kPortable);
  gc::Rng rng(7101);
  std::vector<std::size_t> lengths(1101);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.insert(lengths.end(), {4096, 9000});
  const gc::Bytes data = rng.bytes(9000 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    cr::AesBlock iv{};
    for (auto& b : iv) b = static_cast<std::uint8_t>(rng.index(256));
    gc::Bytes expect = data;
    oracle.ctr_xor_in_place(iv, std::span<std::uint8_t>(expect.data() + offset, 9000));
    gc::Bytes buf;
    for (const std::size_t len : lengths) {
      buf = data;
      cipher.ctr_xor_wide(iv, std::span<std::uint8_t>(buf.data() + offset, len));
      const auto end = static_cast<std::ptrdiff_t>(offset + len);
      // The keystream over [offset, end), and nothing past the end touched.
      ASSERT_TRUE(std::equal(buf.begin(), buf.begin() + end, expect.begin()))
          << "offset=" << offset << " len=" << len;
      ASSERT_TRUE(std::equal(buf.begin() + end, buf.end(), data.begin() + end))
          << "offset=" << offset << " len=" << len;
    }
  }
}

TEST_P(AesKernels, CtrWideWrapsTheCounterMod2To32) {
  // Counters from 0xfffffff0 to 0xffffffff: every block group, tail
  // position and, from 512 bytes, every lane of a 16-block pass meets the
  // wrap, which leaves bytes 0..11 alone.
  const auto key = cr::make_aes_key(gc::Bytes(16, 0x3c));
  const cr::Aes128 cipher(key, GetParam());
  const cr::Aes128 oracle(key, DpKernel::kPortable);
  gc::Rng rng(7102);
  for (unsigned start = 0xf0; start <= 0xff; ++start) {
    cr::AesBlock iv{};
    iv[11] = 0x7f;
    iv[12] = iv[13] = iv[14] = 0xff;
    iv[15] = static_cast<std::uint8_t>(start);
    for (const std::size_t len :
         {16u, 64u, 127u, 128u, 200u, 16u * 20 + 3, 512u, 16u * 40 + 5, 1024u, 16u * 70 + 9}) {
      const gc::Bytes data = rng.bytes(len);
      gc::Bytes wide = data;
      gc::Bytes narrow = data;
      cipher.ctr_xor_wide(iv, wide);
      oracle.ctr_xor_in_place(iv, narrow);
      ASSERT_EQ(wide, narrow) << "start=" << start << " len=" << len;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cpu, AesKernels, kDpKernels, dp_kernel_name);

TEST_P(GcmKernels, NistVectors) {
  struct Case {
    const char* key;
    const char* nonce;
    const char* pt;
    const char* aad;
    const char* ct;
    const char* tag;
  };
  const Case cases[] = {
      // NIST GCM spec test cases 1-4.
      {"00000000000000000000000000000000", "000000000000000000000000", "", "", "",
       "58e2fccefa7e3061367f1d57a4e7455a"},
      {"00000000000000000000000000000000", "000000000000000000000000",
       "00000000000000000000000000000000", "", "0388dace60b6a392f328c2b971b2fe78",
       "ab6e47d42cec13bdf53a67b21257bddf"},
      {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
       "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
       "",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
       "4d5c2af327cd64a62cf35abd2ba6fab4"},
      {"feffe9928665731c6d6a8f9467308308", "cafebabefacedbaddecaf888",
       "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
       "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
       "feedfacedeadbeeffeedfacedeadbeefabaddad2",
       "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
       "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
       "5bc94fbc3221a5db94fae95ae7121a47"},
      // CAVS gcmEncryptExtIV128, PTlen=0, AADlen=128 (tag only).
      {"77be63708971c4e240d1cb79e8d77feb", "e0e00f19fed7ba0136a797f3", "",
       "7a43ec1d9c0a5a78a0b16533a6213cab", "", "209fcc8d3675ed938e9c7166709dd946"},
  };
  for (const Case& c : cases) {
    const cr::GcmContext ctx(cr::make_aes_key(from_hex(c.key)), GetParam());
    const cr::GcmNonce nonce = nonce_from_hex(c.nonce);
    const gc::Bytes pt = from_hex(c.pt);
    const gc::Bytes aad = from_hex(c.aad);
    const auto sealed = ctx.seal(nonce, pt, aad);
    EXPECT_EQ(gc::hex_encode(sealed.ciphertext), c.ct) << c.tag;
    EXPECT_EQ(hex_tag(sealed.tag), c.tag);
    const auto opened = ctx.open(nonce, sealed.ciphertext, sealed.tag, aad);
    ASSERT_TRUE(opened.ok()) << c.tag;
    EXPECT_EQ(*opened, pt) << c.tag;
  }
}

TEST_P(GcmKernels, SealAndOpenMatchBitwiseOracle) {
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  const cr::GcmContext ctx(key, GetParam());
  gc::Rng rng(7103);
  std::vector<std::size_t> lengths(1101);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.insert(lengths.end(), {1500, 4096, 9000});
  for (const std::size_t aad_len : {9u, 23u}) {
    const gc::Bytes aad = rng.bytes(aad_len);
    for (const std::size_t len : lengths) {
      cr::GcmNonce nonce{};
      for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.index(256));
      const gc::Bytes pt = rng.bytes(len);
      const cr::GcmSealed expect = bitwise_seal(key, nonce, pt, aad);
      gc::Bytes buf = pt;
      const cr::GcmTag tag = ctx.seal_in_place(nonce, buf, aad);
      ASSERT_EQ(buf, expect.ciphertext) << "aad=" << aad_len << " len=" << len;
      ASSERT_EQ(tag, expect.tag) << "aad=" << aad_len << " len=" << len;
      ASSERT_TRUE(ctx.open_in_place(nonce, buf, expect.tag, aad).ok()) << "len=" << len;
      ASSERT_EQ(buf, pt) << "aad=" << aad_len << " len=" << len;
    }
  }
}

TEST_P(GcmKernels, SealAndOpenMatchPortableAtEveryLengthAndAadLength) {
  // Every length through the fused kernels' passes and last groups, with
  // AADs that fold into the last group (up to 15 blocks beside the payload
  // on VAES, 7 on AES-NI) and ones that fold first, through every masked
  // AAD register and across whole passes, against kPortable's composed
  // path. A sentinel past the end must survive every call, and a tampered
  // open must leave the ciphertext in place: the hardware backends decrypt
  // while they hash and then restore it.
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  const cr::GcmContext ctx(key, GetParam());
  const cr::GcmContext portable(key, DpKernel::kPortable);
  gc::Rng rng(7108);
  std::vector<std::size_t> lengths(1101);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.insert(lengths.end(), {1500, 4095, 4096, 4097, 9000});
  constexpr std::uint8_t kSentinel = 0xa5;
  for (const std::size_t aad_len :
       {0u, 1u, 9u, 12u, 16u, 17u, 40u, 48u, 64u, 65u, 100u, 200u, 300u, 512u, 1000u}) {
    const gc::Bytes aad = rng.bytes(aad_len);
    for (const std::size_t len : lengths) {
      SCOPED_TRACE("aad=" + std::to_string(aad_len) + " len=" + std::to_string(len));
      cr::GcmNonce nonce{};
      for (auto& b : nonce) b = static_cast<std::uint8_t>(rng.index(256));
      const gc::Bytes pt = rng.bytes(len);
      gc::Bytes expect = pt;
      const cr::GcmTag expect_tag = portable.seal_in_place(nonce, expect, aad);

      gc::Bytes buf = pt;
      buf.push_back(kSentinel);
      const std::span<std::uint8_t> data(buf.data(), len);
      const cr::GcmTag tag = ctx.seal_in_place(nonce, data, aad);
      ASSERT_TRUE(std::equal(expect.begin(), expect.end(), buf.begin()));
      ASSERT_EQ(tag, expect_tag);
      ASSERT_EQ(buf[len], kSentinel);

      gc::Bytes tampered = buf;
      cr::GcmTag bad_tag = tag;
      if (len > 0) {
        tampered[rng.index(len)] ^= 0x04;
      } else {
        bad_tag[rng.index(16)] ^= 0x04;
      }
      const gc::Bytes before = tampered;
      ASSERT_FALSE(ctx.open_in_place(nonce, std::span<std::uint8_t>(tampered.data(), len),
                                     bad_tag, aad)
                       .ok());
      ASSERT_EQ(tampered, before);

      ASSERT_TRUE(ctx.open_in_place(nonce, data, tag, aad).ok());
      ASSERT_TRUE(std::equal(pt.begin(), pt.end(), buf.begin()));
      ASSERT_EQ(buf[len], kSentinel);
    }
  }
}

TEST_P(GcmKernels, CipherCtrCrossesTheCounterWrap) {
  // A 96-bit nonce starts the payload counter at 2, so the wrap is reached
  // through the context's cipher with a counter of 0xfffffffe.
  const auto key = cr::make_aes_key(from_hex("feffe9928665731c6d6a8f9467308308"));
  const cr::GcmContext ctx(key, GetParam());
  cr::AesBlock iv{};
  iv[0] = 0xca;
  iv[12] = iv[13] = iv[14] = 0xff;
  iv[15] = 0xfe;
  gc::Rng rng(7104);
  const gc::Bytes data = rng.bytes(16 * 19 + 7);
  gc::Bytes wide = data;
  gc::Bytes narrow = data;
  ctx.cipher().ctr_xor_wide(iv, wide);
  cr::Aes128(key, DpKernel::kPortable).ctr_xor_in_place(iv, narrow);
  EXPECT_EQ(wide, narrow);
}

TEST_P(GcmKernels, TamperIsRejectedAndLeavesBufferUntouched) {
  const auto key = cr::make_aes_key(gc::Bytes(16, 9));
  const cr::GcmContext ctx(key, GetParam());
  const cr::GcmNonce nonce = nonce_from_hex("00112233445566778899aabb");
  gc::Rng rng(7105);
  const gc::Bytes aad = rng.bytes(9);
  for (const std::size_t len : {1u, 64u, 1500u}) {
    gc::Bytes buf = rng.bytes(len);
    const cr::GcmTag tag = ctx.seal_in_place(nonce, buf, aad);
    for (const std::size_t at : {std::size_t{0}, len / 2, len - 1}) {
      gc::Bytes tampered = buf;
      tampered[at] ^= 0x01;
      const gc::Bytes before = tampered;
      const auto st = ctx.open_in_place(nonce, tampered, tag, aad);
      ASSERT_FALSE(st.ok()) << "len=" << len << " at=" << at;
      EXPECT_EQ(st.error().code(), gc::ErrorCode::kDecryptionFailed);
      EXPECT_EQ(tampered, before);
    }
    cr::GcmTag bad_tag = tag;
    bad_tag[15] ^= 0x80;
    gc::Bytes copy = buf;
    EXPECT_FALSE(ctx.open_in_place(nonce, copy, bad_tag, aad).ok());
    EXPECT_EQ(copy, buf);
  }
}

TEST_P(GcmKernels, GhashMatchesBitwiseOracleAtEveryLength) {
  // Every length through each backend's pass fold (16 blocks on VAES, 8 on
  // AES-NI, 4 on portable) and every last group and partial block after
  // it; a k-block group multiplies by H^k..H^1, so every stored power is
  // reached. h() is E_K(0^128) in GCM byte order on every backend.
  const auto key = cr::make_aes_key(from_hex("000102030405060708090a0b0c0d0e0f"));
  const cr::GcmContext ctx(key, GetParam());
  const cr::AesBlock h = cr::Aes128(key, DpKernel::kPortable).encrypt_block(cr::AesBlock{});
  ASSERT_EQ(ctx.h(), h);
  gc::Rng rng(7003);
  std::vector<std::size_t> lengths(1101);
  std::iota(lengths.begin(), lengths.end(), std::size_t{0});
  lengths.insert(lengths.end(), {4095, 4096, 4097, 9000});
  for (const std::size_t len : lengths) {
    const gc::Bytes data = rng.bytes(len);
    ASSERT_EQ(ctx.ghash(data), cr::ghash(h, data)) << "len=" << len;
  }
}

INSTANTIATE_TEST_SUITE_P(Cpu, GcmKernels, kDpKernels, dp_kernel_name);

TEST_P(Crc32Kernels, MatchesReferenceAtEveryLengthAndOffset) {
  gc::Rng rng(7106);
  const gc::Bytes data = rng.bytes(1100 + 16);
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const gc::BytesView view(data.data() + offset, len);
      const std::uint32_t crc =
          cr::crc32_final(cr::crc32_update(cr::crc32_init(), view, GetParam()));
      ASSERT_EQ(crc, cr::crc32_reference(view)) << "offset=" << offset << " len=" << len;
    }
  }
}

TEST_P(Crc32Kernels, StreamingSplitsMatchReference) {
  gc::Rng rng(7107);
  for (int trial = 0; trial < 400; ++trial) {
    const gc::Bytes data = rng.bytes(rng.index(1101));
    const std::size_t split = rng.index(data.size() + 1);
    std::uint32_t state = cr::crc32_init();
    state = cr::crc32_update(state, gc::BytesView(data.data(), split), GetParam());
    state = cr::crc32_update(state, gc::BytesView(data.data() + split, data.size() - split),
                             GetParam());
    ASSERT_EQ(cr::crc32_final(state), cr::crc32_reference(data))
        << "len=" << data.size() << " split=" << split;
  }
}

INSTANTIATE_TEST_SUITE_P(Cpu, Crc32Kernels, kDpKernels, dp_kernel_name);
