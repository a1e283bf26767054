// Property-based and parameterized sweeps over the core invariants:
// crypto round-trips across sizes and keys, streaming/one-shot hash
// equivalence under arbitrary chunking, MACsec replay-window behavior
// under permutations, version-range algebra, glob matching, and RBAC
// monotonicity. These complement the example-based unit tests with
// coverage across the input space.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "genio/common/rng.hpp"
#include "genio/common/strings.hpp"
#include "genio/common/version.hpp"
#include "genio/crypto/crc32.hpp"
#include "genio/crypto/gcm.hpp"
#include "genio/crypto/hmac.hpp"
#include "genio/crypto/signature.hpp"
#include "genio/middleware/rbac.hpp"
#include "genio/pon/gpon_crypto.hpp"
#include "genio/pon/macsec.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace pon = genio::pon;
namespace mw = genio::middleware;

// ------------------------------------------------------- hashing properties

class ShaChunkingTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShaChunkingTest, StreamingEqualsOneShotForAnyChunkSize) {
  const std::size_t chunk = GetParam();
  gc::Rng rng(chunk);
  const gc::Bytes data = rng.bytes(4096 + chunk);
  cr::Sha256 streaming;
  for (std::size_t offset = 0; offset < data.size(); offset += chunk) {
    const std::size_t n = std::min(chunk, data.size() - offset);
    streaming.update(gc::BytesView(data.data() + offset, n));
  }
  EXPECT_EQ(streaming.finish(), cr::Sha256::hash(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, ShaChunkingTest,
                         ::testing::Values(1, 3, 7, 16, 63, 64, 65, 127, 128, 1000));

TEST(HashProperties, DistinctInputsDistinctDigests) {
  gc::Rng rng(42);
  std::set<std::string> digests;
  for (int i = 0; i < 2000; ++i) {
    digests.insert(cr::digest_hex(cr::Sha256::hash(rng.bytes(32))));
  }
  EXPECT_EQ(digests.size(), 2000u);
}

TEST(HashProperties, HmacKeySeparation) {
  gc::Rng rng(43);
  const gc::Bytes msg = rng.bytes(100);
  const auto a = cr::hmac_sha256(rng.bytes(16), msg);
  const auto b = cr::hmac_sha256(rng.bytes(16), msg);
  EXPECT_NE(a, b);
}

class HkdfLengthTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(HkdfLengthTest, OutputLengthAndPrefixConsistency) {
  const std::size_t length = GetParam();
  const auto okm = cr::hkdf(gc::to_bytes("salt"), gc::to_bytes("ikm"),
                            gc::to_bytes("info"), length);
  EXPECT_EQ(okm.size(), length);
  // HKDF is prefix-consistent: a longer output starts with the shorter one.
  const auto longer = cr::hkdf(gc::to_bytes("salt"), gc::to_bytes("ikm"),
                               gc::to_bytes("info"), length + 16);
  EXPECT_TRUE(std::equal(okm.begin(), okm.end(), longer.begin()));
}

INSTANTIATE_TEST_SUITE_P(Lengths, HkdfLengthTest,
                         ::testing::Values(1, 16, 31, 32, 33, 64, 100, 255));

// ----------------------------------------------------------- GCM properties

class GcmSizeTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GcmSizeTest, RoundTripAnyPayloadSize) {
  const std::size_t size = GetParam();
  gc::Rng rng(size + 1);
  const auto key = cr::make_aes_key(rng.bytes(16));
  cr::GcmNonce nonce{};
  nonce[0] = static_cast<std::uint8_t>(size);
  const gc::Bytes pt = rng.bytes(size);
  const gc::Bytes aad = rng.bytes(size % 37);
  const auto sealed = cr::gcm_seal(key, nonce, pt, aad);
  EXPECT_EQ(sealed.ciphertext.size(), size);
  const auto opened = cr::gcm_open(key, nonce, sealed.ciphertext, sealed.tag, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, GcmSizeTest,
                         ::testing::Values(0, 1, 15, 16, 17, 31, 32, 33, 63, 64, 255,
                                           256, 1000, 4096));

TEST(GcmProperties, AnySingleBitFlipIsDetected) {
  gc::Rng rng(77);
  const auto key = cr::make_aes_key(rng.bytes(16));
  cr::GcmNonce nonce{};
  const gc::Bytes pt = rng.bytes(64);
  const auto sealed = cr::gcm_seal(key, nonce, pt, {});
  for (int trial = 0; trial < 128; ++trial) {
    auto corrupted = sealed;
    const std::size_t byte = rng.index(corrupted.ciphertext.size());
    corrupted.ciphertext[byte] ^= static_cast<std::uint8_t>(1u << rng.index(8));
    EXPECT_FALSE(
        cr::gcm_open(key, nonce, corrupted.ciphertext, corrupted.tag, {}).ok());
  }
}

TEST(GcmProperties, NonceReuseAcrossMessagesStillAuthenticates) {
  // (A property check, not an endorsement: the PON layers never reuse a
  // (key, counter) pair.) Same nonce, different plaintext -> different tag.
  const auto key = cr::make_aes_key(gc::Bytes(16, 5));
  cr::GcmNonce nonce{};
  const auto a = cr::gcm_seal(key, nonce, gc::to_bytes("aaaa"), {});
  const auto b = cr::gcm_seal(key, nonce, gc::to_bytes("bbbb"), {});
  EXPECT_NE(a.tag, b.tag);
}

// ----------------------------------------------------------- CRC properties

TEST(CrcProperties, SingleBitFlipsAlwaysDetected) {
  gc::Rng rng(5);
  const gc::Bytes frame = rng.bytes(256);
  const auto baseline = cr::crc32(frame);
  for (std::size_t byte = 0; byte < frame.size(); byte += 7) {
    for (int bit = 0; bit < 8; ++bit) {
      gc::Bytes mutated = frame;
      mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(cr::crc32(mutated), baseline);
    }
  }
}

// ----------------------------------------------------- signature properties

class SignatureHeightTest : public ::testing::TestWithParam<std::uint8_t> {};

TEST_P(SignatureHeightTest, AllLeavesSignAndVerify) {
  const std::uint8_t height = GetParam();
  auto key = cr::SigningKey::generate(gc::to_bytes("prop-seed"), height);
  const std::uint32_t capacity = 1u << height;
  EXPECT_EQ(key.signatures_remaining(), capacity);
  for (std::uint32_t i = 0; i < capacity; ++i) {
    const std::string msg = "leaf-" + std::to_string(i);
    const auto sig = key.sign(std::string_view(msg));
    ASSERT_TRUE(sig.ok());
    EXPECT_TRUE(cr::verify(key.public_key(), std::string_view(msg), *sig).ok());
    // Cross-verification must fail.
    EXPECT_FALSE(
        cr::verify(key.public_key(), std::string_view(msg + "-other"), *sig).ok());
  }
  EXPECT_FALSE(key.sign(std::string_view("overflow")).ok());
}

INSTANTIATE_TEST_SUITE_P(Heights, SignatureHeightTest, ::testing::Values(1, 2, 3, 5));

TEST(SignatureProperties, SerializationIsStableUnderRoundTrip) {
  auto key = cr::SigningKey::generate(gc::to_bytes("s"), 3);
  for (int i = 0; i < 8; ++i) {
    const auto sig = key.sign(std::string_view("m")).value();
    const auto wire = sig.serialize();
    const auto back = cr::Signature::deserialize(wire).value();
    EXPECT_EQ(back.serialize(), wire);
  }
}

// -------------------------------------------------------------- hex / bytes

TEST(HexProperties, RoundTripRandomBuffers) {
  gc::Rng rng(9);
  for (int i = 0; i < 200; ++i) {
    const auto data = rng.bytes(rng.index(100));
    const auto back = gc::hex_decode(gc::hex_encode(data));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, data);
  }
}

// ------------------------------------------------------ MACsec replay sweep

class MacsecWindowTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MacsecWindowTest, PermutedDeliveryWithinWindowAllAccepted) {
  const std::uint32_t window = GetParam();
  const auto key = cr::make_aes_key(gc::Bytes(16, 9));
  pon::MacsecSecY tx(0x1, key, window);
  pon::MacsecSecY rx(0x2, key, window);

  // Protect `window` frames, deliver them in reverse order: every frame is
  // within the window of the highest PN, so all must be accepted once.
  std::vector<pon::MacsecFrame> frames;
  for (std::uint32_t i = 0; i < window; ++i) {
    pon::EthFrame f;
    f.src_mac = "02:00:00:00:00:01";
    f.dst_mac = "02:00:00:00:00:02";
    f.payload = gc::to_bytes("frame-" + std::to_string(i));
    frames.push_back(tx.protect(f));
  }
  std::reverse(frames.begin(), frames.end());
  for (const auto& frame : frames) {
    EXPECT_TRUE(rx.validate(frame).ok()) << "pn=" << frame.pn;
  }
  // Second delivery: every single one is a replay.
  for (const auto& frame : frames) {
    EXPECT_FALSE(rx.validate(frame).ok());
  }
  EXPECT_EQ(rx.stats().replayed_frames, window);
}

INSTANTIATE_TEST_SUITE_P(Windows, MacsecWindowTest, ::testing::Values(2, 8, 32, 63));

TEST(MacsecProperties, InterleavedStreamsDoNotConfuseWindows) {
  const auto key = cr::make_aes_key(gc::Bytes(16, 3));
  pon::MacsecSecY tx(0x1, key, 16);
  pon::MacsecSecY rx(0x2, key, 16);
  gc::Rng rng(21);
  std::vector<pon::MacsecFrame> inflight;
  std::size_t delivered = 0;
  for (int i = 0; i < 200; ++i) {
    pon::EthFrame f;
    f.src_mac = "a";
    f.dst_mac = "b";
    f.payload = rng.bytes(20);
    inflight.push_back(tx.protect(f));
    // Deliver a random in-flight frame with small reordering depth.
    const std::size_t pick =
        inflight.size() - 1 - std::min<std::size_t>(rng.index(3), inflight.size() - 1);
    const auto frame = inflight[pick];
    inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(pick));
    if (rx.validate(frame).ok()) ++delivered;
  }
  // With reorder depth << window, everything delivered exactly once.
  EXPECT_EQ(delivered, 200u);
}

// -------------------------------------------------------- GPON cipher sweep

class GponSweepTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GponSweepTest, RoundTripAcrossSizes) {
  gc::Rng rng(GetParam());
  pon::GponCipher cipher(cr::make_aes_key(rng.bytes(16)));
  pon::GemFrame frame;
  frame.onu_id = static_cast<std::uint16_t>(rng.index(1024));
  frame.port_id = static_cast<std::uint16_t>(1 + rng.index(100));
  frame.superframe = static_cast<std::uint32_t>(rng.next_u64());
  const auto payload = rng.bytes(GetParam());
  frame.payload = payload;
  cipher.encrypt(frame);
  ASSERT_TRUE(cipher.decrypt(frame).ok());
  EXPECT_EQ(frame.payload, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, GponSweepTest,
                         ::testing::Values(0, 1, 16, 48, 255, 1500, 9000));

// ------------------------------------------------------- version properties

TEST(VersionProperties, OrderingIsTotalAndConsistent) {
  gc::Rng rng(31);
  std::vector<gc::Version> versions;
  for (int i = 0; i < 100; ++i) {
    versions.emplace_back(static_cast<int>(rng.index(5)), static_cast<int>(rng.index(10)),
                          static_cast<int>(rng.index(10)));
  }
  std::sort(versions.begin(), versions.end());
  for (std::size_t i = 1; i < versions.size(); ++i) {
    EXPECT_LE(versions[i - 1], versions[i]);
  }
}

TEST(VersionProperties, ParseToStringRoundTrip) {
  gc::Rng rng(32);
  for (int i = 0; i < 100; ++i) {
    const gc::Version v(static_cast<int>(rng.index(100)), static_cast<int>(rng.index(100)),
                        static_cast<int>(rng.index(100)));
    EXPECT_EQ(gc::Version::parse(v.to_string()).value(), v);
  }
}

TEST(VersionRangeProperties, BetweenContainsExactlyItsInterior) {
  const auto lo = gc::Version(1, 2, 0);
  const auto hi = gc::Version(1, 5, 0);
  const auto range = gc::VersionRange::between(lo, hi);
  gc::Rng rng(33);
  for (int i = 0; i < 500; ++i) {
    const gc::Version v(1, static_cast<int>(rng.index(8)), static_cast<int>(rng.index(10)));
    const bool expected = v >= lo && v < hi;
    EXPECT_EQ(range.contains(v), expected) << v.to_string();
  }
}

// ---------------------------------------------------------- glob properties

TEST(GlobProperties, LiteralPatternsMatchOnlyThemselves) {
  gc::Rng rng(34);
  for (int i = 0; i < 100; ++i) {
    const std::string s = rng.ident(1 + rng.index(20));
    EXPECT_TRUE(gc::glob_match(s, s));
    const std::string other = rng.ident(1 + rng.index(20));
    if (other != s) {
      EXPECT_FALSE(gc::glob_match(s, other)) << s << " vs " << other;
    }
  }
}

TEST(GlobProperties, StarPrefixAndSuffix) {
  gc::Rng rng(35);
  for (int i = 0; i < 100; ++i) {
    const std::string body = rng.ident(8);
    EXPECT_TRUE(gc::glob_match("*" + body, "prefix-" + body));
    EXPECT_TRUE(gc::glob_match(body + "*", body + "-suffix"));
    EXPECT_TRUE(gc::glob_match("*" + body + "*", "x" + body + "y"));
  }
}

// ---------------------------------------------------------- RBAC properties

TEST(RbacProperties, HardenedAllowedSetIsSubsetOfPermissive) {
  const auto permissive = mw::make_permissive_default_rbac();
  const auto hardened = mw::make_least_privilege_rbac();
  const std::set<std::string> subjects = {"platform-operator", "ci-deployer",
                                          "tenant-a-admin", "sa:falco"};
  for (const auto& subject : subjects) {
    for (const auto& ns : {"tenant-a", "tenant-b"}) {
      for (const auto& verb : mw::k8s_verbs()) {
        for (const auto& resource : mw::k8s_resources()) {
          if (hardened.authorize(subject, verb, resource, ns).allowed) {
            EXPECT_TRUE(permissive.authorize(subject, verb, resource, ns).allowed)
                << subject << " " << verb << " " << resource << " " << ns;
          }
        }
      }
    }
  }
}

TEST(RbacProperties, RemovingARoleNeverGrantsAccess) {
  auto rbac = mw::make_least_privilege_rbac();
  const std::set<std::string> subjects = {"ci-deployer", "tenant-a-admin"};
  std::vector<std::tuple<std::string, std::string, std::string>> allowed_before;
  for (const auto& subject : subjects) {
    for (const auto& verb : mw::k8s_verbs()) {
      for (const auto& resource : mw::k8s_resources()) {
        if (rbac.authorize(subject, verb, resource, "tenant-a").allowed) {
          allowed_before.emplace_back(subject, verb, resource);
        }
      }
    }
  }
  ASSERT_TRUE(rbac.remove_role("deployer"));
  std::size_t allowed_after = 0;
  for (const auto& subject : subjects) {
    for (const auto& verb : mw::k8s_verbs()) {
      for (const auto& resource : mw::k8s_resources()) {
        allowed_after +=
            rbac.authorize(subject, verb, resource, "tenant-a").allowed ? 1 : 0;
      }
    }
  }
  EXPECT_LT(allowed_after, allowed_before.size());
}

// -------------------------------------------------------------- RNG sanity

TEST(RngProperties, UniformCoversRange) {
  gc::Rng rng(55);
  std::array<int, 8> buckets{};
  for (int i = 0; i < 8000; ++i) ++buckets[rng.uniform(8)];
  for (const int count : buckets) {
    EXPECT_GT(count, 800);
    EXPECT_LT(count, 1200);
  }
}

TEST(RngProperties, ForkStreamsAreStatisticallyIndependent) {
  gc::Rng parent(56);
  auto a = parent.fork("a");
  auto b = parent.fork("b");
  int matches = 0;
  for (int i = 0; i < 1000; ++i) {
    matches += (a.uniform(2) == b.uniform(2)) ? 1 : 0;
  }
  EXPECT_GT(matches, 400);
  EXPECT_LT(matches, 600);
}
