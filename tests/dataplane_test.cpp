// Property tests pinning the data-plane crypto fast path to the reference
// oracles, byte for byte: a seeded corpus of GEM frames is sealed/opened/
// tampered through GponCipher (cached schedule, table GHASH, in-place CTR)
// and cross-checked against the free-function gcm_seal/gcm_open reference
// and the byte-at-a-time CRC oracle. A concurrency section shares one
// GcmContext across threads — run under TSan it proves the context is
// safely shareable read-only (tools/ci.sh tsan job).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "genio/common/rng.hpp"
#include "genio/crypto/crc32.hpp"
#include "genio/crypto/gcm.hpp"
#include "genio/pon/frame.hpp"
#include "genio/pon/gpon_crypto.hpp"
#include "genio/pon/macsec.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace pon = genio::pon;

namespace {

// The G.987.3 nonce layout, replicated independently of GponCipher so the
// test pins the wire format, not just self-consistency.
cr::GcmNonce gpon_nonce(const pon::GemFrame& frame) {
  cr::GcmNonce nonce{};
  for (int i = 0; i < 4; ++i) {
    nonce[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(frame.superframe >> (24 - 8 * i));
  }
  nonce[4] = static_cast<std::uint8_t>(frame.onu_id >> 8);
  nonce[5] = static_cast<std::uint8_t>(frame.onu_id);
  nonce[6] = static_cast<std::uint8_t>(frame.port_id >> 8);
  nonce[7] = static_cast<std::uint8_t>(frame.port_id);
  return nonce;
}

pon::GemFrame random_frame(gc::Rng& rng, std::size_t max_payload) {
  pon::GemFrame frame;
  frame.onu_id = static_cast<std::uint16_t>(rng.uniform_range(0, 1023));
  frame.port_id = static_cast<std::uint16_t>(rng.uniform_range(0, 4095));
  frame.superframe = static_cast<std::uint32_t>(rng.uniform_range(0, 1 << 30));
  frame.payload = rng.bytes(rng.uniform_range(0, static_cast<std::int64_t>(max_payload)));
  return frame;
}

}  // namespace

// 200 seeded frames: the fast path's ciphertext, tag, and FCS must be
// byte-identical to the reference implementations, and open must round-trip.
TEST(Dataplane, SealOpenByteIdentityOver200Frames) {
  gc::Rng rng(0xda7a);
  const cr::AesKey key = cr::make_aes_key(rng.bytes(16));
  const pon::GponCipher cipher(key);

  for (int i = 0; i < 200; ++i) {
    pon::GemFrame frame = random_frame(rng, 2048);
    const gc::Bytes plaintext = frame.payload;

    // Reference seal over the same AAD/nonce as the fast path.
    pon::GemFrame ref = frame;
    ref.encrypted = true;
    const pon::GemHeader aad = ref.header();
    const auto sealed = cr::gcm_seal(key, gpon_nonce(ref), plaintext,
                                     gc::BytesView(aad.data(), aad.size()));

    cipher.encrypt(frame);
    ASSERT_TRUE(frame.encrypted);
    ASSERT_EQ(frame.payload.size(), plaintext.size() + 16) << "frame " << i;
    EXPECT_TRUE(std::equal(sealed.ciphertext.begin(), sealed.ciphertext.end(),
                           frame.payload.begin()))
        << "ciphertext diverged at frame " << i;
    EXPECT_TRUE(std::equal(sealed.tag.begin(), sealed.tag.end(),
                           frame.payload.end() - 16))
        << "tag diverged at frame " << i;

    // FCS: fast streaming CRC vs the byte-at-a-time oracle over the same
    // header||payload bytes.
    const pon::GemHeader header = frame.header();
    gc::Bytes fcs_input(header.begin(), header.end());
    fcs_input.insert(fcs_input.end(), frame.payload.begin(), frame.payload.end());
    EXPECT_EQ(frame.fcs, cr::crc32_reference(fcs_input)) << "frame " << i;
    EXPECT_TRUE(frame.fcs_valid());

    // Open must restore the exact plaintext and agree with the reference.
    pon::GemFrame opened = frame;
    ASSERT_TRUE(cipher.decrypt(opened).ok()) << "frame " << i;
    EXPECT_EQ(opened.payload, plaintext);
    EXPECT_FALSE(opened.encrypted);
    const auto ref_opened =
        cr::gcm_open(key, gpon_nonce(frame), sealed.ciphertext, sealed.tag,
                     gc::BytesView(aad.data(), aad.size()));
    ASSERT_TRUE(ref_opened.ok());
    EXPECT_EQ(*ref_opened, plaintext);
  }
}

// Tampering any byte (ciphertext, tag, or AAD-covered header) must produce
// the same verdict on fast and reference paths: rejection, with the frame
// contents left as ciphertext.
TEST(Dataplane, TamperVerdictsMatchReference) {
  gc::Rng rng(0xbadf);
  const cr::AesKey key = cr::make_aes_key(rng.bytes(16));
  const pon::GponCipher cipher(key);

  for (int i = 0; i < 200; ++i) {
    pon::GemFrame frame = random_frame(rng, 512);
    if (frame.payload.empty()) frame.payload = rng.bytes(1);
    cipher.encrypt(frame);

    pon::GemFrame tampered = frame;
    const std::size_t victim =
        static_cast<std::size_t>(rng.uniform_range(0, static_cast<std::int64_t>(tampered.payload.size()) - 1));
    tampered.payload[victim] ^= static_cast<std::uint8_t>(1 + rng.uniform_range(0, 254));
    const gc::Bytes before = tampered.payload;

    const auto verdict = cipher.decrypt(tampered);
    ASSERT_FALSE(verdict.ok()) << "tamper accepted at frame " << i;
    EXPECT_EQ(tampered.payload, before) << "payload mutated on reject, frame " << i;

    // Reference sees the same bytes and must agree.
    const pon::GemHeader aad = frame.header();
    cr::GcmTag tag;
    std::copy(before.end() - 16, before.end(), tag.begin());
    const auto ref = cr::gcm_open(
        key, gpon_nonce(frame), gc::BytesView(before.data(), before.size() - 16),
        tag, gc::BytesView(aad.data(), aad.size()));
    EXPECT_FALSE(ref.ok()) << "reference accepted tampered frame " << i;
  }
}

// MACsec protect must equal the reference GCM over serialize(frame) with the
// SecTag as AAD and SCI||PN as nonce.
TEST(Dataplane, MacsecByteIdentityWithReference) {
  gc::Rng rng(0x5ec5);
  const cr::AesKey sak = cr::make_aes_key(rng.bytes(16));
  constexpr std::uint64_t kSci = 0x0200000000000101ull;
  pon::MacsecSecY tx(kSci, sak);

  for (int i = 0; i < 50; ++i) {
    pon::EthFrame eth;
    eth.src_mac = "02:00:00:00:00:01";
    eth.dst_mac = "02:00:00:00:00:02";
    eth.payload = rng.bytes(rng.uniform_range(0, 1500));

    const auto protected_frame = tx.protect(eth);
    const pon::SecTag aad = protected_frame.sectag();
    cr::GcmNonce nonce{};
    std::copy(aad.begin(), aad.end(), nonce.begin());  // SCI||PN is the IV
    const auto ref = cr::gcm_seal(sak, nonce, eth.serialize(),
                                  gc::BytesView(aad.data(), aad.size()));
    EXPECT_EQ(protected_frame.ciphertext, ref.ciphertext) << "frame " << i;
    EXPECT_EQ(protected_frame.tag, ref.tag) << "frame " << i;
  }
}

// One GcmContext shared read-only by many threads: every thread seals and
// opens its own buffers through the shared context, and all results must be
// byte-identical to a single-threaded precompute. Under TSan this fails if
// GcmContext (or the lazily built CRC/byte-reduction statics it touches)
// does any unsynchronized mutation after construction.
TEST(Dataplane, SharedContextIsThreadSafeReadOnly) {
  gc::Rng rng(0xc0de);
  const cr::AesKey key = cr::make_aes_key(rng.bytes(16));
  const cr::GcmContext shared(key);

  constexpr int kThreads = 8;
  constexpr int kFramesPerThread = 32;

  // Precompute expected results single-threaded.
  struct Job {
    cr::GcmNonce nonce{};
    gc::Bytes plaintext;
    gc::Bytes aad;
    gc::Bytes expect_ct;
    cr::GcmTag expect_tag{};
    std::uint32_t expect_crc = 0;
  };
  std::vector<std::vector<Job>> jobs(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int f = 0; f < kFramesPerThread; ++f) {
      Job job;
      job.nonce[0] = static_cast<std::uint8_t>(t);
      job.nonce[1] = static_cast<std::uint8_t>(f);
      job.plaintext = rng.bytes(rng.uniform_range(1, 1024));
      job.aad = rng.bytes(9);
      const auto sealed = cr::gcm_seal(key, job.nonce, job.plaintext, job.aad);
      job.expect_ct = sealed.ciphertext;
      job.expect_tag = sealed.tag;
      job.expect_crc = cr::crc32_reference(job.plaintext);
      jobs[static_cast<std::size_t>(t)].push_back(std::move(job));
    }
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&shared, &jobs, &mismatches, t] {
      for (const Job& job : jobs[static_cast<std::size_t>(t)]) {
        gc::Bytes buf = job.plaintext;
        const auto tag = shared.seal_in_place(job.nonce, buf, job.aad);
        if (buf != job.expect_ct || tag != job.expect_tag) ++mismatches;
        if (!shared.open_in_place(job.nonce, buf, tag, job.aad).ok() ||
            buf != job.plaintext) {
          ++mismatches;
        }
        if (cr::crc32(job.plaintext) != job.expect_crc) ++mismatches;
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Per-link ciphers built from the same key on different threads must also
// coexist: construction itself only reads process-wide immutable statics.
TEST(Dataplane, ConcurrentCipherConstructionAndUse) {
  gc::Rng rng(0x11f0);
  const cr::AesKey key = cr::make_aes_key(rng.bytes(16));

  pon::GemFrame proto = random_frame(rng, 256);
  const pon::GponCipher oracle(key);
  pon::GemFrame expected = proto;
  oracle.encrypt(expected);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&key, &proto, &expected, &mismatches] {
      const pon::GponCipher local(key);  // per-link context, built concurrently
      for (int f = 0; f < 16; ++f) {
        pon::GemFrame frame = proto;
        local.encrypt(frame);
        if (frame.payload != expected.payload || frame.fcs != expected.fcs) {
          ++mismatches;
        }
        if (!local.decrypt(frame).ok() || frame.payload != proto.payload) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}
