// Layer probes for the traced run: each times one module's public entry
// point on seeded inputs, for the layers the workloads reach only from
// inside the program (WOTS+ chain steps, keygen, the AES/GHASH/CRC
// kernels, control-message decode, one DBA cycle, ...).
#include <array>

#include "bench.hpp"
#include "genio/common/rng.hpp"
#include "genio/core/platform.hpp"
#include "genio/crypto/aes.hpp"
#include "genio/crypto/crc32.hpp"
#include "genio/crypto/gcm.hpp"
#include "genio/crypto/pki.hpp"
#include "genio/crypto/sha256.hpp"
#include "genio/crypto/signature.hpp"
#include "genio/pon/control.hpp"
#include "genio/pon/dba.hpp"
#include "genio/pon/gpon_crypto.hpp"
#include "genio/pon/onu.hpp"

namespace perfbench {
namespace {

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace gp = genio::pon;

// Keeps results observable so the timed calls are not optimized away.
volatile std::uint64_t g_sink = 0;

double mbps(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

// Seal and open one batch of copies of a frame; returns per-frame seal and
// open seconds (medians over `reps` batches).
std::pair<double, double> seal_open(const gp::GponCipher& cipher, const gp::GemFrame& plain,
                                    int batch, int reps) {
  std::vector<double> seal, open;
  std::vector<gp::GemFrame> frames;
  for (int rep = 0; rep < reps; ++rep) {
    frames.assign(static_cast<std::size_t>(batch), plain);
    auto t0 = Clock::now();
    for (auto& f : frames) cipher.encrypt(f);
    seal.push_back(seconds_since(t0) / batch);
    t0 = Clock::now();
    for (auto& f : frames) g_sink = g_sink + (cipher.decrypt(f).ok() ? 1 : 0);
    open.push_back(seconds_since(t0) / batch);
  }
  return {median(seal), median(open)};
}

}  // namespace

std::vector<Metric> run_layer_probes(std::uint64_t seed, bool tiny) {
  std::vector<Metric> out;
  gc::Rng rng(gc::Rng::mix(seed, "probes"));
  const double window = tiny ? 0.02 : 0.2;  // seconds per micro-probe

  // -- crypto: SHA-256 -------------------------------------------------------
  {
    const gc::Bytes block = rng.bytes(40);  // one WOTS+ chain-step input
    constexpr int kCalls = 2000;
    const double s = time_per_call(
        [&] {
          for (int i = 0; i < kCalls; ++i) g_sink = g_sink + cr::Sha256::hash(block)[0];
        },
        window);
    out.push_back({"crypto.sha256.chain_step_ns", s / kCalls * 1e9, "ns"});
    const gc::Bytes bulk = rng.bytes(1 << 20);
    const double b = time_per_call([&] { g_sink = g_sink + cr::Sha256::hash(bulk)[0]; },
                                   window);
    out.push_back({"crypto.sha256.mbps", mbps(bulk.size(), b), "MB/s"});
  }

  // -- crypto: WOTS+/Merkle keygen, sign, verify, chain verify --------------
  for (const int height : {4, 6, 8}) {
    const gc::Bytes key_seed = rng.bytes(32);
    const double s = time_per_call(
        [&] {
          auto key = cr::SigningKey::generate(key_seed, static_cast<std::uint8_t>(height));
          g_sink = g_sink + key.public_key().root[0];
        },
        tiny ? 0.0 : window, tiny ? 1 : 3);
    out.push_back({"crypto.keygen_ms.h" + std::to_string(height), s * 1e3, "ms"});
  }
  {
    auto key = cr::SigningKey::generate(rng.bytes(32), 6);
    std::vector<double> sign_s, verify_s;
    for (int i = 0; i < (tiny ? 4 : 32); ++i) {
      const std::string message = "probe-message-" + std::to_string(i);
      auto t0 = Clock::now();
      auto signature = key.sign(message);
      sign_s.push_back(seconds_since(t0));
      if (!signature.ok()) break;
      t0 = Clock::now();
      g_sink = g_sink + (cr::verify(key.public_key(), message, *signature).ok() ? 1 : 0);
      verify_s.push_back(seconds_since(t0));
    }
    out.push_back({"crypto.sign_us", median(sign_s) * 1e6, "us"});
    out.push_back({"crypto.verify_us", median(verify_s) * 1e6, "us"});

    const auto from = gc::SimTime::from_hours(0);
    const auto to = gc::SimTime::from_hours(24 * 365);
    auto root = cr::CertificateAuthority::create_root("probe-root", rng.bytes(32), from, to, 6);
    auto leaf_key = cr::SigningKey::generate(rng.bytes(32), 4);
    const auto leaf = root.issue("probe-leaf", leaf_key.public_key(), from, to,
                                 {cr::KeyUsage::kNodeAuth});
    cr::TrustStore trust;
    trust.add_root(root.certificate());
    if (leaf.ok()) {
      const std::array<cr::Certificate, 2> chain = {*leaf, root.certificate()};
      const double s = time_per_call(
          [&] {
            g_sink = g_sink + (trust.verify_chain(chain, gc::SimTime::from_hours(1),
                                                  cr::KeyUsage::kNodeAuth)
                                       .ok()
                                   ? 1
                                   : 0);
          },
          window);
      out.push_back({"crypto.verify_chain_us", s * 1e6, "us"});
    }
  }

  // -- core: one hardened platform -------------------------------------------
  {
    std::uint64_t n = 0;
    const double s = time_per_call(
        [&] {
          genio::core::PlatformConfig config;
          config.seed = gc::Rng::mix(seed, "platform-" + std::to_string(n++));
          genio::core::GenioPlatform platform(config);
          g_sink = g_sink + platform.onus().size();
        },
        0.0, tiny ? 1 : 3);
    out.push_back({"core.platform_build_ms", s * 1e3, "ms"});
  }

  // -- crypto: data-plane kernels --------------------------------------------
  {
    const cr::AesKey key = cr::make_aes_key(rng.bytes(16));
    gc::Bytes buffer = rng.bytes(64 * 1024);
    const cr::Aes128 aes(key);
    cr::AesBlock iv{};
    iv[15] = 1;
    const double ctr = time_per_call(
        [&] {
          aes.ctr_xor_wide(iv, std::span<std::uint8_t>(buffer.data(), buffer.size()));
          g_sink = g_sink + buffer[0];
        },
        window);
    out.push_back({"crypto.aes_ctr_mbps", mbps(buffer.size(), ctr), "MB/s"});
    const cr::GcmContext ctx(key);
    const double gh = time_per_call(
        [&] { g_sink = g_sink + ctx.ghash(gc::BytesView(buffer))[0]; }, window);
    out.push_back({"crypto.ghash_mbps", mbps(buffer.size(), gh), "MB/s"});
    const double crc =
        time_per_call([&] { g_sink = g_sink + cr::crc32(gc::BytesView(buffer)); }, window);
    out.push_back({"crypto.crc32_mbps", mbps(buffer.size(), crc), "MB/s"});
    constexpr int kBuilds = 50;
    const double build = time_per_call(
        [&] {
          for (int i = 0; i < kBuilds; ++i) {
            const cr::GcmContext fresh(key);
            g_sink = g_sink + fresh.h()[0];
          }
        },
        window);
    out.push_back({"crypto.gcm_context_build_us", build / kBuilds * 1e6, "us"});
    out.push_back({"crypto.gcm_context_bytes", static_cast<double>(sizeof(cr::GcmContext)),
                   "bytes"});
  }

  // -- pon: GPON seal/open per frame size ------------------------------------
  {
    const gp::GponCipher cipher(cr::make_aes_key(rng.bytes(16)));
    for (const std::uint32_t size : {64u, 576u, 1500u, 9000u}) {
      gp::GemFrame frame;
      frame.onu_id = 7;
      frame.port_id = 1001;
      frame.superframe = 42;
      frame.payload = rng.bytes(size);
      frame.seal_fcs();
      const int batch = size <= 1500 ? 512 : 64;
      const auto [seal, open] = seal_open(cipher, frame, batch, tiny ? 2 : 15);
      out.push_back({"pon.gpon.sealopen_mbps." + std::to_string(size),
                     mbps(size, seal + open), "MB/s"});
      if (size == 64) {
        out.push_back({"pon.gpon.seal_ns.64", seal * 1e9, "ns"});
        out.push_back({"pon.gpon.open_ns.64", open * 1e9, "ns"});
      }
    }
  }

  // -- pon: control plane, DBA, ONU footprint --------------------------------
  {
    gp::ControlMessage message;
    message.type = gp::ControlType::kSerialNumberResponse;
    message.fields["serial"] = "GNIO0A00B7";
    message.fields["onu_id"] = "117";
    const gc::Bytes wire = message.encode();
    constexpr int kCalls = 1000;
    const double s = time_per_call(
        [&] {
          for (int i = 0; i < kCalls; ++i) {
            g_sink = g_sink + (gp::ControlMessage::decode(gc::BytesView(wire)).ok() ? 1 : 0);
          }
        },
        window);
    out.push_back({"pon.control.decode_ns", s / kCalls * 1e9, "ns"});

    // One DBA cycle over 100 T-CONTs in the fabric's class mix.
    std::vector<gp::TcontRequest> requests(100);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      auto& request = requests[i];
      request.onu_id = static_cast<std::uint16_t>(i + 1);
      request.type = i % 8 == 0   ? gp::TcontType::kFixed
                     : i % 8 <= 2 ? gp::TcontType::kAssured
                                  : gp::TcontType::kBestEffort;
      request.entitled = i % 8 == 0 ? 2048 : (i % 8 <= 2 ? 4096 : 0);
      request.queued = static_cast<std::uint32_t>(rng.uniform(4096));
    }
    gp::DbaScheduler dba(64 * 1024);
    const double a = time_per_call(
        [&] {
          for (int i = 0; i < 100; ++i) g_sink = g_sink + dba.allocate(requests).size();
        },
        window);
    out.push_back({"pon.dba.allocate_us", a / 100 * 1e6, "us"});
    out.push_back({"pon.onu_bytes", static_cast<double>(sizeof(gp::Onu)), "bytes"});
  }
  return out;
}

}  // namespace perfbench
