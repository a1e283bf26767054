// E-L2 — Lesson 2: "Encryption imposes additional engineering efforts and
// computational resources." Measures the PON data path with and without
// GPON payload encryption, the MACsec protect/validate path on the
// Ethernet segments, and the certificate-handshake cost per node count —
// the quantities behind the lesson. Each row is the median [q1, q3] time
// per call over kRowReps timed blocks.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "genio/core/platform.hpp"
#include "genio/pon/gpon_crypto.hpp"
#include "genio/pon/macsec.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace pon = genio::pon;
namespace gb = genio::bench;

namespace {

constexpr std::size_t kSizes[] = {256, 1500, 9000};

pon::GemFrame make_frame(std::size_t payload_size, std::uint32_t superframe) {
  pon::GemFrame frame;
  frame.onu_id = 7;
  frame.port_id = 2;
  frame.superframe = superframe;
  frame.payload.assign(payload_size, 0x5a);
  frame.seal_fcs();
  return frame;
}

/// Times `op(size)` per payload size, about 2 MB of payload per block.
template <typename Op>
void sweep_sizes(const char* name, Op&& op) {
  for (const std::size_t size : kSizes) {
    const int calls = static_cast<int>(2'000'000 / size);
    const auto per_call = gb::time_calls(calls / 10, gb::kRowReps, calls, [&] { op(size); });
    gb::print_row(std::string(name) + "/" + std::to_string(size), per_call,
                  gb::rate(static_cast<double>(size) / 1e6, per_call, "MB", 1));
  }
}

}  // namespace

int main() {
  std::printf("=== E-L2: encryption cost on the PON and Ethernet data paths ===\n\n");

  // Plaintext baseline: just the FCS, as an unencrypted PON would compute.
  std::uint32_t superframe = 0;
  sweep_sizes("gpon_plaintext", [&](std::size_t size) {
    auto frame = make_frame(size, ++superframe);
    gb::keep(frame.fcs_valid());
  });

  // G.987.3-style AES-GCM payload protection, both directions.
  const pon::GponCipher cipher(cr::make_aes_key(gc::Bytes(16, 0x11)));
  sweep_sizes("gpon_encrypt_decrypt", [&](std::size_t size) {
    auto frame = make_frame(size, ++superframe);
    cipher.encrypt(frame);
    gb::keep(cipher.decrypt(frame).ok());
  });

  // MACsec on the inter-OLT / uplink Ethernet segment.
  pon::MacsecSecY tx(0x1, cr::make_aes_key(gc::Bytes(16, 0x22)));
  pon::MacsecSecY rx(0x2, cr::make_aes_key(gc::Bytes(16, 0x22)));
  pon::EthFrame eth;
  eth.src_mac = "02:00:00:00:00:01";
  eth.dst_mac = "02:00:00:00:00:02";
  sweep_sizes("macsec_protect_validate", [&](std::size_t size) {
    if (eth.payload.size() != size) eth.payload.assign(size, 0x6b);
    gb::keep(rx.validate(tx.protect(eth)).ok());
  });

  // Certificate-based mutual authentication per fleet size: the per-node
  // handshake cost an operator pays at activation (certificates + signed
  // transcripts + key derivation). Platforms are built before the clock
  // starts; each call activates a fresh one.
  for (const int onu_count : {2, 4, 8}) {
    std::vector<std::unique_ptr<genio::core::GenioPlatform>> platforms;
    for (int i = 0; i <= gb::kRowReps; ++i) {
      genio::core::PlatformConfig config;
      config.onu_count = onu_count;
      platforms.push_back(std::make_unique<genio::core::GenioPlatform>(config));
    }
    const auto per_call = gb::time_calls(1, gb::kRowReps, 1, [&](int k) {
      gb::keep(platforms[static_cast<std::size_t>(k)]->activate_pon());
    });
    gb::print_row("node_authentication_handshakes/" + std::to_string(onu_count), per_call,
                  gb::rate(onu_count, per_call, "nodes", 0));
  }
  return 0;
}
