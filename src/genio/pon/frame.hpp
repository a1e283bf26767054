// Frame types on the simulated network. Ethernet frames ride the OLT's
// uplink and inter-OLT links (protected by MACsec, M3); GEM frames ride the
// PON tree between OLT and ONUs (protected by GPON payload encryption, M3).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "genio/common/bytes.hpp"

namespace genio::pon {

using common::Bytes;
using common::BytesView;

/// EtherType values used in the simulation.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kMacsec = 0x88e5,
  kControl = 0x9000,  // simulation control plane
};

/// A (simplified) Ethernet frame.
struct EthFrame {
  std::string src_mac;  // "02:00:00:00:00:01"
  std::string dst_mac;
  EtherType ethertype = EtherType::kIpv4;
  Bytes payload;

  /// Deterministic serialization used as crypto input and for byte counts.
  Bytes serialize() const;
  static common::Result<EthFrame> deserialize(BytesView data);

  bool operator==(const EthFrame& other) const = default;
};

/// GEM frame header on the wire: 9 fixed bytes (ids, superframe, flag).
using GemHeader = std::array<std::uint8_t, 9>;

/// GEM frame header fields (simplified from ITU-T G.987.3 XGEM).
struct GemFrame {
  std::uint16_t onu_id = 0;      // destination (downstream) / source (upstream)
  std::uint16_t port_id = 0;     // GEM port = flow identifier
  std::uint32_t superframe = 0;  // PON superframe counter (crypto IV input)
  bool encrypted = false;
  Bytes payload;                 // cleartext or ciphertext||tag
  std::uint32_t fcs = 0;         // CRC-32 over header+payload

  /// Compute and store the FCS (streaming CRC over header then payload —
  /// no concatenation buffer).
  void seal_fcs();
  /// True if the stored FCS matches the current contents.
  bool fcs_valid() const;

  /// Fixed-size header encoding (everything but payload/fcs) — used as
  /// GCM AAD and as the first FCS chunk. Stack-only, no allocation.
  GemHeader header() const;

  bool operator==(const GemFrame& other) const = default;
};

}  // namespace genio::pon
