// PLOAM-like control messages between OLT and ONUs, carried in GEM frames
// on port 0. Text-encoded ("type;key=value;...") so traces are readable in
// tests and logs. Downstream, the ODN decodes each control frame once for
// every ONU on the tree (see DownstreamView in medium.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "genio/common/bytes.hpp"
#include "genio/common/result.hpp"

namespace genio::pon {

/// GEM port reserved for the control plane.
inline constexpr std::uint16_t kControlPort = 0;
/// Broadcast ONU id (all ONUs process the frame).
inline constexpr std::uint16_t kBroadcastOnuId = 0x3ff;

enum class ControlType {
  kSerialNumberRequest,   // OLT -> all: discovery window open
  kSerialNumberResponse,  // ONU -> OLT: here is my serial
  kAssignOnuId,           // OLT -> ONU(serial): your onu-id
  kRangingRequest,        // OLT -> ONU(id)
  kRangingResponse,       // ONU -> OLT
  kRangingTime,           // OLT -> ONU: equalization delay, go operational
  kDeactivate,            // OLT -> ONU: drop to initial state
  kKeyActivate,           // OLT -> ONU: switch data path to session key
};

std::string to_string(ControlType type);
common::Result<ControlType> control_type_from(std::string_view name);

struct ControlMessage {
  ControlType type = ControlType::kSerialNumberRequest;
  std::map<std::string, std::string> fields;

  common::Bytes encode() const;
  static common::Result<ControlMessage> decode(common::BytesView payload);

  std::string field(const std::string& key, const std::string& fallback = "") const {
    const auto it = fields.find(key);
    return it == fields.end() ? fallback : it->second;
  }
};

/// The ONU-ID an assign_onu_id message carries: the whole field must be a
/// decimal in [1, kBroadcastOnuId - 1] (the OLT assigns from 1). Control
/// frames are untrusted, so anything else is a parse error.
common::Result<std::uint16_t> parse_onu_id(std::string_view text);

}  // namespace genio::pon
