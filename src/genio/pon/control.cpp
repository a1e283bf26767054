#include "genio/pon/control.hpp"

#include <charconv>

#include "genio/common/strings.hpp"

namespace genio::pon {

std::string to_string(ControlType type) {
  switch (type) {
    case ControlType::kSerialNumberRequest: return "sn_request";
    case ControlType::kSerialNumberResponse: return "sn_response";
    case ControlType::kAssignOnuId: return "assign_onu_id";
    case ControlType::kRangingRequest: return "ranging_request";
    case ControlType::kRangingResponse: return "ranging_response";
    case ControlType::kRangingTime: return "ranging_time";
    case ControlType::kDeactivate: return "deactivate";
    case ControlType::kKeyActivate: return "key_activate";
  }
  return "unknown";
}

common::Result<ControlType> control_type_from(std::string_view name) {
  for (const auto type :
       {ControlType::kSerialNumberRequest, ControlType::kSerialNumberResponse,
        ControlType::kAssignOnuId, ControlType::kRangingRequest,
        ControlType::kRangingResponse, ControlType::kRangingTime,
        ControlType::kDeactivate, ControlType::kKeyActivate}) {
    if (to_string(type) == name) return type;
  }
  return common::parse_error("unknown control type '" + std::string(name) + "'");
}

common::Bytes ControlMessage::encode() const {
  std::string text = to_string(type);
  for (const auto& [key, value] : fields) {
    text += ";" + key + "=" + value;
  }
  return common::to_bytes(text);
}

common::Result<ControlMessage> ControlMessage::decode(common::BytesView payload) {
  const std::string text = common::to_text(payload);
  const auto parts = common::split(text, ';');
  if (parts.empty()) return common::parse_error("empty control message");

  auto type = control_type_from(parts[0]);
  if (!type) return type.error();

  ControlMessage msg;
  msg.type = *type;
  for (std::size_t i = 1; i < parts.size(); ++i) {
    const auto eq = parts[i].find('=');
    if (eq == std::string_view::npos) {
      return common::parse_error("control field without '=': '" + std::string(parts[i]) + "'");
    }
    msg.fields.emplace(std::string(parts[i].substr(0, eq)),
                       std::string(parts[i].substr(eq + 1)));
  }
  return msg;
}

common::Result<std::uint16_t> parse_onu_id(std::string_view text) {
  unsigned value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < 1 || value >= kBroadcastOnuId) {
    return common::parse_error("invalid onu_id '" + std::string(text) + "'");
  }
  return static_cast<std::uint16_t>(value);
}

}  // namespace genio::pon
