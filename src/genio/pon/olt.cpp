#include "genio/pon/olt.hpp"

#include <algorithm>

namespace genio::pon {

Olt::Olt(std::string id, Odn* odn, const common::SimClock* clock,
         const common::Logger* logger, common::EventBus* bus, OltSecurityPolicy policy)
    : id_(std::move(id)),
      odn_(odn),
      clock_(clock),
      logger_(logger),
      bus_(bus),
      policy_(policy) {
  odn_->set_olt(this);
}

void Olt::provision_credentials(crypto::SigningKey key,
                                std::vector<crypto::Certificate> chain,
                                const crypto::TrustStore* trust, common::Rng rng) {
  auth_.emplace(id_, std::move(key), std::move(chain), trust, rng);
}

common::Status Olt::register_serial(const std::string& serial) {
  const auto [it, inserted] = allowed_serials_.insert(serial);
  (void)it;
  if (!inserted) {
    emit("pon.security.serial_collision", {{"serial", serial}});
    return common::already_exists("serial '" + serial +
                                  "' already registered on OLT '" + id_ + "'");
  }
  return common::Status::success();
}

GemFrame Olt::copy_frame(const GemFrame& frame) const {
  GemFrame local;
  local.onu_id = frame.onu_id;
  local.port_id = frame.port_id;
  local.superframe = frame.superframe;
  local.encrypted = frame.encrypted;
  local.fcs = frame.fcs;
  if (arena_ != nullptr) {
    local.payload = arena_->acquire(frame.payload.size());
    std::copy(frame.payload.begin(), frame.payload.end(), local.payload.begin());
  } else {
    local.payload = frame.payload;
  }
  return local;
}

void Olt::emit(const std::string& topic, std::map<std::string, std::string> attrs) {
  if (bus_) {
    attrs.emplace("olt", id_);
    bus_->publish(topic, std::move(attrs));
  }
}

void Olt::send_control(std::uint16_t onu_id, ControlType type,
                       std::map<std::string, std::string> fields) {
  ControlMessage msg;
  msg.type = type;
  msg.fields = std::move(fields);
  GemFrame frame;
  frame.onu_id = onu_id;
  frame.port_id = kControlPort;
  frame.superframe = ++tx_superframe_;
  frame.payload = msg.encode();
  frame.seal_fcs();
  odn_->downstream(frame);
}

void Olt::start_discovery() {
  send_control(kBroadcastOnuId, ControlType::kSerialNumberRequest, {});
}

void Olt::on_upstream(const GemFrame& frame) {
  if (!frame.fcs_valid()) {
    ++counters_.fcs_drops;
    if (logger_) logger_->warn("pon.olt." + id_, "dropped upstream frame with bad FCS");
    return;
  }
  if (frame.port_id == kControlPort) {
    handle_control(frame);
  } else {
    handle_data(frame);
  }
}

void Olt::handle_control(const GemFrame& frame) {
  auto msg = ControlMessage::decode(frame.payload);
  if (!msg) return;

  switch (msg->type) {
    case ControlType::kSerialNumberResponse: {
      const std::string serial = msg->field("serial");
      if (serial.empty()) return;
      if (policy_.enforce_serial_allowlist && !allowed_serials_.contains(serial)) {
        ++counters_.unknown_serial_rejected;
        if (logger_) {
          logger_->warn("pon.olt." + id_,
                        "rejected unknown serial '" + serial + "' in discovery");
        }
        emit("pon.security.unknown_serial", {{"serial", serial}});
        return;
      }
      if (serial_to_id_.contains(serial)) {
        // Re-discovery of an already-activated serial: possible
        // impersonation; deactivate the claimant and re-run activation.
        emit("pon.security.duplicate_serial", {{"serial", serial}});
      }
      // IDs go out in order from 1 and no record is ever removed, so every
      // ID below next_onu_id_ is taken and the space is full once it
      // reaches the broadcast ID: stopping there, rather than wrapping,
      // never hands out 1023 and never overwrites a live record.
      if (next_onu_id_ >= kBroadcastOnuId) {
        if (logger_) {
          logger_->warn("pon.olt." + id_, "rejected serial '" + serial +
                                              "' in discovery: every ONU-ID is taken");
        }
        emit("pon.security.onu_id_exhausted", {{"serial", serial}});
        return;
      }
      const std::uint16_t onu_id = next_onu_id_++;
      OnuRecord record;
      record.serial = serial;
      record.onu_id = onu_id;
      onus_[onu_id] = std::move(record);
      serial_to_id_[serial] = onu_id;
      send_control(kBroadcastOnuId, ControlType::kAssignOnuId,
                   {{"serial", serial}, {"onu_id", std::to_string(onu_id)}});
      send_control(onu_id, ControlType::kRangingRequest, {{"serial", serial}});
      break;
    }

    case ControlType::kRangingResponse: {
      const std::string serial = msg->field("serial");
      const auto it = serial_to_id_.find(serial);
      if (it == serial_to_id_.end()) return;
      auto& record = onus_[it->second];
      record.ranged = true;
      send_control(it->second, ControlType::kRangingTime, {{"serial", serial}});
      emit("pon.onu.activated", {{"serial", serial}, {"onu_id", std::to_string(it->second)}});
      if (logger_) logger_->info("pon.olt." + id_, "ONU " + serial + " activated");
      break;
    }

    default:
      break;
  }
}

void Olt::handle_data(const GemFrame& frame) {
  const auto it = onus_.find(frame.onu_id);
  if (it == onus_.end()) return;
  auto& record = it->second;

  if (frame.superframe <= record.last_superframe) {
    ++counters_.stale_superframe_drops;
    if (logger_) {
      logger_->warn("pon.olt." + id_, "stale superframe from onu " +
                                          std::to_string(frame.onu_id) + " dropped");
    }
    emit("pon.security.replay_dropped", {{"onu_id", std::to_string(frame.onu_id)}});
    return;
  }

  if (record.cipher != nullptr && !frame.encrypted) {
    ++counters_.plaintext_after_key_drops;
    emit("pon.security.plaintext_after_key", {{"onu_id", std::to_string(frame.onu_id)}});
    return;
  }
  GemFrame local = copy_frame(frame);
  if (record.cipher != nullptr) {
    const common::Status st = record.cipher->decrypt(local, Direction::kUpstream);
    if (!st.ok()) {
      ++counters_.decrypt_failures;
      if (logger_) {
        logger_->warn("pon.olt." + id_,
                      "upstream decrypt failed: " + st.error().message());
      }
      emit("pon.security.decrypt_failure", {{"onu_id", std::to_string(frame.onu_id)}});
      return;
    }
  }

  record.last_superframe = frame.superframe;
  if (sink_) {
    sink_(frame.onu_id, std::move(local.payload));
  } else {
    received_[frame.onu_id].push_back(std::move(local.payload));
  }
}

common::Status Olt::authenticate_onu(std::uint16_t onu_id, AuthTransport& transport) {
  if (!auth_.has_value()) {
    return common::unavailable("OLT has no credentials provisioned");
  }
  const auto it = onus_.find(onu_id);
  if (it == onus_.end()) {
    return common::not_found("no activated ONU with id " + std::to_string(onu_id));
  }

  const common::SimTime now = clock_ ? clock_->now() : common::SimTime{};
  const AuthHello hello = auth_->initiate();

  auto response = transport.auth_respond(hello, now);
  if (!response) {
    ++counters_.auth_failures;
    emit("pon.security.auth_failure",
         {{"onu_id", std::to_string(onu_id)}, {"reason", response.error().message()}});
    return common::authentication_failed("ONU rejected/failed handshake: " +
                                         response.error().message());
  }
  // The certificate subject must match the serial the ONU activated with.
  if (response->responder_id != it->second.serial) {
    ++counters_.auth_failures;
    emit("pon.security.auth_failure", {{"onu_id", std::to_string(onu_id)},
                                       {"reason", "identity mismatch"}});
    return common::authentication_failed("handshake identity '" + response->responder_id +
                                         "' does not match activated serial '" +
                                         it->second.serial + "'");
  }

  auto finished = auth_->finish(*response, now);
  if (!finished) {
    ++counters_.auth_failures;
    emit("pon.security.auth_failure",
         {{"onu_id", std::to_string(onu_id)}, {"reason", finished.error().message()}});
    return common::authentication_failed(finished.error().message());
  }

  auto peer_keys = transport.auth_complete(finished->first);
  if (!peer_keys) {
    ++counters_.auth_failures;
    return common::authentication_failed("peer failed to complete handshake: " +
                                         peer_keys.error().message());
  }

  it->second.authenticated = true;
  if (policy_.encrypt_data_path) {
    it->second.cipher = std::make_unique<GponCipher>(finished->second.data_key);
    send_control(onu_id, ControlType::kKeyActivate, {{"serial", it->second.serial}});
  }
  emit("pon.onu.authenticated", {{"onu_id", std::to_string(onu_id)}});
  if (logger_) {
    logger_->info("pon.olt." + id_,
                  "ONU " + it->second.serial + " authenticated" +
                      (policy_.encrypt_data_path ? ", data path encrypted" : ""));
  }
  return common::Status::success();
}

common::Status Olt::send_data(std::uint16_t onu_id, std::uint16_t port, Bytes payload) {
  if (port == kControlPort) {
    return common::invalid_argument("port 0 is reserved for the control plane");
  }
  const auto it = onus_.find(onu_id);
  if (it == onus_.end()) {
    return common::not_found("no activated ONU with id " + std::to_string(onu_id));
  }
  if (policy_.require_authentication && !it->second.authenticated) {
    return common::permission_denied("ONU not authenticated; data path disabled (M4)");
  }

  GemFrame frame;
  frame.onu_id = onu_id;
  frame.port_id = port;
  frame.superframe = ++tx_superframe_;
  frame.payload = std::move(payload);
  if (it->second.cipher != nullptr) {
    it->second.cipher->encrypt(frame);
  } else {
    frame.seal_fcs();
  }
  odn_->downstream(frame);
  return common::Status::success();
}

std::size_t Olt::run_dba_cycle(std::span<Onu*> onus, std::size_t grant_frames) {
  std::size_t total = 0;
  for (Onu* onu : onus) {
    if (policy_.require_authentication) {
      const auto it = onus_.find(onu->onu_id());
      if (it == onus_.end() || !it->second.authenticated) continue;
    }
    total += onu->drain_upstream(grant_frames);
  }
  return total;
}

std::optional<std::uint16_t> Olt::onu_id_for(const std::string& serial) const {
  const auto it = serial_to_id_.find(serial);
  if (it == serial_to_id_.end()) return std::nullopt;
  return it->second;
}

}  // namespace genio::pon
