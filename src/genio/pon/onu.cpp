#include "genio/pon/onu.hpp"

#include <algorithm>

namespace genio::pon {

std::string to_string(OnuState state) {
  switch (state) {
    case OnuState::kInitial: return "initial";
    case OnuState::kAwaitingAssignment: return "awaiting_assignment";
    case OnuState::kRanging: return "ranging";
    case OnuState::kOperational: return "operational";
  }
  return "unknown";
}

Onu::Onu(std::string serial, Odn* odn, const common::SimClock* clock,
         const common::Logger* logger)
    : serial_(std::move(serial)), odn_(odn), clock_(clock), logger_(logger) {
  odn_->attach_onu(this);
}

void Onu::provision_credentials(crypto::SigningKey key,
                                std::vector<crypto::Certificate> chain,
                                const crypto::TrustStore* trust, common::Rng rng) {
  auth_ = std::make_unique<AuthEndpoint>(serial_, std::move(key), std::move(chain), trust,
                                         rng);
}

void Onu::send_control(ControlType type, std::map<std::string, std::string> fields) {
  ControlMessage msg;
  msg.type = type;
  msg.fields = std::move(fields);
  GemFrame frame;
  frame.onu_id = onu_id_;
  frame.port_id = kControlPort;
  frame.superframe = ++tx_superframe_;
  frame.payload = msg.encode();
  frame.seal_fcs();
  odn_->upstream(frame);
}

void Onu::on_downstream(const DownstreamView& view) {
  const GemFrame& frame = view.frame();
  const bool broadcast = frame.onu_id == kBroadcastOnuId;
  const bool mine = state_ != OnuState::kInitial && frame.onu_id == onu_id_;
  if (!broadcast && !mine) {
    // PON physics: we see the frame anyway; an honest ONU ignores it.
    ++stats_.foreign_frames_seen;
    return;
  }
  if (!view.fcs_valid()) {
    ++stats_.fcs_drops;
    if (logger_) logger_->warn("pon.onu." + serial_, "dropped frame with bad FCS");
    return;
  }
  if (frame.port_id == kControlPort) {
    const auto& msg = view.control();
    if (!msg) {
      if (logger_) {
        logger_->warn("pon.onu." + serial_,
                      "undecodable control message: " + msg.error().message());
      }
      return;
    }
    handle_control(*msg);
  } else if (mine) {
    handle_data(frame);
  }
}

void Onu::handle_control(const ControlMessage& msg) {
  switch (msg.type) {
    case ControlType::kSerialNumberRequest:
      if (state_ == OnuState::kInitial) {
        // Transition BEFORE transmitting: the medium delivers synchronously,
        // so the OLT's assign message can arrive while we are still inside
        // send_control().
        state_ = OnuState::kAwaitingAssignment;
        send_control(ControlType::kSerialNumberResponse, {{"serial", serial_}});
      }
      break;

    case ControlType::kAssignOnuId:
      if (state_ == OnuState::kAwaitingAssignment && msg.field("serial") == serial_) {
        const auto id = parse_onu_id(msg.field("onu_id"));
        if (!id) {
          if (logger_) logger_->warn("pon.onu." + serial_, id.error().message());
          break;
        }
        onu_id_ = *id;
        state_ = OnuState::kRanging;
      }
      break;

    case ControlType::kRangingRequest:
      if (state_ == OnuState::kRanging && msg.field("serial") == serial_) {
        send_control(ControlType::kRangingResponse, {{"serial", serial_}});
      }
      break;

    case ControlType::kRangingTime:
      if (state_ == OnuState::kRanging && msg.field("serial") == serial_) {
        state_ = OnuState::kOperational;
        if (logger_) logger_->info("pon.onu." + serial_, "operational");
      }
      break;

    case ControlType::kKeyActivate:
      // Switch the data path to the session key derived in the handshake.
      if (pending_keys_.has_value()) {
        cipher_ = std::make_unique<GponCipher>(pending_keys_->data_key);
        pending_keys_.reset();
        if (logger_) logger_->info("pon.onu." + serial_, "session key activated");
      }
      break;

    case ControlType::kDeactivate:
      if (msg.field("serial") == serial_ || msg.field("serial").empty()) {
        state_ = OnuState::kInitial;
        onu_id_ = 0;
        cipher_.reset();
      }
      break;

    default:
      break;
  }
}

void Onu::handle_data(const GemFrame& frame) {
  GemFrame local = frame;

  // Replay defence: downstream superframe counters must advance. Effective
  // only when encryption binds the counter into the AAD; tested both ways.
  if (local.superframe <= last_rx_superframe_) {
    ++stats_.stale_superframe_drops;
    if (logger_) {
      logger_->warn("pon.onu." + serial_,
                    "stale superframe " + std::to_string(local.superframe) + " dropped");
    }
    return;
  }

  if (cipher_ != nullptr) {
    if (!local.encrypted) {
      // Plaintext data after key activation: treat as forgery/downgrade.
      ++stats_.decrypt_failures;
      if (logger_) {
        logger_->warn("pon.onu." + serial_, "plaintext frame after key activation dropped");
      }
      return;
    }
    if (auto st = cipher_->decrypt(local); !st.ok()) {
      ++stats_.decrypt_failures;
      if (logger_) {
        logger_->warn("pon.onu." + serial_, "downstream decrypt failed: " +
                                                st.error().message());
      }
      return;
    }
  }

  last_rx_superframe_ = frame.superframe;
  received_.push_back(local.payload);
  ++stats_.data_frames_received;
}

common::Result<AuthResponse> Onu::auth_respond(const AuthHello& hello,
                                               common::SimTime now) {
  if (auth_ == nullptr) {
    return common::unavailable("ONU has no credentials provisioned");
  }
  return auth_->respond(hello, now);
}

common::Result<SessionKeys> Onu::auth_complete(const AuthFinish& finish) {
  if (auth_ == nullptr) {
    return common::unavailable("ONU has no credentials provisioned");
  }
  auto keys = auth_->complete(finish);
  if (keys) pending_keys_ = *keys;
  return keys;
}

void Onu::send_data(std::uint16_t port, Bytes payload) {
  if (port == kControlPort) {
    throw std::invalid_argument("port 0 is reserved for the control plane");
  }
  upstream_queue_bytes_ += payload.size();
  upstream_queue_.push_back({port, std::move(payload)});
}

std::size_t Onu::drain_upstream(std::size_t max_frames) {
  // The DBA grant bounds how many queued payloads go up in this slot. Each
  // is framed, sealed and carried up the ODN on its own; once the medium
  // has delivered (copied or consumed) the frame, its payload buffer goes
  // back to the arena for the next generation.
  std::size_t sent = 0;
  while (sent < max_frames && !upstream_queue_.empty()) {
    if (state_ != OnuState::kOperational) break;
    auto& next = upstream_queue_.front();
    GemFrame frame;
    frame.onu_id = onu_id_;
    frame.port_id = next.port;
    frame.superframe = ++tx_superframe_;
    frame.payload = std::move(next.payload);
    upstream_queue_bytes_ -= std::min(upstream_queue_bytes_, frame.payload.size());
    upstream_queue_.pop_front();
    if (cipher_ != nullptr) {
      cipher_->encrypt(frame, Direction::kUpstream);
    } else {
      frame.seal_fcs();
    }
    odn_->upstream(frame);
    ++stats_.data_frames_sent;
    ++sent;
    if (arena_ != nullptr) arena_->recycle(std::move(frame.payload));
  }
  return sent;
}

}  // namespace genio::pon
