#include "genio/pon/attacker.hpp"

namespace genio::pon {

// ---------------------------------------------------------------- FiberTap

void FiberTap::account(const GemFrame& frame) {
  if (frame.port_id == kControlPort) return;  // control plane is public anyway
  if (frame.encrypted) {
    ciphertext_bytes_ += frame.payload.size();
  } else {
    plaintext_bytes_ += frame.payload.size();
  }
}

void FiberTap::observe_downstream(const GemFrame& frame) { account(frame); }

void FiberTap::observe_upstream(const GemFrame& frame) {
  upstream_.push_back(frame);
  account(frame);
}

double FiberTap::plaintext_ratio() const {
  const std::uint64_t total = plaintext_bytes_ + ciphertext_bytes_;
  if (total == 0) return 0.0;
  return static_cast<double>(plaintext_bytes_) / static_cast<double>(total);
}

// ---------------------------------------------------------- ReplayAttacker

std::size_t ReplayAttacker::replay_upstream(Odn& odn, std::size_t max_frames) {
  std::size_t injected = 0;
  for (const GemFrame& frame : tap_->captured_upstream()) {
    if (injected >= max_frames) break;
    if (frame.port_id == kControlPort) continue;
    odn.upstream(frame);  // bit-exact reinjection
    ++injected;
  }
  return injected;
}

// ---------------------------------------------------------------- RogueOnu

RogueOnu::RogueOnu(std::string claimed_serial, Odn* odn)
    : claimed_serial_(std::move(claimed_serial)), odn_(odn) {
  odn_->attach_onu(this);
}

RogueOnu::~RogueOnu() { odn_->detach_onu(this); }

void RogueOnu::forge_credentials(crypto::SigningKey key,
                                 std::vector<crypto::Certificate> chain,
                                 const crypto::TrustStore* attacker_trust,
                                 common::Rng rng) {
  forged_auth_.emplace(claimed_serial_, std::move(key), std::move(chain),
                       attacker_trust, rng);
}

void RogueOnu::on_downstream(const DownstreamView& view) {
  const GemFrame& frame = view.frame();
  if (frame.port_id == kControlPort) {
    const auto& msg = view.control();
    if (!msg) return;
    if (msg->type == ControlType::kSerialNumberRequest) {
      // Answer the discovery window with the stolen identity.
      ControlMessage response;
      response.type = ControlType::kSerialNumberResponse;
      response.fields["serial"] = claimed_serial_;
      GemFrame up;
      up.onu_id = 0;
      up.port_id = kControlPort;
      up.superframe = ++tx_superframe_;
      up.payload = response.encode();
      up.seal_fcs();
      odn_->upstream(up);
    } else if (msg->type == ControlType::kAssignOnuId &&
               msg->field("serial") == claimed_serial_) {
      if (const auto id = parse_onu_id(msg->field("onu_id"))) onu_id_ = *id;
    } else if (msg->type == ControlType::kRangingRequest &&
               msg->field("serial") == claimed_serial_) {
      ControlMessage response;
      response.type = ControlType::kRangingResponse;
      response.fields["serial"] = claimed_serial_;
      GemFrame up;
      up.onu_id = onu_id_;
      up.port_id = kControlPort;
      up.superframe = ++tx_superframe_;
      up.payload = response.encode();
      up.seal_fcs();
      odn_->upstream(up);
    }
    return;
  }
  // Data frames addressed to the impersonated identity: steal them.
  if (onu_id_ != 0 && frame.onu_id == onu_id_) {
    stolen_.push_back(frame);
  }
}

common::Result<AuthResponse> RogueOnu::auth_respond(const AuthHello& hello,
                                                    common::SimTime now) {
  if (!forged_auth_.has_value()) {
    return common::unavailable("rogue device has no credentials at all");
  }
  // The rogue validates the OLT against its OWN trust anchor (it does not
  // care) and signs with its forged chain; the OLT's verification of that
  // chain is the defence under test.
  return forged_auth_->respond(hello, now);
}

common::Result<SessionKeys> RogueOnu::auth_complete(const AuthFinish& finish) {
  if (!forged_auth_.has_value()) {
    return common::unavailable("rogue device has no credentials at all");
  }
  return forged_auth_->complete(finish);
}

void RogueOnu::inject_upstream(std::uint16_t port, Bytes payload) {
  GemFrame frame;
  frame.onu_id = onu_id_;
  frame.port_id = port;
  frame.superframe = ++tx_superframe_;
  frame.payload = std::move(payload);
  frame.seal_fcs();
  odn_->upstream(frame);
}

// ------------------------------------------------------- DownstreamHijacker

void DownstreamHijacker::inject(std::uint16_t victim_onu_id, std::uint16_t port,
                                std::uint32_t superframe_guess, Bytes payload,
                                bool mark_encrypted) {
  GemFrame frame;
  frame.onu_id = victim_onu_id;
  frame.port_id = port;
  frame.superframe = superframe_guess;
  frame.encrypted = mark_encrypted;
  frame.payload = std::move(payload);
  frame.seal_fcs();  // the attacker can compute CRCs; CRC is not security
  odn_->downstream(frame);
}

}  // namespace genio::pon
