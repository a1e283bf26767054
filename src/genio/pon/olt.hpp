// Optical Line Terminal: the edge-layer device in the telecom central
// office. Runs ONU discovery/activation, enforces the security policy
// (serial allow-list, certificate-based mutual authentication M4, GPON
// payload encryption M3), performs DBA upstream scheduling, and exposes
// security counters consumed by the monitoring stack.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>

#include "genio/common/event_bus.hpp"
#include "genio/common/log.hpp"
#include "genio/pon/auth.hpp"
#include "genio/pon/control.hpp"
#include "genio/pon/frame_arena.hpp"
#include "genio/pon/gpon_crypto.hpp"
#include "genio/pon/medium.hpp"
#include "genio/pon/onu.hpp"

namespace genio::pon {

/// Which mitigations are active on this OLT. Attack scenarios run each
/// threat with these toggled to show the with/without contrast (Fig. 3).
struct OltSecurityPolicy {
  bool enforce_serial_allowlist = true;   // provisioning database check
  bool require_authentication = false;    // M4: PKI handshake before service
  bool encrypt_data_path = false;         // M3: GPON payload encryption
};

struct OltSecurityCounters {
  std::uint64_t unknown_serial_rejected = 0;
  std::uint64_t auth_failures = 0;
  std::uint64_t decrypt_failures = 0;
  std::uint64_t stale_superframe_drops = 0;
  std::uint64_t fcs_drops = 0;
  std::uint64_t plaintext_after_key_drops = 0;
};

class Olt : public OltDevice {
 public:
  Olt(std::string id, Odn* odn, const common::SimClock* clock,
      const common::Logger* logger, common::EventBus* bus, OltSecurityPolicy policy);

  // -- provisioning ---------------------------------------------------------
  void provision_credentials(crypto::SigningKey key,
                             std::vector<crypto::Certificate> chain,
                             const crypto::TrustStore* trust, common::Rng rng);
  /// Add an ONU serial to the provisioning allow-list. Duplicate
  /// registrations fail with already_exists — in a multi-OLT fleet a
  /// duplicate serial is a provisioning collision (or a cloned device), not
  /// a harmless re-add.
  common::Status register_serial(const std::string& serial);

  const std::string& id() const { return id_; }
  const OltSecurityPolicy& policy() const { return policy_; }

  // -- activation -----------------------------------------------------------
  /// Open a discovery window (broadcast serial-number request).
  void start_discovery();

  void on_upstream(const GemFrame& frame) override;

  /// Run the mutual-auth handshake with an activated ONU over the in-band
  /// transport. On success the data path switches to the session key.
  common::Status authenticate_onu(std::uint16_t onu_id, AuthTransport& transport);

  // -- data path ------------------------------------------------------------
  /// Send a downstream payload to an ONU on `port` (>0).
  common::Status send_data(std::uint16_t onu_id, std::uint16_t port, Bytes payload);

  /// One DBA cycle: grant each operational ONU up to `grant_frames` slots.
  std::size_t run_dba_cycle(std::span<Onu*> onus, std::size_t grant_frames);

  /// Payloads received upstream, keyed by onu_id.
  const std::map<std::uint16_t, std::vector<Bytes>>& received_data() const {
    return received_;
  }

  /// Streaming delivery: when set, accepted upstream payloads are handed to
  /// the sink instead of accumulating in received_data(). The carrier-scale
  /// fabric uses this to count/digest/recycle 10k ONUs' traffic without
  /// retaining every payload.
  using DataSink = std::function<void(std::uint16_t onu_id, Bytes&& payload)>;
  void set_data_sink(DataSink sink) { sink_ = std::move(sink); }

  /// Attach a payload arena: per-frame working copies (the decrypt
  /// scratch) draw their buffers from it instead of the heap. nullptr
  /// (default) reverts to plain allocation.
  void set_frame_arena(FrameArena* arena) { arena_ = arena; }

  // -- introspection --------------------------------------------------------
  struct OnuRecord {
    std::string serial;
    std::uint16_t onu_id = 0;
    bool ranged = false;
    bool authenticated = false;
    std::uint32_t last_superframe = 0;
    std::unique_ptr<GponCipher> cipher;  // out of line, as Onu's: set on key activation
  };

  const std::map<std::uint16_t, OnuRecord>& onus() const { return onus_; }
  const OltSecurityCounters& counters() const { return counters_; }
  /// Find the onu_id assigned to `serial`, if activated.
  std::optional<std::uint16_t> onu_id_for(const std::string& serial) const;

 private:
  void handle_control(const GemFrame& frame);
  void handle_data(const GemFrame& frame);
  void send_control(std::uint16_t onu_id, ControlType type,
                    std::map<std::string, std::string> fields);
  void emit(const std::string& topic, std::map<std::string, std::string> attrs);
  // Copy `frame`, drawing the payload buffer from the arena when attached.
  GemFrame copy_frame(const GemFrame& frame) const;

  std::string id_;
  Odn* odn_;
  const common::SimClock* clock_;
  const common::Logger* logger_;
  common::EventBus* bus_;
  OltSecurityPolicy policy_;

  // One endpoint reused across sequential handshakes (the hash-based key
  // inside consumes one-time leaves per handshake, as real stateful
  // hash-based signing keys do).
  std::optional<AuthEndpoint> auth_;

  std::set<std::string> allowed_serials_;
  std::map<std::uint16_t, OnuRecord> onus_;
  std::map<std::string, std::uint16_t> serial_to_id_;
  std::uint16_t next_onu_id_ = 1;
  std::uint32_t tx_superframe_ = 0;

  std::map<std::uint16_t, std::vector<Bytes>> received_;
  OltSecurityCounters counters_;
  DataSink sink_;
  FrameArena* arena_ = nullptr;
};

}  // namespace genio::pon
