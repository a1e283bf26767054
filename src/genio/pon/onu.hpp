// Optical Network Unit: the far-edge device at the customer premises.
// Implements the (simplified G.987-style) activation state machine, the
// data path with optional GPON payload encryption, and the ONU side of the
// mutual-authentication handshake (M4).
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "genio/common/log.hpp"
#include "genio/pon/auth.hpp"
#include "genio/pon/control.hpp"
#include "genio/pon/frame_arena.hpp"
#include "genio/pon/gpon_crypto.hpp"
#include "genio/pon/medium.hpp"

namespace genio::pon {

enum class OnuState {
  kInitial,             // O1: waiting for a discovery window
  kAwaitingAssignment,  // responded with serial, waiting for onu-id
  kRanging,             // onu-id assigned, ranging in progress
  kOperational,         // O5: data path enabled
};

std::string to_string(OnuState state);

/// In-band transport for the authentication handshake; implemented by
/// honest ONUs and by rogue devices (which fail it in interesting ways).
class AuthTransport {
 public:
  virtual ~AuthTransport() = default;
  virtual common::Result<AuthResponse> auth_respond(const AuthHello& hello,
                                                    common::SimTime now) = 0;
  virtual common::Result<SessionKeys> auth_complete(const AuthFinish& finish) = 0;
};

struct OnuStats {
  std::uint64_t data_frames_received = 0;
  std::uint64_t data_frames_sent = 0;
  std::uint64_t foreign_frames_seen = 0;   // addressed to other ONUs (broadcast physics)
  std::uint64_t decrypt_failures = 0;      // tampered/forged downstream
  std::uint64_t stale_superframe_drops = 0;  // replayed downstream
  std::uint64_t fcs_drops = 0;
};

class Onu : public OnuDevice, public AuthTransport {
 public:
  Onu(std::string serial, Odn* odn, const common::SimClock* clock,
      const common::Logger* logger);

  // -- provisioning ---------------------------------------------------------
  /// Install authentication credentials (certificate chain + key).
  void provision_credentials(crypto::SigningKey key,
                             std::vector<crypto::Certificate> chain,
                             const crypto::TrustStore* trust, common::Rng rng);

  // -- identity/state -------------------------------------------------------
  const std::string& serial() const { return serial_; }
  OnuState state() const { return state_; }
  std::uint16_t onu_id() const { return onu_id_; }
  bool session_active() const { return cipher_ != nullptr; }

  // -- medium callbacks -----------------------------------------------------
  void on_downstream(const DownstreamView& view) override;

  // -- auth transport (called in-band by the OLT) ---------------------------
  common::Result<AuthResponse> auth_respond(const AuthHello& hello,
                                            common::SimTime now) override;
  common::Result<SessionKeys> auth_complete(const AuthFinish& finish) override;

  // -- data path ------------------------------------------------------------
  /// Queue an upstream payload on `port` (>0).
  void send_data(std::uint16_t port, Bytes payload);
  /// Transmit up to `max_frames` queued frames (called during a DBA grant).
  std::size_t drain_upstream(std::size_t max_frames);
  std::size_t upstream_queue_size() const { return upstream_queue_.size(); }
  /// Total payload bytes waiting in the upstream queue (maintained
  /// incrementally — O(1), used by the DBA report path at carrier scale).
  std::size_t upstream_queue_bytes() const { return upstream_queue_bytes_; }

  /// Attach a payload arena: after a frame ships, its payload buffer is
  /// recycled into it, closing the generator -> queue -> frame -> arena
  /// allocation loop. nullptr (default) keeps plain heap frees.
  void set_frame_arena(FrameArena* arena) { arena_ = arena; }

  /// Downstream payloads accepted for this ONU (after decryption).
  const std::vector<Bytes>& received_data() const { return received_; }
  const OnuStats& stats() const { return stats_; }

 private:
  void handle_control(const ControlMessage& msg);
  void handle_data(const GemFrame& frame);
  void send_control(ControlType type, std::map<std::string, std::string> fields);

  std::string serial_;
  Odn* odn_;
  const common::SimClock* clock_;
  const common::Logger* logger_;

  OnuState state_ = OnuState::kInitial;
  std::uint16_t onu_id_ = 0;
  std::uint32_t tx_superframe_ = 0;
  std::uint32_t last_rx_superframe_ = 0;

  // Out of line, like cipher_: fabric ONUs hold no credentials.
  std::unique_ptr<AuthEndpoint> auth_;
  std::optional<SessionKeys> pending_keys_;
  // Out of line: a GponCipher is 440 B of round keys and GHASH powers
  // (plus 16 KB of shared tables without AES-NI), and most ONUs (every
  // fabric ONU) never activate a session key.
  std::unique_ptr<GponCipher> cipher_;

  struct QueuedFrame {
    std::uint16_t port;
    Bytes payload;
  };
  // A list, not a deque: libstdc++'s deque allocates ~600 B on
  // construction, and most fabric ONUs never queue a frame.
  std::list<QueuedFrame> upstream_queue_;
  std::size_t upstream_queue_bytes_ = 0;
  FrameArena* arena_ = nullptr;
  std::vector<Bytes> received_;
  OnuStats stats_;
};

}  // namespace genio::pon
