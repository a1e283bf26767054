// Attacker toolkit for T1 "Network Attacks": fiber taps, replay injection,
// ONU impersonation, and downstream hijacking. Each attack is an honest-to-
// goodness protocol participant — the scenarios in genio::core run them
// against OLT/ONU fleets with mitigations toggled on and off.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "genio/pon/control.hpp"
#include "genio/pon/medium.hpp"
#include "genio/pon/onu.hpp"

namespace genio::pon {

/// Passive fiber tap (T1: "physically tapping fiber connections").
/// Measures how much plaintext the adversary recovers from every frame on
/// the tree — the quantity M3 drives to zero — and keeps the upstream
/// frames for the replay attacker.
class FiberTap final : public Tap {
 public:
  void observe_downstream(const GemFrame& frame) override;
  void observe_upstream(const GemFrame& frame) override;

  const std::vector<GemFrame>& captured_upstream() const { return upstream_; }

  /// Bytes of user-data payload captured in the clear (data ports only).
  std::uint64_t plaintext_data_bytes() const { return plaintext_bytes_; }
  /// Bytes of user-data payload captured but encrypted (useless to the tap).
  std::uint64_t ciphertext_data_bytes() const { return ciphertext_bytes_; }

  /// Fraction of captured data bytes readable by the adversary (0..1).
  double plaintext_ratio() const;

 private:
  void account(const GemFrame& frame);

  std::vector<GemFrame> upstream_;
  std::uint64_t plaintext_bytes_ = 0;
  std::uint64_t ciphertext_bytes_ = 0;
};

/// Replay attacker (T1: "interception and replay"): re-injects previously
/// captured upstream data frames toward the OLT.
class ReplayAttacker {
 public:
  explicit ReplayAttacker(const FiberTap* tap) : tap_(tap) {}

  /// Re-inject up to `max_frames` captured upstream data frames. Returns
  /// the number injected (acceptance is decided by the OLT's defences).
  std::size_t replay_upstream(Odn& odn, std::size_t max_frames);

 private:
  const FiberTap* tap_;
};

/// Rogue ONU (T1: "ONU impersonation"): a device that answers discovery
/// with a serial it does not legitimately own. With the allow-list off or
/// a known serial cloned, it activates; only M4 (certificates) stops it —
/// it cannot produce a chain for the stolen identity.
class RogueOnu final : public OnuDevice, public AuthTransport {
 public:
  /// `claimed_serial`: the identity to impersonate. `forged_credentials`:
  /// if set, the rogue presents this (self-signed / wrong-CA) chain.
  RogueOnu(std::string claimed_serial, Odn* odn);
  ~RogueOnu() override;

  /// Provide credentials from an attacker-controlled CA (not in the
  /// platform trust store) to test chain validation.
  void forge_credentials(crypto::SigningKey key,
                         std::vector<crypto::Certificate> chain,
                         const crypto::TrustStore* attacker_trust, common::Rng rng);

  void on_downstream(const DownstreamView& view) override;

  // AuthTransport: responds with forged credentials if present, else fails.
  common::Result<AuthResponse> auth_respond(const AuthHello& hello,
                                            common::SimTime now) override;
  common::Result<SessionKeys> auth_complete(const AuthFinish& finish) override;

  bool activated() const { return onu_id_ != 0; }
  std::uint16_t onu_id() const { return onu_id_; }

  /// Data frames the rogue received for the impersonated identity (the
  /// payoff of a successful impersonation).
  const std::vector<GemFrame>& stolen_frames() const { return stolen_; }

  /// Send attacker-chosen upstream data as the impersonated ONU.
  void inject_upstream(std::uint16_t port, Bytes payload);

 private:
  std::string claimed_serial_;
  Odn* odn_;
  std::uint16_t onu_id_ = 0;
  std::uint32_t tx_superframe_ = 1000;  // attacker guesses a high counter
  std::optional<AuthEndpoint> forged_auth_;
  std::vector<GemFrame> stolen_;
};

/// Downstream hijacker (T1: "downstream hijacking"): injects forged frames
/// toward a victim ONU as if they came from the OLT. Without M3 the victim
/// accepts them; with the data path encrypted, forgery fails the GCM tag.
class DownstreamHijacker {
 public:
  explicit DownstreamHijacker(Odn* odn) : odn_(odn) {}

  /// Inject a forged data frame for `victim_onu_id`. `superframe_guess`
  /// must beat the victim's replay floor for the frame to even be
  /// considered (the attacker can read counters off the wire via a tap).
  void inject(std::uint16_t victim_onu_id, std::uint16_t port,
              std::uint32_t superframe_guess, Bytes payload,
              bool mark_encrypted = false);

 private:
  Odn* odn_;
};

}  // namespace genio::pon
