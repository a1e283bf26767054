// The Optical Distribution Network: the passive splitter tree between one
// OLT and its ONUs. Two physical properties drive the threat model (T1):
//   * downstream is BROADCAST — every ONU (and every fiber tap) receives
//     every downstream frame, which is why G.987.3 payload encryption
//     matters;
//   * upstream is directed, but a tap on the shared feeder fiber still
//     observes it.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "genio/common/result.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/sim_clock.hpp"
#include "genio/pon/control.hpp"
#include "genio/pon/frame.hpp"

namespace genio::pon {

/// One downstream frame as every receiver on the tree gets it. Downstream
/// is broadcast, so all receivers see the same delivered bytes, and the
/// FCS verdict and (on kControlPort) the decoded control message are the
/// same for each of them. The view computes each once, on first use, and
/// shares the result; every receiver still decides for itself whether the
/// frame is addressed to it, and counts and logs its own drops.
///
/// Odn::downstream builds one view per call, on its own stack, so a
/// nested call (a receiver's reply makes the OLT send again) gets its own.
/// A view is valid only during that one delivery: receivers must not keep
/// it, or anything it returns, after on_downstream returns.
class DownstreamView {
 public:
  explicit DownstreamView(const GemFrame& frame) : frame_(frame) {}
  DownstreamView(const DownstreamView&) = delete;
  DownstreamView& operator=(const DownstreamView&) = delete;

  const GemFrame& frame() const { return frame_; }

  /// The frame's FCS verdict, checked on first use.
  bool fcs_valid() const {
    if (!fcs_valid_) fcs_valid_ = frame_.fcs_valid();
    return *fcs_valid_;
  }

  /// ControlMessage::decode of the payload, parsed on first use. Only
  /// meaningful for a frame on kControlPort.
  const common::Result<ControlMessage>& control() const {
    if (!control_) control_.emplace(ControlMessage::decode(frame_.payload));
    return *control_;
  }

 private:
  const GemFrame& frame_;
  mutable std::optional<bool> fcs_valid_;
  mutable std::optional<common::Result<ControlMessage>> control_;
};

/// Receiver interface for ONU-side devices (honest ONUs, rogue ONUs).
class OnuDevice {
 public:
  virtual ~OnuDevice() = default;
  virtual void on_downstream(const DownstreamView& view) = 0;
};

/// Receiver interface for the OLT side.
class OltDevice {
 public:
  virtual ~OltDevice() = default;
  virtual void on_upstream(const GemFrame& frame) = 0;
};

/// Passive observer attached to the fiber (T1 "physically tapping fiber").
class Tap {
 public:
  virtual ~Tap() = default;
  virtual void observe_downstream(const GemFrame& frame) = 0;
  virtual void observe_upstream(const GemFrame& frame) = 0;
};

/// Traffic counters for capacity/throughput reporting.
struct OdnStats {
  std::uint64_t downstream_frames = 0;
  std::uint64_t upstream_frames = 0;
  std::uint64_t downstream_bytes = 0;
  std::uint64_t upstream_bytes = 0;
  std::uint64_t dropped_frames = 0;    // lost to a feeder-fiber outage
  std::uint64_t corrupted_frames = 0;  // hit by an injected bit-error burst
};

/// The splitter tree. Non-owning: devices and taps are owned by the
/// scenario; they must outlive the Odn or detach first.
class Odn {
 public:
  /// `propagation` is the one-way fiber delay (≈5 us/km; 20 km ≈ 100 us).
  explicit Odn(common::SimTime propagation = common::SimTime::from_micros(100))
      : propagation_(propagation) {}

  void set_olt(OltDevice* olt) { olt_ = olt; }
  void attach_onu(OnuDevice* onu) { onus_.push_back(onu); }
  void detach_onu(OnuDevice* onu) { std::erase(onus_, onu); }
  /// Is the device currently on the splitter tree? (Health-probe query:
  /// churned ONUs detach and reattach under chaos.)
  bool attached(const OnuDevice* onu) const {
    for (const OnuDevice* candidate : onus_) {
      if (candidate == onu) return true;
    }
    return false;
  }
  void add_tap(Tap* tap) { taps_.push_back(tap); }

  /// Broadcast a frame from the OLT to every attached ONU (and every tap).
  /// All ONUs get the same DownstreamView of the delivered frame.
  void downstream(const GemFrame& frame);

  /// Carry a frame from an ONU (or an injector) up to the OLT.
  void upstream(const GemFrame& frame);

  common::SimTime propagation() const { return propagation_; }
  const OdnStats& stats() const { return stats_; }
  std::size_t onu_count() const { return onus_.size(); }

  // -- fault injection (chaos engine hooks) -----------------------------------
  /// Feeder-fiber state: while down, no frame crosses in either direction.
  void set_feeder_up(bool up) { feeder_up_ = up; }
  bool feeder_up() const { return feeder_up_; }
  /// Bit-error burst: each delivered frame is corrupted (one flipped
  /// payload bit) with probability `rate`; 0 disables. The Rng keeps the
  /// corruption pattern deterministic per seed.
  void set_bit_error_rate(double rate, common::Rng rng) {
    bit_error_rate_ = rate;
    fault_rng_ = rng;
  }
  void clear_bit_errors() { bit_error_rate_ = 0.0; }
  double bit_error_rate() const { return bit_error_rate_; }

 private:
  /// Returns the frame to deliver: the original by reference on the clean
  /// path (no copy), or `scratch` filled with a corrupted copy under an
  /// active bit-error burst (taps observe the corrupted wire view too).
  /// Corruption flips a payload bit, so the frame's FCS — crc32 on the
  /// dispatched data-plane backend — no longer matches and receivers
  /// detect it.
  const GemFrame& transit(const GemFrame& frame, GemFrame& scratch);

  common::SimTime propagation_;
  OltDevice* olt_ = nullptr;
  std::vector<OnuDevice*> onus_;
  std::vector<Tap*> taps_;
  OdnStats stats_;
  bool feeder_up_ = true;
  double bit_error_rate_ = 0.0;
  std::optional<common::Rng> fault_rng_;
};

}  // namespace genio::pon
