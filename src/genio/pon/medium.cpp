#include "genio/pon/medium.hpp"

namespace genio::pon {

const GemFrame& Odn::transit(const GemFrame& frame, GemFrame& scratch) {
  if (bit_error_rate_ <= 0.0 || !fault_rng_.has_value() ||
      !fault_rng_->chance(bit_error_rate_) || frame.payload.empty()) {
    return frame;  // clean path: deliver the caller's frame, zero copies
  }
  scratch = frame;
  scratch.payload[fault_rng_->index(scratch.payload.size())] ^=
      static_cast<std::uint8_t>(1u << fault_rng_->index(8));
  ++stats_.corrupted_frames;
  return scratch;
}

void Odn::downstream(const GemFrame& frame) {
  if (!feeder_up_) {
    ++stats_.dropped_frames;
    return;
  }
  GemFrame scratch;
  const GemFrame& delivered = transit(frame, scratch);
  ++stats_.downstream_frames;
  stats_.downstream_bytes += delivered.payload.size();
  for (Tap* tap : taps_) tap->observe_downstream(delivered);
  // PON physics: every ONU on the tree receives every downstream frame,
  // so they share one FCS verdict and one control decode.
  const DownstreamView view(delivered);
  for (OnuDevice* onu : onus_) onu->on_downstream(view);
}

void Odn::upstream(const GemFrame& frame) {
  if (!feeder_up_) {
    ++stats_.dropped_frames;
    return;
  }
  GemFrame scratch;
  const GemFrame& delivered = transit(frame, scratch);
  ++stats_.upstream_frames;
  stats_.upstream_bytes += delivered.payload.size();
  for (Tap* tap : taps_) tap->observe_upstream(delivered);
  if (olt_ != nullptr) olt_->on_upstream(delivered);
}

}  // namespace genio::pon
