#include "genio/resilience/chaos.hpp"

#include <algorithm>
#include <cassert>

#include "genio/common/strings.hpp"

namespace genio::resilience {

namespace {

// One fault starting at now + U[0, horizon) and lasting Exp(mean_duration),
// drawn from `rng` in that order.
FaultSpec draw_fault(FaultKind kind, const std::string& target, Rng& rng, SimTime now,
                     SimTime horizon, SimTime mean_duration) {
  FaultSpec spec;
  spec.kind = kind;
  spec.target = target;
  spec.at = now + SimTime(static_cast<std::int64_t>(
                      rng.uniform01() * static_cast<double>(horizon.nanos())));
  spec.duration = SimTime(static_cast<std::int64_t>(
      rng.exponential(static_cast<double>(mean_duration.nanos()))));
  if (kind == FaultKind::kPonBitErrorBurst) spec.magnitude = 0.05;
  if (kind == FaultKind::kTpmTransient) spec.magnitude = 2.0;
  return spec;
}

}  // namespace

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kPonLinkFlap: return "pon-link-flap";
    case FaultKind::kPonBitErrorBurst: return "pon-bit-error-burst";
    case FaultKind::kOnuChurn: return "onu-churn";
    case FaultKind::kNodeCrash: return "node-crash";
    case FaultKind::kKubeletStall: return "kubelet-stall";
    case FaultKind::kSdnOutage: return "sdn-outage";
    case FaultKind::kRegistryOutage: return "registry-outage";
    case FaultKind::kFeedOutage: return "feed-outage";
    case FaultKind::kTpmTransient: return "tpm-transient";
  }
  return "unknown";
}

void ChaosEngine::register_target(FaultKind kind, const std::string& target,
                                  FaultTarget handlers) {
  targets_[{kind, target}] = std::move(handlers);
}

bool ChaosEngine::target_registered(FaultKind kind, const std::string& target) const {
  return targets_.contains({kind, target});
}

int ChaosEngine::schedule(FaultSpec spec) {
  assert(target_registered(spec.kind, spec.target) && "unregistered fault target");
  spec.id = next_id_++;
  const std::size_t index = schedule_.size();
  schedule_.push_back(spec);
  states_.push_back({});
  (void)queue_->schedule_at(spec.at, [this, index] { inject(index); });
  if (spec.duration > SimTime{}) {
    (void)queue_->schedule_at(spec.at + spec.duration, [this, index] { revert(index); });
  }
  return spec.id;
}

std::vector<int> ChaosEngine::schedule_random(int count, SimTime horizon,
                                              SimTime mean_duration) {
  std::vector<std::pair<FaultKind, std::string>> keys;
  keys.reserve(targets_.size());
  for (const auto& [key, target] : targets_) keys.push_back(key);
  std::vector<int> ids;
  if (keys.empty()) return ids;
  for (int i = 0; i < count; ++i) {
    const auto& [kind, target] = keys[rng_.index(keys.size())];
    ids.push_back(schedule(
        draw_fault(kind, target, rng_, queue_->clock().now(), horizon, mean_duration)));
  }
  return ids;
}

std::vector<int> ChaosEngine::schedule_storm(FaultKind kind, const std::string& target,
                                             int count, SimTime horizon,
                                             SimTime mean_duration,
                                             std::uint64_t stream_seed) {
  Rng stream = Rng::derive(stream_seed, to_string(kind) + "/" + target);
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(std::max(count, 0)));
  for (int i = 0; i < count; ++i) {
    ids.push_back(schedule(
        draw_fault(kind, target, stream, queue_->clock().now(), horizon, mean_duration)));
  }
  return ids;
}

std::map<std::string, std::string> ChaosEngine::event_attrs(const FaultSpec& spec) const {
  return {{"fault", to_string(spec.kind)},
          {"target", spec.target},
          {"id", std::to_string(spec.id)},
          {"duration_s", common::format_double(spec.duration.seconds(), 3)}};
}

void ChaosEngine::inject(std::size_t index) {
  const FaultSpec& spec = schedule_[index];
  targets_.at({spec.kind, spec.target}).apply(spec);
  states_[index].applied = true;
  ++stats_.injected;
  if (bus_ != nullptr) bus_->publish("chaos.fault.injected", event_attrs(spec));
}

void ChaosEngine::revert(std::size_t index) {
  const FaultSpec& spec = schedule_[index];
  targets_.at({spec.kind, spec.target}).revert(spec);
  states_[index].reverted = true;
  ++stats_.reverted;
  if (bus_ != nullptr) bus_->publish("chaos.fault.reverted", event_attrs(spec));
}

std::vector<FaultSpec> ChaosEngine::active_faults() const {
  std::vector<FaultSpec> out;
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    if (states_[i].applied && !states_[i].reverted && schedule_[i].duration > SimTime{}) {
      out.push_back(schedule_[i]);
    }
  }
  return out;
}

}  // namespace genio::resilience
