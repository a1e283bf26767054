#include "genio/sim/fabric.hpp"

#include <algorithm>

#include "genio/crypto/crc32.hpp"

namespace genio::sim {

namespace {

constexpr std::uint16_t kDataPort = 1;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a over the low `bytes` bytes of `value`, least significant first.
std::uint64_t fnv_le(std::uint64_t h, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    h = (h ^ static_cast<std::uint8_t>(value >> (8 * i))) * kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t fold_delivery(std::uint64_t state, std::uint16_t onu_id,
                            common::BytesView payload) {
  state = fnv_le(state, onu_id, 2);
  state = fnv_le(state, payload.size(), 4);
  return fnv_le(state, crypto::crc32(payload), 4);
}

PonFabric::PonFabric(FabricConfig config)
    : config_(config), events_(&clock_) {
  sites_.reserve(static_cast<std::size_t>(config_.olt_count));
  for (int i = 0; i < config_.olt_count; ++i) build_site(i);
}

void PonFabric::build_site(int index) {
  auto site = std::make_unique<Site>(config_.cycle_budget_bytes);
  site->index = index;
  site->odn = std::make_unique<pon::Odn>();

  pon::OltSecurityPolicy policy;
  policy.enforce_serial_allowlist = true;
  policy.require_authentication = false;  // carrier fabric models the data
  policy.encrypt_data_path = false;       // plane; M3/M4 live in the platform
  const std::string olt_id = "olt-" + std::to_string(index);
  site->olt = std::make_unique<pon::Olt>(olt_id, site->odn.get(), &clock_,
                                         nullptr, nullptr, policy);
  site->olt->set_frame_arena(&site->arena);

  Site* raw = site.get();
  site->olt->set_data_sink([this, raw](std::uint16_t onu_id, common::Bytes&& payload) {
    ++stats_.delivered_frames;
    stats_.delivered_bytes += payload.size();
    raw->delivered_by_onu[onu_id] += payload.size();
    raw->digest = fold_delivery(raw->digest, onu_id, payload);
    raw->arena.recycle(std::move(payload));
  });

  site->onus.reserve(static_cast<std::size_t>(config_.onus_per_olt));
  site->streams.reserve(static_cast<std::size_t>(config_.onus_per_olt));
  site->arrival_counts.assign(static_cast<std::size_t>(config_.onus_per_olt), 0);
  for (int i = 0; i < config_.onus_per_olt; ++i) {
    const std::string serial = pon::make_onu_serial(static_cast<unsigned>(index),
                                                    static_cast<unsigned>(i));
    // A failed claim means the serial scheme aliased two devices — the
    // fleet-level collision the widened format exists to rule out. The
    // registration mirrors it onto the owning OLT's allowlist.
    (void)serials_.claim(serial, olt_id);
    (void)site->olt->register_serial(serial);
    auto onu = std::make_unique<pon::Onu>(serial, site->odn.get(), &clock_, nullptr);
    onu->set_frame_arena(&site->arena);
    site->streams.push_back(common::Rng::derive(config_.seed, serial));
    site->onus.push_back(std::move(onu));
  }
  sites_.push_back(std::move(site));
}

int PonFabric::activate_all() {
  for (auto& site : sites_) site->olt->start_discovery();
  return operational_count();
}

void PonFabric::schedule_discovery(common::SimTime at, int site) {
  pon::Olt* olt = sites_[static_cast<std::size_t>(site)]->olt.get();
  (void)events_.schedule_at(at, [olt] { olt->start_discovery(); });
}

int PonFabric::operational_count() const {
  int count = 0;
  for (const auto& site : sites_) {
    for (const auto& onu : site->onus) {
      if (onu->state() == pon::OnuState::kOperational) ++count;
    }
  }
  return count;
}

void PonFabric::start_traffic() {
  traffic_on_ = true;
  for (auto& site : sites_) {
    for (int i = 0; i < static_cast<int>(site->onus.size()); ++i) {
      schedule_arrival(*site, i);
    }
    if (!dba_on_) schedule_dba_cycle(*site);
  }
  dba_on_ = true;
}

void PonFabric::stop_traffic() { traffic_on_ = false; }

void PonFabric::stop_dba() { dba_on_ = false; }

void PonFabric::schedule_arrival(Site& site, int onu_index) {
  common::Rng& stream = site.streams[static_cast<std::size_t>(onu_index)];
  const double mean_ns = 1e9 / config_.arrivals_per_onu_per_sec;
  const auto delay = common::SimTime(
      static_cast<std::int64_t>(stream.exponential(mean_ns)) + 1);
  (void)events_.schedule_after(delay, [this, &site, onu_index] {
    if (!traffic_on_) return;
    common::Rng& rng = site.streams[static_cast<std::size_t>(onu_index)];
    pon::Onu& onu = *site.onus[static_cast<std::size_t>(onu_index)];
    const auto size = static_cast<std::size_t>(rng.uniform_range(
        static_cast<std::int64_t>(config_.payload_min),
        static_cast<std::int64_t>(config_.payload_max)));
    ++stats_.arrivals;
    if (onu.upstream_queue_size() >= config_.onu_queue_cap) {
      ++stats_.queue_drops;
    } else {
      stats_.generated_bytes += size;  // enqueued bytes only, so the
      // conservation check generated == delivered + queued + lost holds
      common::Bytes payload = site.arena.acquire(size);
      const std::uint64_t n = ++site.arrival_counts[static_cast<std::size_t>(onu_index)];
      // Cheap deterministic fill — enough structure for the delivery digest
      // to catch reordering/corruption without an Rng draw per byte.
      const auto pattern = static_cast<std::uint8_t>(n * 31 + static_cast<std::uint64_t>(onu_index));
      std::fill(payload.begin(), payload.end(), pattern);
      onu.send_data(kDataPort, std::move(payload));
    }
    schedule_arrival(site, onu_index);
  });
}

pon::TcontRequest PonFabric::request_for(const Site& site, int onu_index) const {
  const pon::Onu& onu = *site.onus[static_cast<std::size_t>(onu_index)];
  pon::TcontRequest request;
  request.onu_id = onu.onu_id();
  request.queued = static_cast<std::uint32_t>(
      std::min<std::size_t>(onu.upstream_queue_bytes(), 0xffffffffu));
  switch (onu_index % 8) {
    case 0:
      request.type = pon::TcontType::kFixed;
      request.entitled = 2048;
      break;
    case 1:
    case 2:
      request.type = pon::TcontType::kAssured;
      request.entitled = 4096;
      break;
    default:
      request.type = pon::TcontType::kBestEffort;
      request.entitled = 0;
      break;
  }
  return request;
}

void PonFabric::schedule_dba_cycle(Site& site) {
  (void)events_.schedule_after(config_.dba_period, [this, &site] {
    if (!dba_on_) return;
    run_dba_cycle(site);
    schedule_dba_cycle(site);
  });
}

void PonFabric::run_dba_cycle(Site& site) {
  std::vector<pon::TcontRequest> requests;
  requests.reserve(site.onus.size());
  for (int i = 0; i < static_cast<int>(site.onus.size()); ++i) {
    pon::Onu* onu = site.onus[static_cast<std::size_t>(i)].get();
    if (onu->state() != pon::OnuState::kOperational) continue;
    if (!site.odn->attached(onu)) continue;
    pon::TcontRequest request = request_for(site, i);
    // Fixed allocations burn their reservation whether or not traffic is
    // queued; everyone else only competes when they have bytes waiting.
    if (request.type != pon::TcontType::kFixed && request.queued == 0) continue;
    site.by_id[request.onu_id] = onu;
    requests.push_back(request);
  }
  ++stats_.dba_cycles;
  if (requests.empty()) return;
  const std::vector<pon::DbaGrant> grants = site.dba.allocate(requests);
  for (const pon::DbaGrant& grant : grants) {
    const auto it = site.by_id.find(grant.onu_id);
    if (it == site.by_id.end() || grant.bytes == 0) continue;
    const std::size_t frames =
        std::max<std::size_t>(1, grant.bytes / config_.frame_quantum);
    (void)it->second->drain_upstream(frames);
  }
}

void PonFabric::set_feeder(int site, bool up) {
  sites_[static_cast<std::size_t>(site)]->odn->set_feeder_up(up);
}

void PonFabric::detach_onu(int site, int onu_index) {
  Site& s = *sites_[static_cast<std::size_t>(site)];
  s.odn->detach_onu(s.onus[static_cast<std::size_t>(onu_index)].get());
}

void PonFabric::attach_onu(int site, int onu_index) {
  Site& s = *sites_[static_cast<std::size_t>(site)];
  pon::Onu* onu = s.onus[static_cast<std::size_t>(onu_index)].get();
  if (!s.odn->attached(onu)) s.odn->attach_onu(onu);
}

std::uint64_t PonFabric::delivered_digest() const {
  std::uint64_t h = 14695981039346656037ull;
  for (const auto& site : sites_) h = fnv_le(h, site->digest, 8);
  return h;
}

std::uint64_t PonFabric::delivered_bytes(int site, std::uint16_t onu_id) const {
  const auto& by_onu = sites_[static_cast<std::size_t>(site)]->delivered_by_onu;
  const auto it = by_onu.find(onu_id);
  return it == by_onu.end() ? 0 : it->second;
}

double PonFabric::modeled_bytes_per_onu() const {
  const int total = config_.olt_count * config_.onus_per_olt;
  if (total == 0) return 0.0;
  std::uint64_t arena_high_water = 0;
  for (const auto& site : sites_) {
    arena_high_water += site->arena.stats().high_water_bytes;
  }
  const auto per_onu_objects =
      static_cast<std::uint64_t>(total) * static_cast<std::uint64_t>(sizeof(pon::Onu));
  return static_cast<double>(arena_high_water + per_onu_objects) /
         static_cast<double>(total);
}

}  // namespace genio::sim
