// Carrier-scale PON fabric: many OLT sites (each a splitter tree with its
// ONUs, a DBA scheduler, and a payload arena) sharing one SimClock and one
// EventQueue. Per-subscriber traffic generators, per-site DBA cycles, and
// chaos wakes are all events on that queue, so 10k ONUs across 100 OLTs
// advance through a single drain loop instead of per-entity polling.
// Every random draw comes from a stream derived from (seed, serial), so
// two fabrics with the same config produce byte-identical delivery
// digests.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "genio/common/bytes.hpp"
#include "genio/common/event_queue.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/sim_clock.hpp"
#include "genio/pon/dba.hpp"
#include "genio/pon/frame_arena.hpp"
#include "genio/pon/medium.hpp"
#include "genio/pon/olt.hpp"
#include "genio/pon/onu.hpp"
#include "genio/pon/serial.hpp"

namespace genio::sim {

struct FabricConfig {
  int olt_count = 4;
  int onus_per_olt = 16;
  std::uint64_t seed = 42;

  // Upstream TDMA: one DBA cycle per site every `dba_period`, allocating
  // `cycle_budget_bytes` across the site's T-CONT requests.
  common::SimTime dba_period = common::SimTime::from_micros(125);
  std::uint32_t cycle_budget_bytes = 64 * 1024;
  // Bytes per granted frame slot (grant.bytes / quantum frames per drain).
  std::uint32_t frame_quantum = 512;

  // Per-subscriber Poisson traffic.
  double arrivals_per_onu_per_sec = 200.0;
  std::uint32_t payload_min = 64;
  std::uint32_t payload_max = 1024;
  // Upstream queue cap per ONU; arrivals beyond it are dropped (counted).
  std::size_t onu_queue_cap = 256;
};

/// Fold one delivery into an order-sensitive 64-bit FNV-1a state: the
/// bytes of the ONU-ID, the payload length and crypto::crc32 of the
/// payload, each little-endian. Each site's sink folds every delivered
/// payload through this; the CRC runs on the dispatched data-plane kernel,
/// so the digest costs a few byte steps per frame, not one per payload
/// byte.
std::uint64_t fold_delivery(std::uint64_t state, std::uint16_t onu_id,
                            common::BytesView payload);

struct FabricStats {
  std::uint64_t arrivals = 0;           // payloads offered by the generators
  std::uint64_t generated_bytes = 0;    // bytes actually enqueued (drops excluded)
  std::uint64_t queue_drops = 0;        // arrivals shed at the ONU queue cap
  std::uint64_t delivered_frames = 0;   // data payloads accepted at an OLT
  std::uint64_t delivered_bytes = 0;
  std::uint64_t dba_cycles = 0;
};

/// One OLT site: splitter tree, OLT, its ONUs, DBA, arena, traffic streams.
class PonFabric {
 public:
  explicit PonFabric(FabricConfig config);

  PonFabric(const PonFabric&) = delete;
  PonFabric& operator=(const PonFabric&) = delete;

  // -- activation -------------------------------------------------------------
  /// Run discovery on every site now. Returns operational ONU count.
  int activate_all();
  /// Schedule one site's discovery window at absolute time `at` (activation
  /// storms stagger these across sites).
  void schedule_discovery(common::SimTime at, int site);
  int operational_count() const;

  // -- time -------------------------------------------------------------------
  common::EventQueue& events() { return events_; }
  common::SimClock& clock() { return clock_; }
  std::size_t run_for(common::SimTime dt) { return events_.run_for(dt); }
  std::size_t run_until(common::SimTime t) { return events_.run_until(t); }

  // -- traffic + TDMA ---------------------------------------------------------
  /// Start per-ONU Poisson generators and per-site DBA cycles.
  void start_traffic();
  /// Stop generating (in-flight queue contents still drain via DBA).
  void stop_traffic();
  /// Stop the DBA cycles too (nothing drains afterwards).
  void stop_dba();

  // -- fault hooks ------------------------------------------------------------
  void set_feeder(int site, bool up);
  void detach_onu(int site, int onu_index);
  void attach_onu(int site, int onu_index);

  // -- accounting -------------------------------------------------------------
  const FabricStats& stats() const { return stats_; }
  /// Order-sensitive FNV-1a digest over every delivered (onu_id, payload
  /// length, payload CRC-32) (see fold_delivery), combined across sites in
  /// site order. Two runs match iff their delivery streams match, up to a
  /// CRC-32 collision between payloads of the same length.
  std::uint64_t delivered_digest() const;
  std::uint64_t delivered_bytes(int site, std::uint16_t onu_id) const;
  /// Modeled steady-state footprint per ONU: arena high-water plus the ONU
  /// object itself. A planning number (the real process shares far more),
  /// not an RSS measurement.
  double modeled_bytes_per_onu() const;

  // -- structure --------------------------------------------------------------
  int site_count() const { return static_cast<int>(sites_.size()); }
  int onus_per_site() const { return config_.onus_per_olt; }
  pon::Olt& olt(int site) { return *sites_[static_cast<std::size_t>(site)]->olt; }
  pon::Onu& onu(int site, int index) {
    return *sites_[static_cast<std::size_t>(site)]->onus[static_cast<std::size_t>(index)];
  }
  pon::Odn& odn(int site) { return *sites_[static_cast<std::size_t>(site)]->odn; }
  const pon::FrameArena& arena(int site) const {
    return sites_[static_cast<std::size_t>(site)]->arena;
  }
  const pon::DbaScheduler& dba(int site) const {
    return sites_[static_cast<std::size_t>(site)]->dba;
  }
  pon::SerialSpace& serials() { return serials_; }

 private:
  struct Site {
    int index = 0;
    std::unique_ptr<pon::Odn> odn;
    std::unique_ptr<pon::Olt> olt;
    std::vector<std::unique_ptr<pon::Onu>> onus;
    std::vector<common::Rng> streams;  // one per ONU
    std::vector<std::uint64_t> arrival_counts;
    pon::DbaScheduler dba;
    pon::FrameArena arena;
    std::map<std::uint16_t, pon::Onu*> by_id;
    std::map<std::uint16_t, std::uint64_t> delivered_by_onu;
    // fold_delivery state over this site's deliveries, in order.
    std::uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis

    explicit Site(std::uint32_t budget) : dba(budget) {}
  };

  void build_site(int index);
  void schedule_arrival(Site& site, int onu_index);
  void schedule_dba_cycle(Site& site);
  void run_dba_cycle(Site& site);
  pon::TcontRequest request_for(const Site& site, int onu_index) const;

  FabricConfig config_;
  common::SimClock clock_;
  common::EventQueue events_;
  pon::SerialSpace serials_;
  std::vector<std::unique_ptr<Site>> sites_;
  FabricStats stats_;
  bool traffic_on_ = false;
  bool dba_on_ = false;
};

}  // namespace genio::sim
