// Data-plane catalog (round 2): the per-frame seal/open path exercised end
// to end — DBA-grant upstream bursts under an ODN bit-error storm, a GPON
// rekey landing between allocations, MKA epoch rolls inside a run of
// MACsec frames, and a longer throughput soak. A "burst" here is what the
// PON calls one: the frames an ONU sends in one DBA grant. Each scenario
// checks delivery integrity (every accepted payload byte-identical to a
// sent one) and that corrupted or cross-epoch frames are detected exactly,
// never silently absorbed.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "genio/common/strings.hpp"
#include "genio/pon/link.hpp"
#include "genio/scenario/catalog.hpp"
#include "genio/scenario/fragments.hpp"
#include "genio/scenario/scenario.hpp"

namespace genio::scenario {

namespace {

namespace gc = genio::common;

// Queue `per_onu` random payloads on every operational ONU and remember
// them in ONU order; returns sent payloads indexed by OLT onu_id.
std::map<std::uint16_t, std::vector<gc::Bytes>> queue_traffic(
    ScenarioContext& ctx, core::GenioPlatform& platform, int per_onu,
    std::size_t max_bytes) {
  std::map<std::uint16_t, std::vector<gc::Bytes>> sent;
  for (auto& onu : platform.onus()) {
    const auto id = platform.olt().onu_id_for(onu->serial());
    if (!id.has_value()) continue;
    for (int i = 0; i < per_onu; ++i) {
      gc::Bytes payload = ctx.rng().bytes(
          ctx.rng().uniform_range(1, static_cast<std::int64_t>(max_bytes)));
      sent[*id].push_back(payload);
      onu->send_data(1, std::move(payload));
    }
  }
  return sent;
}

std::size_t run_dba(core::GenioPlatform& platform, std::size_t grant) {
  std::vector<pon::Onu*> raw;
  for (auto& onu : platform.onus()) raw.push_back(onu.get());
  return platform.olt().run_dba_cycle(std::span(raw.data(), raw.size()), grant);
}

// Every payload the OLT accepted must be byte-identical to a prefix-ordered
// subsequence of what its ONU sent: drops are allowed (the storm), silent
// corruption or reordering is not.
void check_delivery_integrity(
    ScenarioContext& ctx,
    const std::map<std::uint16_t, std::vector<gc::Bytes>>& sent,
    const std::map<std::uint16_t, std::vector<gc::Bytes>>& received) {
  bool subsequence = true;
  std::size_t delivered = 0;
  for (const auto& [id, frames] : received) {
    const auto it = sent.find(id);
    if (it == sent.end()) {
      subsequence = frames.empty() && subsequence;
      continue;
    }
    std::size_t cursor = 0;
    for (const gc::Bytes& payload : frames) {
      while (cursor < it->second.size() && it->second[cursor] != payload) ++cursor;
      if (cursor == it->second.size()) {
        subsequence = false;
        break;
      }
      ++cursor;
      ++delivered;
    }
  }
  ctx.check("delivered-payloads-are-sent-subsequence", subsequence,
            std::to_string(delivered) + " frames verified");
}

std::size_t total_frames(const std::map<std::uint16_t, std::vector<gc::Bytes>>& m) {
  std::size_t n = 0;
  for (const auto& [id, frames] : m) n += frames.size();
  return n;
}

// ------------------------------------------------- burst under BER storm

GENIO_SCENARIO("dataplane.burst.ber-storm", "dataplane", "fault:bit-error",
               "quick") {
  auto& platform = ctx.make_platform(scenario_config(4));
  ctx.check("pon-activates", platform.activate_pon() == 4);

  // The storm starts after activation so only data bursts ride dirty fiber.
  platform.odn().set_bit_error_rate(0.2, gc::Rng(ctx.seed()));
  const auto sent = queue_traffic(ctx, platform, 12, 512);
  for (int cycle = 0; cycle < 3; ++cycle) (void)run_dba(platform, 4);
  platform.odn().clear_bit_errors();

  const auto& received = platform.olt().received_data();
  check_delivery_integrity(ctx, sent, received);
  // Corruption detection is exact: every frame the storm hit fails the FCS
  // at the OLT — none decrypts, none vanishes unaccounted.
  const auto& counters = platform.olt().counters();
  ctx.check("every-corrupted-frame-detected",
            counters.fcs_drops == platform.odn().stats().corrupted_frames,
            std::to_string(counters.fcs_drops) + " drops vs " +
                std::to_string(platform.odn().stats().corrupted_frames) +
                " corrupted");
  ctx.check("storm-actually-hit", platform.odn().stats().corrupted_frames > 0);
  ctx.check("no-decrypt-failures", counters.decrypt_failures == 0);
  ctx.check("accounting-closes",
            total_frames(received) + counters.fcs_drops ==
                total_frames(sent));
}

// --------------------------------------------- GPON rekey mid data stream

GENIO_SCENARIO("dataplane.burst.rekey-mid-stream", "dataplane", "rekey",
               "quick") {
  auto& platform = ctx.make_platform(scenario_config(2));
  ctx.check("pon-activates", platform.activate_pon() == 2);

  auto sent = queue_traffic(ctx, platform, 8, 700);
  (void)run_dba(platform, 8);

  // Re-run the M4 handshake between allocations: fresh session keys on
  // both ends, exactly the supervisor's post-churn playbook.
  for (auto& onu : platform.onus()) {
    ctx.check("rekey-" + onu->serial() + "-succeeds",
              platform.reauthenticate_onu(onu->serial()).ok());
  }

  const auto second = queue_traffic(ctx, platform, 8, 700);
  for (const auto& [id, frames] : second) {
    auto& dest = sent[id];
    dest.insert(dest.end(), frames.begin(), frames.end());
  }
  (void)run_dba(platform, 8);

  const auto& received = platform.olt().received_data();
  check_delivery_integrity(ctx, sent, received);
  ctx.check("all-frames-delivered-across-rekey",
            total_frames(received) == total_frames(sent),
            std::to_string(total_frames(received)) + "/" +
                std::to_string(total_frames(sent)));
  ctx.check("no-decrypt-failures-across-rekey",
            platform.olt().counters().decrypt_failures == 0);
}

// ------------------------------------------------ MKA epoch roll in burst

GENIO_SCENARIO("dataplane.mka.epoch-roll-burst", "dataplane", "rekey",
               "quick") {
  const gc::Bytes cak = ctx.rng().bytes(32);
  constexpr std::uint64_t kRekeyAfter = 8;
  pon::MacsecLink tx(0x01, cak, "uplink", kRekeyAfter);
  pon::MacsecLink rx(0x02, cak, "uplink", kRekeyAfter);

  std::vector<pon::EthFrame> frames;
  for (int i = 0; i < 36; ++i) {
    pon::EthFrame frame;
    frame.src_mac = "02:00:00:00:00:01";
    frame.dst_mac = "02:00:00:00:00:02";
    frame.payload = ctx.rng().bytes(ctx.rng().uniform_range(0, 800));
    frames.push_back(std::move(frame));
  }

  std::vector<pon::MacsecFrame> wire;
  for (const auto& frame : frames) wire.push_back(tx.send(frame));
  std::vector<gc::Result<pon::EthFrame>> out;
  for (const auto& frame : wire) out.push_back(rx.receive(frame));
  bool all_delivered = out.size() == frames.size();
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].ok() || *out[i] != frames[i]) all_delivered = false;
  }
  ctx.check("burst-survives-epoch-rolls", all_delivered,
            std::to_string(out.size()) + " frames across " +
                std::to_string(tx.stats().rekey_count) + " rekeys");
  // 36 frames at 8/epoch: the burst must have rolled the SAK mid-flight,
  // and both ends count the same rolls.
  ctx.check("epochs-rolled-mid-burst", tx.stats().rekey_count >= 4,
            std::to_string(tx.stats().rekey_count) + " tx rekeys");
  ctx.check("no-frames-rejected", rx.stats().frames_rejected == 0);

  // Epoch lockstep, checked functionally: a frame sent after the burst is
  // keyed under the latest SAK and must validate on the receiving side
  // without any resync.
  pon::EthFrame probe;
  probe.src_mac = "02:00:00:00:00:01";
  probe.dst_mac = "02:00:00:00:00:02";
  probe.payload = ctx.rng().bytes(64);
  ctx.check("epochs-in-lockstep-after-burst", rx.receive(tx.send(probe)).ok());

  // A frame re-sent from a dead epoch (stale wire capture) must be
  // rejected, not decrypted under the current SAK.
  const auto replayed = rx.receive(wire.front());
  ctx.check("stale-epoch-frame-rejected", !replayed.ok());
}

// ------------------------------------------------------- throughput soak

GENIO_SCENARIO("dataplane.burst.throughput-soak", "dataplane", "soak") {
  auto& platform = ctx.make_platform(scenario_config(4));
  ctx.check("pon-activates", platform.activate_pon() == 4);

  std::size_t sent_total = 0;
  std::size_t payload_bytes = 0;
  for (int cycle = 0; cycle < 40; ++cycle) {
    for (auto& onu : platform.onus()) {
      for (int i = 0; i < 8; ++i) {
        gc::Bytes payload = ctx.rng().bytes(
            ctx.rng().uniform_range(64, 1200));
        payload_bytes += payload.size();
        onu->send_data(1, std::move(payload));
        ++sent_total;
      }
    }
    (void)run_dba(platform, 8);
    ctx.advance(gc::SimTime::from_millis(125));
  }

  const auto& received = platform.olt().received_data();
  ctx.check("soak-delivers-every-frame",
            total_frames(received) == sent_total,
            std::to_string(total_frames(received)) + "/" +
                std::to_string(sent_total) + " frames, " +
                std::to_string(payload_bytes / 1024) + " KiB");
  const auto& counters = platform.olt().counters();
  ctx.check("soak-clean-counters",
            counters.fcs_drops == 0 && counters.decrypt_failures == 0 &&
                counters.stale_superframe_drops == 0);
  ctx.check("upstream-byte-accounting",
            platform.odn().stats().upstream_bytes > payload_bytes,
            std::to_string(platform.odn().stats().upstream_bytes) + " wire bytes");
}

}  // namespace

void anchor_catalog_dataplane() {}

}  // namespace genio::scenario
