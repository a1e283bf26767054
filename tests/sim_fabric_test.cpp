// The carrier-scale fabric under test: the widened fleet-unique serial
// scheme (format, capacity limits, SerialSpace collision handling, OLT
// allowlist rejection), end-to-end byte conservation through generator ->
// ONU queue -> DBA grant -> ODN -> OLT sink, same-seed determinism, a
// delivery fold that tells streams apart, a fabric run pinned to its
// recorded delivery digest, arena reuse on the steady-state data path,
// and the fault hooks (feeder, churn).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "genio/pon/serial.hpp"
#include "genio/sim/fabric.hpp"

namespace gc = genio::common;
namespace gp = genio::pon;
namespace gs = genio::sim;

namespace {

TEST(SerialSchemeTest, WidenedFormatExtendsTheLegacySequence) {
  // Ordinal 0 is the single-OLT platform: the widened serials are the old
  // GNIO%04d sequence with two extra ordinal digits.
  EXPECT_EQ(gp::make_onu_serial(0, 0), "GNIO000001");
  EXPECT_EQ(gp::make_onu_serial(0, 1), "GNIO000002");
  EXPECT_EQ(gp::make_onu_serial(0, 34), "GNIO00000Z");
  EXPECT_EQ(gp::make_onu_serial(0, 35), "GNIO000010");
  EXPECT_EQ(gp::make_onu_serial(1, 0), "GNIO010001");
  EXPECT_EQ(gp::make_onu_serial(35, 0), "GNIO0Z0001");
  EXPECT_EQ(gp::make_onu_serial(36, 0), "GNIO100001");
  for (const auto& serial :
       {gp::make_onu_serial(0, 0), gp::make_onu_serial(1295, 99),
        gp::make_onu_serial(gp::kMaxOltOrdinal - 1, gp::kMaxOnuIndex - 1)}) {
    EXPECT_EQ(serial.size(), 10u);
    EXPECT_EQ(serial.substr(0, 4), "GNIO");
  }
}

TEST(SerialSchemeTest, CapacityLimitsThrow) {
  EXPECT_THROW((void)gp::make_onu_serial(gp::kMaxOltOrdinal, 0), std::out_of_range);
  EXPECT_THROW((void)gp::make_onu_serial(0, gp::kMaxOnuIndex), std::out_of_range);
  EXPECT_NO_THROW((void)gp::make_onu_serial(gp::kMaxOltOrdinal - 1, gp::kMaxOnuIndex - 1));
}

TEST(SerialSchemeTest, SerialsAreUniqueAcrossTheFleet) {
  std::set<std::string> seen;
  for (unsigned olt = 0; olt < 40; ++olt) {
    for (unsigned onu = 0; onu < 50; ++onu) {
      EXPECT_TRUE(seen.insert(gp::make_onu_serial(olt, onu)).second)
          << "olt " << olt << " onu " << onu;
    }
  }
  EXPECT_EQ(seen.size(), 40u * 50u);
}

TEST(SerialSpaceTest, DuplicateClaimIsACountedCollision) {
  gp::SerialSpace space;
  const std::string serial = gp::make_onu_serial(3, 7);
  EXPECT_TRUE(space.claim(serial, "olt-3").ok());
  EXPECT_TRUE(space.claimed(serial));
  EXPECT_EQ(space.owner(serial), "olt-3");

  // Neither a rogue OLT nor a re-provision by the owner may claim it again.
  EXPECT_FALSE(space.claim(serial, "olt-rogue").ok());
  EXPECT_FALSE(space.claim(serial, "olt-3").ok());
  EXPECT_EQ(space.collisions(), 2u);
  EXPECT_EQ(space.owner(serial), "olt-3") << "collision must not steal ownership";
  EXPECT_EQ(space.size(), 1u);
  EXPECT_FALSE(space.claimed("GNIO999999"));
  EXPECT_EQ(space.owner("GNIO999999"), "");
}

TEST(SimFabricTest, FabricClaimsEverySerialAndOltRejectsClones) {
  gs::FabricConfig config;
  config.olt_count = 3;
  config.onus_per_olt = 5;
  gs::PonFabric fabric(config);

  EXPECT_EQ(fabric.serials().size(), 15u);
  EXPECT_EQ(fabric.serials().collisions(), 0u);
  EXPECT_EQ(fabric.serials().owner(gp::make_onu_serial(2, 4)), "olt-2");

  // A cloned device presenting an already-provisioned serial is rejected at
  // both layers: the fleet registry and the owning OLT's allowlist.
  const std::string cloned = gp::make_onu_serial(1, 2);
  EXPECT_FALSE(fabric.serials().claim(cloned, "olt-0").ok());
  const auto status = fabric.olt(1).register_serial(cloned);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(fabric.olt(1).register_serial(gp::make_onu_serial(1, 5)).ok())
      << "a fresh serial still registers";
}

TEST(SimFabricTest, ActivationBringsEveryOnuOperational) {
  gs::FabricConfig config;
  config.olt_count = 4;
  config.onus_per_olt = 8;
  gs::PonFabric fabric(config);
  EXPECT_EQ(fabric.operational_count(), 0);
  EXPECT_EQ(fabric.activate_all(), 32);
  EXPECT_EQ(fabric.operational_count(), 32);
}

TEST(SimFabricTest, ByteConservationClosesOnACleanRun) {
  gs::FabricConfig config;
  config.olt_count = 2;
  config.onus_per_olt = 8;
  config.seed = 1234;
  gs::PonFabric fabric(config);
  ASSERT_EQ(fabric.activate_all(), 16);

  fabric.start_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(250));
  fabric.stop_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(250));  // DBA drains the queues

  const gs::FabricStats& stats = fabric.stats();
  EXPECT_GT(stats.arrivals, 0u);
  EXPECT_GT(stats.delivered_frames, 0u);
  EXPECT_GT(stats.dba_cycles, 0u);

  // No feeder faults and generous queues: nothing may be lost. Every byte
  // enqueued was either delivered to an OLT sink or is still queued.
  std::uint64_t queued_bytes = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t odn_drops = 0;
  for (int s = 0; s < fabric.site_count(); ++s) {
    for (int i = 0; i < fabric.onus_per_site(); ++i) {
      queued_bytes += fabric.onu(s, i).upstream_queue_bytes();
      frames_sent += fabric.onu(s, i).stats().data_frames_sent;
    }
    odn_drops += fabric.odn(s).stats().dropped_frames;
  }
  EXPECT_EQ(odn_drops, 0u);
  EXPECT_EQ(stats.generated_bytes, stats.delivered_bytes + queued_bytes);
  EXPECT_EQ(frames_sent, stats.delivered_frames);
  EXPECT_EQ(stats.arrivals, stats.queue_drops + stats.delivered_frames +
                                [&fabric] {
                                  std::uint64_t frames = 0;
                                  for (int s = 0; s < fabric.site_count(); ++s) {
                                    for (int i = 0; i < fabric.onus_per_site(); ++i) {
                                      frames += fabric.onu(s, i).upstream_queue_size();
                                    }
                                  }
                                  return frames;
                                }());
}

TEST(SimFabricTest, SameSeedProducesIdenticalDeliveryDigest) {
  gs::FabricConfig config;
  config.olt_count = 3;
  config.onus_per_olt = 6;
  config.seed = 77;

  const auto run = [](const gs::FabricConfig& cfg) {
    gs::PonFabric fabric(cfg);
    (void)fabric.activate_all();
    fabric.start_traffic();
    (void)fabric.run_for(gc::SimTime::from_millis(300));
    return std::pair{fabric.delivered_digest(), fabric.stats().delivered_bytes};
  };

  const auto a = run(config);
  const auto b = run(config);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);

  gs::FabricConfig other = config;
  other.seed = 78;
  EXPECT_NE(run(other).first, a.first)
      << "different seeds must produce different delivery streams";
}

// The delivery digest folds (onu_id, length, CRC-32) per delivery, not
// every payload byte; it must still tell apart the changes a broken data
// path makes: reordering, a flipped bit, a wrong ONU, a grown payload.
TEST(SimFabricTest, DeliveryFoldTellsStreamsApart) {
  const gc::Bytes a(300, 0x5a);
  gc::Bytes b(180, 0x11);
  b[17] = 0x42;
  const auto digest = [](const std::vector<std::pair<std::uint16_t, gc::Bytes>>& stream) {
    std::uint64_t h = 14695981039346656037ull;
    for (const auto& [onu_id, payload] : stream) h = gs::fold_delivery(h, onu_id, payload);
    return h;
  };
  const std::uint64_t base = digest({{3, a}, {4, b}});

  EXPECT_NE(digest({{4, b}, {3, a}}), base) << "swapped deliveries";
  gc::Bytes flipped = b;
  flipped[99] ^= 0x08;
  EXPECT_NE(digest({{3, a}, {4, flipped}}), base) << "one payload bit flipped";
  EXPECT_NE(digest({{3, a}, {5, b}}), base) << "onu_id changed";
  gc::Bytes longer = b;
  longer.push_back(0);
  EXPECT_NE(digest({{3, a}, {4, longer}}), base) << "one zero byte appended";
  EXPECT_EQ(digest({{3, a}, {4, b}}), base);
}

// Every traffic, DBA, and discovery event of a staggered-activation run
// must keep its order, so the delivered payload stream stays byte for byte
// the one recorded when two scheduler backends still cross-checked it.
TEST(SimFabricTest, StaggeredActivationRunMatchesPinnedDigest) {
  gs::FabricConfig config;
  config.olt_count = 3;
  config.onus_per_olt = 6;
  config.seed = 4242;
  gs::PonFabric fabric(config);
  for (int site = 0; site < fabric.site_count(); ++site) {
    fabric.schedule_discovery(gc::SimTime::from_millis(site + 1), site);
  }
  (void)fabric.run_for(gc::SimTime::from_millis(10));
  fabric.start_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(300));

  EXPECT_EQ(fabric.delivered_digest(), 0x8579a2f1e3844000ull);
  EXPECT_EQ(fabric.stats().delivered_frames, 1050u);
  EXPECT_EQ(fabric.stats().arrivals, 1050u);
  EXPECT_EQ(fabric.stats().dba_cycles, 7200u);
}

TEST(SimFabricTest, SteadyStateDataPathReusesArenaBuffers) {
  gs::FabricConfig config;
  config.olt_count = 1;
  config.onus_per_olt = 8;
  gs::PonFabric fabric(config);
  ASSERT_EQ(fabric.activate_all(), 8);
  fabric.start_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(500));

  const gp::FrameArena::Stats& arena = fabric.arena(0).stats();
  EXPECT_GT(arena.acquires, 0u);
  EXPECT_GT(arena.recycles, 0u);
  // After warm-up the generator draws recycled delivery buffers: the heap
  // only sees the initial population of each size class.
  EXPECT_GT(arena.reuse_ratio(), 0.5)
      << arena.fresh_allocations << " fresh of " << arena.acquires;
  EXPECT_GE(arena.high_water_bytes, arena.pooled_bytes);
}

TEST(SimFabricTest, FeederCutStallsOnlyTheCutSite) {
  gs::FabricConfig config;
  config.olt_count = 2;
  config.onus_per_olt = 8;
  gs::PonFabric fabric(config);
  ASSERT_EQ(fabric.activate_all(), 16);
  fabric.start_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(100));

  const std::uint64_t cut_before = fabric.odn(0).stats().upstream_frames;
  const std::uint64_t peer_before = fabric.odn(1).stats().upstream_frames;
  fabric.set_feeder(0, false);
  (void)fabric.run_for(gc::SimTime::from_millis(100));
  EXPECT_EQ(fabric.odn(0).stats().upstream_frames, cut_before);
  EXPECT_GT(fabric.odn(0).stats().dropped_frames, 0u);
  EXPECT_GT(fabric.odn(1).stats().upstream_frames, peer_before);

  fabric.set_feeder(0, true);
  (void)fabric.run_for(gc::SimTime::from_millis(100));
  EXPECT_GT(fabric.odn(0).stats().upstream_frames, cut_before);
}

TEST(SimFabricTest, ChurnHooksDetachAndReattach) {
  gs::FabricConfig config;
  config.olt_count = 1;
  config.onus_per_olt = 4;
  gs::PonFabric fabric(config);
  ASSERT_EQ(fabric.activate_all(), 4);

  EXPECT_TRUE(fabric.odn(0).attached(&fabric.onu(0, 2)));
  fabric.detach_onu(0, 2);
  EXPECT_FALSE(fabric.odn(0).attached(&fabric.onu(0, 2)));
  fabric.attach_onu(0, 2);
  fabric.attach_onu(0, 2);  // idempotent
  EXPECT_TRUE(fabric.odn(0).attached(&fabric.onu(0, 2)));
}

TEST(SimFabricTest, StopDbaFreezesDraining) {
  gs::FabricConfig config;
  config.olt_count = 1;
  config.onus_per_olt = 4;
  gs::PonFabric fabric(config);
  ASSERT_EQ(fabric.activate_all(), 4);
  fabric.start_traffic();
  (void)fabric.run_for(gc::SimTime::from_millis(100));
  fabric.stop_dba();
  (void)fabric.run_for(gc::SimTime::from_millis(10));  // in-flight cycle expires

  const std::uint64_t delivered = fabric.stats().delivered_frames;
  const std::uint64_t cycles = fabric.stats().dba_cycles;
  (void)fabric.run_for(gc::SimTime::from_millis(100));
  EXPECT_EQ(fabric.stats().dba_cycles, cycles);
  EXPECT_EQ(fabric.stats().delivered_frames, delivered);
  EXPECT_GT(fabric.stats().arrivals, 0u) << "generators keep offering traffic";
}

}  // namespace
