// E-FIG1 — reproduces Figure 1: the GENIO deployment across cloud, edge,
// and far-edge layers. Builds the full simulated deployment and reports
// per-layer node counts, compute capacity, and the end-to-end service
// latency tiers that motivate the placement story (far-edge < edge <
// cloud for latency; the reverse for capacity).
#include <cstdio>

#include "bench_util.hpp"

#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/core/platform.hpp"

namespace gc = genio::common;
namespace core = genio::core;

namespace {

// One-way latency model for each layer, from the deployment geometry:
// far-edge = ONU on premises (fiber to the OLT), edge = OLT in the central
// office, cloud = regional datacenter over the WAN.
struct LayerProfile {
  const char* layer;
  const char* hardware;
  int nodes;
  double cpu_cores_per_node;
  int mem_mb_per_node;
  gc::SimTime one_way_latency;
};

}  // namespace

int main() {
  std::printf("=== E-FIG1: GENIO deployment across cloud / edge / far-edge ===\n\n");

  core::GenioPlatform platform(core::PlatformConfig{.onu_count = 8});
  (void)platform.boot_host();
  const int ready = platform.activate_pon();

  const LayerProfile profiles[] = {
      {"far-edge", "ONU + low-end compute", 8, 2.0, 2048,
       gc::SimTime::from_micros(50)},
      {"edge", "OLT (x86 COTS) in central office",
       static_cast<int>(platform.cluster().nodes().size()), 16.0, 32768,
       platform.odn().propagation()},
      {"cloud", "regional datacenter", 64, 64.0, 262144, gc::SimTime::from_millis(18)},
  };

  gc::Table table({"layer", "hardware", "nodes", "cpu/node", "mem/node (MB)",
                   "one-way latency", "RTT service latency"});
  for (const auto& profile : profiles) {
    // Service latency = 2x propagation + a layer-local processing budget.
    const gc::SimTime processing = gc::SimTime::from_micros(200);
    const gc::SimTime rtt(2 * profile.one_way_latency.nanos() + processing.nanos());
    table.add_row({profile.layer, profile.hardware, std::to_string(profile.nodes),
                   gc::format_double(profile.cpu_cores_per_node, 1),
                   std::to_string(profile.mem_mb_per_node),
                   profile.one_way_latency.to_string(), rtt.to_string()});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("PON tree: %d/%d ONUs operational+authenticated, "
              "%zu downstream frames during activation\n",
              ready, platform.config().onu_count,
              static_cast<std::size_t>(platform.odn().stats().downstream_frames));

  // The placement rule the figure implies: latency-critical at the far
  // edge, latency-sensitive at the edge, batch/heavy in the cloud.
  gc::Table placement({"application class", "latency budget", "placed at"});
  placement.add_row({"industrial control loop", "< 1 ms", "far-edge (ONU)"});
  placement.add_row({"real-time video analytics", "< 5 ms", "edge (OLT)"});
  placement.add_row({"ML training / archival", "> 100 ms", "cloud"});
  std::printf("\n%s", placement.render().c_str());

  std::printf("\n");
  genio::bench::Gate gate({genio::bench::kVerdict});
  gate.check(profiles[0].one_way_latency < profiles[1].one_way_latency &&
                 profiles[1].one_way_latency < profiles[2].one_way_latency,
             "shape check: far-edge RTT < edge RTT < cloud RTT");
  return gate.exit_code();
}
