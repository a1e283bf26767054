// E-FIG2 — reproduces Figure 2: the GENIO architecture. Instantiates every
// component the figure shows (ONL host with TPM/boot chain, SDN
// controllers, VM cluster, Kubernetes-like orchestrator, tenant apps) and
// reports the component inventory plus the measured throughput of the
// secure deployment pipeline across it.
#include <cstdio>

#include "bench_util.hpp"

#include "genio/common/table.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/core/platform.hpp"

namespace gc = genio::common;
namespace core = genio::core;
namespace as = genio::appsec;

int main() {
  std::printf("=== E-FIG2: GENIO architecture inventory + pipeline throughput ===\n\n");

  core::GenioPlatform platform(core::PlatformConfig{});
  (void)platform.boot_host();
  (void)platform.activate_pon();

  gc::Table inventory({"layer", "component", "detail"});
  inventory.add_row({"infrastructure", "ONL host",
                     platform.host().distro() + ", kernel " +
                         platform.host().kernel().version.to_string()});
  inventory.add_row({"infrastructure", "TPM", "24 PCRs, measured boot active"});
  inventory.add_row({"infrastructure", "PON tree",
                     std::to_string(platform.onus().size()) + " ONUs on OLT '" +
                         platform.olt().id() + "'"});
  inventory.add_row({"middleware", "SDN controller (ONOS-like)",
                     std::to_string(platform.onos().accounts().size()) +
                         " service accounts, " +
                         std::to_string(platform.onos().grant_count()) + " grants"});
  inventory.add_row({"middleware", "SDN controller (VOLTHA-like)",
                     std::to_string(platform.voltha().accounts().size()) +
                         " service accounts"});
  inventory.add_row({"middleware", "VM manager (Proxmox-like)",
                     "hypervisor " + platform.vmm().hypervisor_version().to_string()});
  inventory.add_row({"middleware", "orchestrator (K8s-like)",
                     std::to_string(platform.cluster().nodes().size()) + " nodes, v" +
                         platform.cluster().config().control_plane_version.to_string()});
  for (const auto& component : platform.cluster().components()) {
    inventory.add_row({"middleware", component.name,
                       component.version.to_string() + " (" + component.kind + ")"});
  }
  inventory.add_row({"application", "image registry",
                     std::to_string(platform.registry().references().size()) +
                         " images"});
  inventory.add_row({"application", "runtime monitor (Falco-like)",
                     std::to_string(platform.falco().rule_count()) + " rules"});
  std::printf("%s\n", inventory.render().c_str());

  // Pipeline throughput: deploy N signed tenant apps end to end.
  auto publisher = genio::crypto::SigningKey::generate(gc::to_bytes("pub"), 8);
  (void)platform.register_tenant("tenant-a", publisher.public_key());
  core::DeploymentPipeline pipeline(&platform);

  constexpr int kApps = 24;
  for (int i = 0; i < kApps; ++i) {
    as::ContainerImage image("registry.genio.io/tenant-a/app-" + std::to_string(i),
                             "1.0.0");
    image.add_layer({{"/app/main.py",
                      gc::to_bytes("import os\nport = os.getenv(\"PORT\")\n")}});
    image.add_package({"flask", gc::Version(2, 0, 1), "pypi"});
    (void)platform.registry().push_signed(std::move(image), "tenant-a", publisher);
  }

  const auto start = genio::bench::Clock::now();
  int deployed = 0;
  for (int i = 0; i < kApps; ++i) {
    const auto report = pipeline.deploy(
        {.tenant = "tenant-a",
         .image_reference = "registry.genio.io/tenant-a/app-" + std::to_string(i) +
                            ":1.0.0",
         .app_name = "app-" + std::to_string(i),
         .limits = {0.2, 128}});
    deployed += report.deployed ? 1 : 0;
  }
  const double elapsed = genio::bench::seconds_since(start);

  std::printf("secure pipeline: %d/%d apps deployed in %.3fs (%.1f deployments/s, "
              "all 7 gates active)\n",
              deployed, kApps, elapsed, deployed / elapsed);
  std::printf("cluster now runs %zu pods across %zu nodes; %zu sandbox policies "
              "installed\n",
              platform.cluster().pods().size(), platform.cluster().nodes().size(),
              platform.sandbox().policy_count());
  return deployed == kApps ? 0 : 1;
}
