// Ablation study over DESIGN.md's design choices:
//  (1) deployment-pipeline gates — run a corpus of good/bad images through
//      the pipeline with each gate individually removed, showing which
//      attacks each gate uniquely stops (defence-in-depth map);
//  (2) isolation tier — hard VM vs soft container: escape blast radius
//      and co-residency exposure vs provisioning density.
#include <cstdio>

#include "bench_util.hpp"

#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/middleware/vmm.hpp"

namespace gc = genio::common;
namespace as = genio::appsec;
namespace mw = genio::middleware;
namespace core = genio::core;

namespace {

struct CorpusEntry {
  const char* name;
  as::ContainerImage image;
  bool privileged_request;
  const char* expected_gate;  // which gate should stop it ("" = should pass)
};

std::vector<CorpusEntry> make_corpus() {
  std::vector<CorpusEntry> corpus;

  as::ContainerImage clean("registry.genio.io/t/clean", "1.0.0");
  clean.add_layer({{"/app/main.py", gc::to_bytes("import os\nprint('ok')\n")}});
  corpus.push_back({"clean app", clean, false, ""});

  as::ContainerImage sqli("registry.genio.io/t/sqli", "1.0.0");
  sqli.add_layer({{"/app/db.py",
                   gc::to_bytes("c.execute(\"SELECT * FROM t WHERE id=\" + x)\n")}});
  corpus.push_back({"SQL injection (T7)", sqli, false, "sast"});

  as::ContainerImage leaky("registry.genio.io/t/leaky", "1.0.0");
  leaky.add_layer({{"/app/.env", gc::to_bytes("API_KEY=AKIA1234567890EXAMPLE\n")}});
  corpus.push_back({"embedded credential", leaky, false, "secrets"});

  as::ContainerImage miner("registry.genio.io/t/miner", "1.0.0");
  miner.add_layer({{"/bin/run.sh",
                    gc::to_bytes("/tmp/xmrig -o stratum+tcp://pool:3333 randomx\n")}});
  corpus.push_back({"cryptominer (T8)", miner, false, "malware"});

  as::ContainerImage vulndep("registry.genio.io/t/vulndep", "1.0.0");
  vulndep.add_layer({{"/app/main.py", gc::to_bytes("import flask\n")}});
  vulndep.add_package({"log4j-like", gc::Version(2, 14, 0), "maven"});
  corpus.push_back({"critical vulnerable dependency", vulndep, false, "sca"});

  as::ContainerImage escaper("registry.genio.io/t/escaper", "1.0.0");
  escaper.add_layer({{"/app/main.py", gc::to_bytes("print('looks clean')\n")}});
  corpus.push_back({"privileged request (T8)", escaper, true, "admission"});

  return corpus;
}

void seed_critical_cve(genio::vuln::CveDatabase& db) {
  genio::vuln::CveRecord record;
  record.id = "CVE-2021-44228";
  record.package = "log4j-like";
  record.affected = gc::VersionRange::parse("<2.15.0").value();
  record.cvss =
      genio::vuln::CvssV3::parse("AV:N/AC:L/PR:N/UI:N/S:C/C:H/I:H/A:H").value();
  db.upsert(std::move(record));
}

}  // namespace

int main() {
  std::printf("=== ablation: pipeline gates and isolation tiers ===\n\n");

  // ---------------------------------------------------------- gate ablation
  const char* kConfigs[] = {"all gates", "-sca",     "-sast", "-secrets",
                            "-malware",  "-admission"};
  gc::Table table({"image \\ pipeline", "all gates", "-sca", "-sast", "-secrets",
                   "-malware", "-admission"});

  bool defense_in_depth_ok = true;
  for (auto& entry : make_corpus()) {
    std::vector<std::string> row{entry.name};
    for (const char* variant : kConfigs) {
      core::PlatformConfig config;
      config.sca_gate = std::string(variant) != "-sca";
      config.sast_gate = std::string(variant) != "-sast";
      config.secret_gate = std::string(variant) != "-secrets";
      config.malware_gate = std::string(variant) != "-malware";
      config.hardened_admission = std::string(variant) != "-admission";
      core::GenioPlatform platform(config);
      seed_critical_cve(platform.cve_db());
      auto publisher = genio::crypto::SigningKey::generate(platform.rng().bytes(32), 4);
      (void)platform.register_tenant("t", publisher.public_key());
      as::ContainerImage image = entry.image;
      (void)platform.registry().push_signed(std::move(image), "t", publisher);

      core::DeploymentPipeline pipeline(&platform);
      const auto report = pipeline.deploy({.tenant = "t",
                                           .image_reference = entry.image.reference(),
                                           .app_name = "app",
                                           .privileged = entry.privileged_request});
      row.push_back(report.deployed ? "DEPLOYED" : report.blocked_by());

      // The expected gate must catch it under "all gates"; removing that
      // gate (and only that gate) lets this image through.
      const bool removed_my_gate =
          std::string(variant) == "-" + std::string(entry.expected_gate);
      if (std::string(variant) == "all gates") {
        const bool ok = std::string(entry.expected_gate).empty()
                            ? report.deployed
                            : report.blocked_by() == entry.expected_gate;
        defense_in_depth_ok &= ok;
      } else if (removed_my_gate) {
        defense_in_depth_ok &= report.deployed;
      }
    }
    table.add_row(std::move(row));
  }
  std::printf("%s\n", table.render().c_str());
  genio::bench::Gate gate({genio::bench::kVerdict});
  gate.check(defense_in_depth_ok,
             "single-point-of-failure check: each bad image is caught by exactly "
             "its gate, and sails through when that gate is removed");
  std::printf("(each gate is load-bearing; none is redundant)\n\n");

  // --------------------------------------------------------- isolation tier
  gc::Table tiers({"tier", "tenants/VM", "escape blast radius",
                   "co-residents exposed", "VMs for 12 tenants"});
  {
    // Hard: one VM per tenant.
    mw::VmManager vmm(gc::Version(7, 4, 0));
    std::string last_ct;
    for (int i = 0; i < 12; ++i) {
      const auto vm = vmm.create_vm("tenant-" + std::to_string(i), {2.0, 4096}).value();
      last_ct = vmm.create_container("tenant-" + std::to_string(i), vm, true, {}).value();
    }
    const auto escape = vmm.attempt_container_escape(last_ct);
    tiers.add_row({"hard (VM per tenant)", "1",
                   escape.succeeded ? escape.blast_radius : "none",
                   std::to_string(vmm.co_resident_tenants("tenant-11").size()), "12"});
  }
  {
    // Soft: 4 tenants per shared VM.
    mw::VmManager vmm(gc::Version(7, 4, 0));
    std::string last_ct;
    for (int vm_index = 0; vm_index < 3; ++vm_index) {
      const auto vm = vmm.create_vm("shared-" + std::to_string(vm_index), {8.0, 16384})
                          .value();
      for (int t = 0; t < 4; ++t) {
        const int tenant = vm_index * 4 + t;
        last_ct = vmm.create_container("tenant-" + std::to_string(tenant), vm,
                                       /*privileged=*/true, {})
                      .value();
      }
    }
    const auto escape = vmm.attempt_container_escape(last_ct);
    tiers.add_row({"soft (4 tenants/VM)", "4",
                   escape.succeeded ? escape.blast_radius : "none",
                   std::to_string(vmm.co_resident_tenants("tenant-11").size()), "3"});
  }
  std::printf("%s\n", tiers.render().c_str());
  std::printf("trade-off: hard isolation bounds a privileged escape to the tenant's "
              "own VM (0 co-residents) at 4x the VM count; soft isolation packs 4x "
              "denser but a breakout reaches 3 neighbors\n");
  return gate.exit_code();
}
