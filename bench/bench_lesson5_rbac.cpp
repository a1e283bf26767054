// E-L5 — Lesson 5: "Hardening network management software is
// straightforward ... In contrast, RBAC for orchestration platforms is
// challenging ... designers must integrate multiple checker tools."
// Quantifies the asymmetry: the SDN capability surface vs the Kubernetes
// RBAC permission lattice, and the per-tool catalog coverage that forces
// GENIO to run several checkers.
#include <cstdio>

#include "bench_util.hpp"

#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/middleware/checkers.hpp"
#include "genio/middleware/rbac.hpp"
#include "genio/middleware/sdn.hpp"

namespace gc = genio::common;
namespace mw = genio::middleware;

int main() {
  std::printf("=== E-L5: SDN lockdown vs orchestrator RBAC complexity ===\n\n");

  // --- SDN side: small, well-defined capability surface ----------------------
  const auto insecure_onos = mw::make_insecure_onos();
  const auto hardened_onos = mw::make_hardened_onos();
  gc::Table sdn({"controller posture", "accounts", "capability grants",
                 "risky capabilities reachable"});
  auto risky_reachable = [](const mw::SdnController& controller) {
    int count = 0;
    for (const auto& [name, account] : controller.accounts()) {
      for (const auto capability :
           {mw::SdnCapability::kShellAccess, mw::SdnCapability::kDebugEndpoints,
            mw::SdnCapability::kRawLogRetrieval}) {
        count += account.capabilities.contains(capability) ? 1 : 0;
      }
    }
    return count;
  };
  sdn.add_row({"ONOS as shipped", std::to_string(insecure_onos.accounts().size()),
               std::to_string(insecure_onos.grant_count()),
               std::to_string(risky_reachable(insecure_onos))});
  sdn.add_row({"ONOS hardened (M10)", std::to_string(hardened_onos.accounts().size()),
               std::to_string(hardened_onos.grant_count()),
               std::to_string(risky_reachable(hardened_onos))});
  std::printf("%s\n", sdn.render().c_str());
  std::printf("SDN policy surface: %zu production capabilities out of %zu total — "
              "blocking the rest is non-disruptive\n\n",
              mw::production_capability_set().size(), mw::full_capability_set().size());

  // --- Orchestrator side: the permission lattice -----------------------------
  const std::set<std::string> subjects = {"platform-operator", "ci-deployer",
                                          "tenant-a-admin", "tenant-b-app", "sa:falco",
                                          "sa:metrics"};
  const std::set<std::string> namespaces = {"tenant-a", "tenant-b", "kube-system"};
  const std::size_t lattice = subjects.size() * namespaces.size() *
                              mw::k8s_verbs().size() * mw::k8s_resources().size();

  const auto permissive = mw::make_permissive_default_rbac();
  const auto hardened = mw::make_least_privilege_rbac();
  const auto permissive_allowed = permissive.allowed_tuple_count(
      subjects, mw::k8s_verbs(), mw::k8s_resources(), namespaces);
  const auto hardened_allowed = hardened.allowed_tuple_count(
      subjects, mw::k8s_verbs(), mw::k8s_resources(), namespaces);

  gc::Table rbac({"RBAC posture", "decision lattice", "allowed tuples",
                  "fraction allowed"});
  rbac.add_row({"defaults (permissive)", std::to_string(lattice),
                std::to_string(permissive_allowed),
                gc::format_double(100.0 * permissive_allowed / lattice, 1) + "%"});
  rbac.add_row({"least privilege (M10)", std::to_string(lattice),
                std::to_string(hardened_allowed),
                gc::format_double(100.0 * hardened_allowed / lattice, 1) + "%"});
  std::printf("%s\n", rbac.render().c_str());
  std::printf("the operator must reason about %zu (subject,verb,resource,namespace) "
              "tuples vs %zu SDN grants — a factor of %.0fx\n\n",
              lattice, hardened_onos.grant_count(),
              static_cast<double>(lattice) /
                  static_cast<double>(hardened_onos.grant_count()));

  // --- Checker coverage: why multiple tools -----------------------------------
  const auto kube_bench = mw::make_kube_bench();
  const auto kubescape = mw::make_kubescape();
  const auto kubesec = mw::make_kubesec();
  gc::Table tools({"tool set", "catalog coverage"});
  tools.add_row({"kube-bench alone",
                 gc::format_double(100.0 * mw::catalog_coverage({&kube_bench}), 0) + "%"});
  tools.add_row({"kubescape alone",
                 gc::format_double(100.0 * mw::catalog_coverage({&kubescape}), 0) + "%"});
  tools.add_row({"kubesec alone",
                 gc::format_double(100.0 * mw::catalog_coverage({&kubesec}), 0) + "%"});
  tools.add_row(
      {"all three (GENIO)",
       gc::format_double(100.0 * mw::catalog_coverage({&kube_bench, &kubescape, &kubesec}),
                         0) +
           "%"});
  std::printf("%s\n", tools.render().c_str());

  genio::bench::Gate gate({genio::bench::kVerdict});
  gate.check(hardened_allowed * 2 < permissive_allowed &&
                 mw::catalog_coverage({&kube_bench}) < 1.0 &&
                 mw::catalog_coverage({&kube_bench, &kubescape, &kubesec}) == 1.0,
             "shape check: least-privilege shrinks the allowed set; no single tool "
             "covers the catalog; the union does");
  return gate.exit_code();
}
