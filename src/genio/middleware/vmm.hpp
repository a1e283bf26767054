// Proxmox-style VM manager: hard isolation (dedicated VMs under the
// KVM-like hypervisor) vs soft isolation (containers in shared VMs with
// namespaces) — the two tenancy tiers the GENIO architecture offers.
// Models the escape surfaces the T8 scenarios probe: container escape via
// privileged/CAP_SYS_ADMIN workloads, VM escape via an unpatched
// hypervisor.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "genio/common/result.hpp"
#include "genio/common/version.hpp"

namespace genio::middleware {

enum class IsolationMode { kHardVm, kSoftContainer };
std::string to_string(IsolationMode mode);

struct VmSpec {
  double cpu_cores = 1.0;
  int mem_mb = 1024;
};

struct Vm {
  std::string id;
  std::string tenant;
  VmSpec spec;
  bool running = false;
};

struct ContainerInstance {
  std::string id;
  std::string tenant;
  std::string vm_id;      // the shared VM hosting it
  bool privileged = false;
  std::set<std::string> capabilities;
};

struct EscapeAttempt {
  bool succeeded = false;
  std::string blast_radius;  // "none", "vm", "host"
  std::string detail;
};

class VmManager {
 public:
  explicit VmManager(common::Version hypervisor_version)
      : hypervisor_version_(hypervisor_version) {}

  // -- lifecycle ------------------------------------------------------------
  common::Result<std::string> create_vm(const std::string& tenant, VmSpec spec);
  common::Status destroy_vm(const std::string& id);
  common::Result<std::string> create_container(const std::string& tenant,
                                               const std::string& vm_id,
                                               bool privileged,
                                               std::set<std::string> capabilities);

  const std::map<std::string, ContainerInstance>& containers() const {
    return containers_;
  }
  common::Version hypervisor_version() const { return hypervisor_version_; }
  void patch_hypervisor(common::Version version) { hypervisor_version_ = version; }

  // -- escape surfaces (T8) ---------------------------------------------------
  /// A container breaking out of its namespaces: succeeds iff it is
  /// privileged or holds CAP_SYS_ADMIN. Blast radius = its (shared) VM.
  EscapeAttempt attempt_container_escape(const std::string& container_id) const;

  /// A VM breaking out to the host: succeeds iff the hypervisor is older
  /// than `fixed_in` (the patched version for the known escape CVE).
  EscapeAttempt attempt_vm_escape(const std::string& vm_id,
                                  const common::Version& fixed_in) const;

  /// Tenants co-resident with `tenant` on the same VM (soft-isolation
  /// exposure set; empty under hard isolation).
  std::set<std::string> co_resident_tenants(const std::string& tenant) const;

 private:
  common::Version hypervisor_version_;
  std::map<std::string, Vm> vms_;
  std::map<std::string, ContainerInstance> containers_;
  int next_id_ = 1;
};

}  // namespace genio::middleware
