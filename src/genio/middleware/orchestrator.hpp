// Mini Kubernetes-style orchestrator: the cluster model (nodes, pods,
// namespaces), an authenticating/authorizing API path (T5 raw material:
// anonymous access, permissive RBAC), an admission controller enforcing
// workload security policies (M10/M13), and a capacity-based scheduler.
// Exposes a component inventory with exact versions for KBOM (M12).
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "genio/common/version.hpp"
#include "genio/middleware/rbac.hpp"

namespace genio::middleware {

using common::Result;
using common::Version;

struct ResourceQuantity {
  double cpu_cores = 0.0;
  int mem_mb = 0;

  bool fits_in(const ResourceQuantity& available) const {
    return cpu_cores <= available.cpu_cores && mem_mb <= available.mem_mb;
  }
};

struct ContainerSpec {
  std::string image;  // "registry.genio.io/tenant-a/app:1.2.0"
  bool privileged = false;
  bool run_as_root = true;  // the upstream default — admission can reject
  std::set<std::string> capabilities;      // "CAP_SYS_ADMIN", "CAP_NET_RAW", ...
  std::vector<std::string> host_mounts;    // "/", "/var/run/docker.sock", ...
  bool host_network = false;
  std::optional<ResourceQuantity> limits;  // absent = unbounded (T8 resource abuse)
};

struct PodSpec {
  std::string name;
  std::string ns;  // namespace == tenant in GENIO
  ContainerSpec container;
  std::map<std::string, std::string> labels;
};

enum class PodPhase { kPending, kRunning, kFailed };

struct Pod {
  PodSpec spec;
  std::string node;
  PodPhase phase = PodPhase::kPending;
  /// True once the pod's capacity was handed back (node crash or delete);
  /// guards against double-releasing on the other path.
  bool allocation_released = false;
};

/// Node liveness as the chaos engine drives it: crashed nodes lose their
/// pods, stalled (kubelet-hung) nodes keep running pods but accept no new
/// ones. Only kReady nodes are schedulable.
enum class NodeHealth { kReady, kCrashed, kStalled };

std::string to_string(NodeHealth health);

struct Node {
  std::string name;
  ResourceQuantity capacity;
  ResourceQuantity allocated;
  Version kubelet_version{1, 20, 3};
  NodeHealth health = NodeHealth::kReady;

  ResourceQuantity free() const {
    return {capacity.cpu_cores - allocated.cpu_cores, capacity.mem_mb - allocated.mem_mb};
  }
  bool schedulable() const { return health == NodeHealth::kReady; }
};

/// Pod-security admission policies (NSA hardening guidance, M11).
struct AdmissionPolicy {
  bool deny_privileged = true;
  bool deny_host_mounts = true;
  bool deny_host_network = true;
  bool deny_dangerous_capabilities = true;  // CAP_SYS_ADMIN, CAP_SYS_PTRACE, ...
  bool require_resource_limits = true;
  bool deny_run_as_root = false;  // strictest tier; often phased in later
  /// If non-empty, images must come from one of these registry prefixes.
  std::vector<std::string> allowed_registries;

  /// Everything wrong with the spec (empty = admitted).
  std::vector<std::string> violations(const PodSpec& spec) const;
};

/// Wide-open admission (insecure default posture).
AdmissionPolicy make_permissive_admission();
/// GENIO's hardened admission policy.
AdmissionPolicy make_hardened_admission();

/// What one reschedule_failed() pass did: pods recovered onto healthy
/// nodes, and pods that fit NOWHERE with the reason — so the supervisor
/// (and an operator reading a drill transcript) sees stranded workloads
/// instead of silently losing them.
struct RescheduleReport {
  std::size_t recovered = 0;
  struct StrandedPod {
    std::string pod_ref;  // "tenant-a/app"
    std::string reason;   // "no schedulable node", "no node with capacity..."
  };
  std::vector<StrandedPod> stranded;

  std::size_t still_failed() const { return stranded.size(); }
  bool fully_recovered() const { return stranded.empty(); }
  /// "2 recovered, 1 stranded (tenant-a/app: no schedulable node)".
  std::string summary() const;
};

struct AuditEntry {
  std::string subject;
  std::string verb;
  std::string resource;
  std::string ns;
  bool allowed = false;
  std::string detail;
};

/// A control-plane or node component with its exact version (KBOM input).
struct ClusterComponent {
  std::string name;
  Version version;
  std::string kind;  // "control-plane" | "node" | "addon"
};

class Cluster {
 public:
  struct Config {
    std::string name = "genio-edge";
    bool anonymous_auth = false;   // insecure default when true (T5)
    bool audit_logging = true;
    bool etcd_encryption = false;  // secrets at rest
    Version control_plane_version{1, 20, 3};
  };

  Cluster(Config config, RbacEngine rbac, AdmissionPolicy admission);

  // -- infrastructure ---------------------------------------------------------
  void add_node(const std::string& name, ResourceQuantity capacity);
  const std::vector<Node>& nodes() const { return nodes_; }
  const Node* find_node(const std::string& name) const;

  /// Chaos hook: flip a node's liveness. Crashing a node marks every pod
  /// on it kFailed and releases their capacity immediately (a dead kubelet
  /// holds nothing); recovery does NOT resurrect pods — that is
  /// reschedule_failed()'s job.
  void set_node_health(const std::string& name, NodeHealth health);

  /// Resilience wiring: place every kFailed pod back onto a schedulable
  /// node (admission already passed at creation). Pods that fit nowhere
  /// stay kFailed and are surfaced in the report with the reason.
  RescheduleReport reschedule_failed();

  /// Pods currently kFailed (awaiting reschedule or lost for good).
  std::size_t failed_pod_count() const;

  // -- API path ---------------------------------------------------------------
  /// Authorize `subject` for an API action. Subject "" models an
  /// unauthenticated caller: allowed only when anonymous_auth is on.
  common::Status authorize(const std::string& subject, const std::string& verb,
                           const std::string& resource, const std::string& ns);

  /// Full pod-creation path: authz -> admission -> schedule.
  Result<std::string> create_pod(const std::string& subject, PodSpec spec);
  common::Status delete_pod(const std::string& subject, const std::string& ns,
                            const std::string& name);
  /// "kubectl exec" — the lateral-movement primitive T5 abuses.
  common::Status exec_in_pod(const std::string& subject, const std::string& ns,
                             const std::string& name);
  common::Status read_secret(const std::string& subject, const std::string& ns);

  const std::vector<Pod>& pods() const { return pods_; }
  const Pod* find_pod(const std::string& ns, const std::string& name) const;
  const std::vector<AuditEntry>& audit_log() const { return audit_; }
  const Config& config() const { return config_; }
  Config& config_mutable() { return config_; }
  const RbacEngine& rbac() const { return rbac_; }
  RbacEngine& rbac_mutable() { return rbac_; }
  const AdmissionPolicy& admission() const { return admission_; }

  /// Exact-version component inventory (KBOM input, M12).
  std::vector<ClusterComponent> components() const;

 private:
  void audit(const std::string& subject, const std::string& verb,
             const std::string& resource, const std::string& ns, bool allowed,
             std::string detail);
  Node* schedule(const ResourceQuantity& required);

  Config config_;
  RbacEngine rbac_;
  AdmissionPolicy admission_;
  std::vector<Node> nodes_;
  std::vector<Pod> pods_;
  std::vector<AuditEntry> audit_;
};

}  // namespace genio::middleware
