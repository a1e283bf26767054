// Role-Based Access Control engine (M10) in the Kubernetes style: roles
// grant (verb, resource) pairs per namespace, bindings attach roles to
// subjects. The T5 scenarios contrast the permissive defaults shipped by
// feature-rich middleware with least-privilege policies, and the Lesson 5
// bench quantifies the size of the permission lattice an operator must
// reason about.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "genio/common/result.hpp"

namespace genio::middleware {

using common::Status;

/// One grant: verbs over resources, optionally namespace-scoped.
struct PolicyRule {
  std::set<std::string> verbs;      // "get", "list", "create", "delete", "*"
  std::set<std::string> resources;  // "pods", "secrets", "nodes", "*"

  bool allows(const std::string& verb, const std::string& resource) const;
};

struct Role {
  std::string name;
  std::vector<PolicyRule> rules;
  /// Namespaces the role is valid in; empty = cluster-wide.
  std::set<std::string> namespaces;
};

struct RoleBinding {
  std::string role;
  std::set<std::string> subjects;  // users or service accounts
};

struct AccessDecision {
  bool allowed = false;
  std::string matched_role;  // which role granted it (audit trail)
};

class RbacEngine {
 public:
  void add_role(Role role);
  void add_binding(RoleBinding binding);
  bool remove_role(const std::string& name);

  AccessDecision authorize(const std::string& subject, const std::string& verb,
                           const std::string& resource,
                           const std::string& ns = "") const;

  /// All (verb, resource) pairs a subject holds in `ns` — the audit view.
  std::set<std::pair<std::string, std::string>> effective_permissions(
      const std::string& subject, const std::string& ns,
      const std::set<std::string>& all_verbs,
      const std::set<std::string>& all_resources) const;

  /// Size of the decision lattice: subjects x verbs x resources x
  /// namespaces that evaluate to "allow". The Lesson 5 complexity metric.
  std::size_t allowed_tuple_count(const std::set<std::string>& subjects,
                                  const std::set<std::string>& all_verbs,
                                  const std::set<std::string>& all_resources,
                                  const std::set<std::string>& namespaces) const;

 private:
  std::map<std::string, Role> roles_;
  std::vector<RoleBinding> bindings_;
};

/// Kubernetes verbs/resources used across GENIO (for audits and benches).
const std::set<std::string>& k8s_verbs();
const std::set<std::string>& k8s_resources();

/// The out-of-the-box permissive setup (T5 "insecure defaults"): a broad
/// admin role bound widely, service accounts with wildcard reads.
RbacEngine make_permissive_default_rbac();

/// The hardened least-privilege policy GENIO converged on (M10).
RbacEngine make_least_privilege_rbac();

}  // namespace genio::middleware
