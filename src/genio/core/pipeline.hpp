// The secure deployment pipeline: every application a business user
// publishes passes signature verification (registry trust), SCA (M13),
// SAST (M14), malware scanning (M16), and cluster admission (M10/M11)
// before it runs; on deployment a sandbox policy (M17) is installed and
// the workload joins the runtime-monitoring scope (M18). Gates toggle
// with the platform config so scenarios can contrast postures.
#pragma once

#include "genio/appsec/sast.hpp"
#include "genio/appsec/sca.hpp"
#include "genio/appsec/secrets.hpp"
#include "genio/appsec/yara.hpp"
#include "genio/common/thread_pool.hpp"
#include "genio/core/platform.hpp"
#include "genio/core/scan_cache.hpp"
#include "genio/resilience/policy.hpp"

namespace genio::core {

struct PipelineStage {
  std::string name;   // "signature", "sca", "sast", "malware", "admission"
  bool ran = false;   // false when the gate is disabled in config
  bool passed = true;
  std::string detail;
  // A disabled gate is SKIPPED, not passed: `passed` stays true so it does
  // not block, but consumers must not read it as coverage.
  bool skipped = false;
  // Served by a fallback (stale feed snapshot, standby controller) instead
  // of the live dependency; the result stands but with reduced assurance.
  bool degraded = false;
  // A dependency error was swallowed and the gate waved the image through
  // (legacy fail-open behavior, kept reachable for ablation benches).
  bool failed_open = false;
};

struct PipelineReport {
  std::string image;
  std::string tenant;
  std::vector<PipelineStage> stages;
  bool deployed = false;
  std::string pod_ref;  // "tenant-a/analytics"

  const PipelineStage* stage(const std::string& name) const;
  /// First failing stage name, or "" if none.
  std::string blocked_by() const;
  /// Gates that were configured off and therefore never examined the image.
  std::vector<std::string> skipped_gates() const;
  /// Gates that ran against a degraded fallback dependency.
  std::vector<std::string> degraded_gates() const;
  /// Gates that swallowed a dependency error and passed without evidence.
  std::size_t failed_open_count() const;
  /// "7/9 gates ran (skipped: signature, sca)" — operator-facing coverage.
  std::string coverage_summary() const;
};

/// Deployment-time knobs the business user provides alongside the image.
struct DeploymentRequest {
  std::string tenant;
  std::string image_reference;
  std::string app_name;
  middleware::ResourceQuantity limits{0.5, 512};
  /// Extra container settings the (possibly malicious) user asks for.
  bool privileged = false;
  std::set<std::string> capabilities;
  std::vector<std::string> host_mounts;
  /// End-to-end time budget for the admit: the pull-gate retry loop never
  /// sleeps past it (it reports kDeadlineExceeded instead of spinning
  /// through repeated outage injection). Zero = unbounded (legacy).
  common::SimTime deadline_budget{};
};

class DeploymentPipeline {
 public:
  using ScanCache = BasicScanCache<PipelineStage>;

  explicit DeploymentPipeline(GenioPlatform* platform);

  PipelineReport deploy(const DeploymentRequest& request);

  /// Re-verify an image against the current feed/rulepack state: pull,
  /// tenant and the content-addressed scan gates only — no pod is created
  /// and no sandbox policy installed, so repeated re-scans of a running
  /// workload never accumulate cluster capacity. `deployed` stays false;
  /// a clean re-scan is one whose blocked_by() is empty.
  PipelineReport rescan(const DeploymentRequest& request);

  /// SCA gate threshold: block when any reachable finding scores >= this.
  double sca_block_score = 9.0;

  const resilience::GatePolicySet& policies() const { return policies_; }

  /// The pool SAST shards an image's source files on: size 1 (inline)
  /// when scan_workers is 1.
  common::ThreadPool& scan_pool() { return pool_; }
  /// Content-addressed scan cache (capacity 0 = off).
  ScanCache& scan_cache() { return cache_; }
  const ScanCache& scan_cache() const { return cache_; }

  /// Fingerprint of the loaded rulepacks + gate configuration + block
  /// threshold; folded into every cache key so config drift invalidates.
  std::string rulepack_fingerprint() const;

 private:
  /// The shared admit prefix: pull (retried under the gate policy, capped
  /// by the request's deadline budget), tenant lookup, then the scan
  /// gates. Returns false when any stage blocked.
  bool admit_prefix(const DeploymentRequest& request, PipelineReport& report);

  /// Run the content-addressed post-pull gates (signature, SCA, SAST,
  /// secrets, malware) in order, stopping at the first blocker, and append
  /// their stages to `report`. Returns false when a gate blocked.
  bool run_scan_gates(PipelineReport& report, const appsec::RegistryEntry& entry,
                      const Tenant& tenant);

  GenioPlatform* platform_;
  appsec::SastEngine sast_;
  appsec::YaraScanner yara_;
  appsec::SecretScanner secret_scanner_;
  // Fail-closed + retry when config.resilience_policies, legacy fail-open
  // otherwise (the ablation bench contrasts the two at the same seed).
  resilience::GatePolicySet policies_;
  common::ThreadPool pool_;
  ScanCache cache_;
  std::uint64_t last_feed_revision_ = 0;  // triggers eager invalidation
};

}  // namespace genio::core
