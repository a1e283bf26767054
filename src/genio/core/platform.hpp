// GenioPlatform: the composed system — PKI, one edge site (OLT host with
// TPM/boot chain, the PON tree with its ONUs), the middleware cluster and
// SDN controllers, the application registry, and the security machinery —
// wired according to a PlatformConfig that toggles each mitigation, so
// scenarios and benches can contrast secure and insecure postures.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "genio/appsec/falco.hpp"
#include "genio/common/event_queue.hpp"
#include "genio/appsec/image.hpp"
#include "genio/appsec/sandbox.hpp"
#include "genio/hardening/auditor.hpp"
#include "genio/middleware/orchestrator.hpp"
#include "genio/middleware/sdn.hpp"
#include "genio/middleware/vmm.hpp"
#include "genio/os/boot.hpp"
#include "genio/os/fim.hpp"
#include "genio/os/host.hpp"
#include "genio/os/tpm.hpp"
#include "genio/pon/attacker.hpp"
#include "genio/pon/olt.hpp"
#include "genio/pon/onu.hpp"
#include "genio/resilience/chaos.hpp"
#include "genio/vuln/cve.hpp"
#include "genio/vuln/feeds.hpp"

namespace genio::core {

/// Which mitigations are wired in. Defaults = fully hardened GENIO.
struct PlatformConfig {
  // Infrastructure level.
  bool pon_encryption = true;        // M3
  bool node_authentication = true;   // M4
  bool secure_boot = true;           // M5
  bool measured_boot = true;         // M5
  bool fim_enabled = true;           // M7
  bool os_hardening = true;          // M1 + M2
  // Middleware level.
  bool least_privilege_rbac = true;  // M10
  bool hardened_admission = true;    // M10/M11
  bool anonymous_api = false;        // insecure default when true
  // Application level (pipeline gates).
  bool require_image_signature = true;
  bool sca_gate = true;              // M13
  bool sast_gate = true;             // M14
  bool secret_gate = true;           // M13/M14-adjacent secret scanning
  bool malware_gate = true;          // M16
  bool sandbox_enabled = true;       // M17
  bool runtime_monitoring = true;    // M18
  // Resilience layer: retries, circuit breakers and fail-closed gate
  // policies. Off = legacy behavior (faults fail open / deployments lost).
  bool resilience_policies = true;
  // Admission-scan pool: the SAST gate analyzes an image's source files
  // on it and merges their findings in file order, so reports are
  // byte-identical at every size. The other gates run on the caller.
  int scan_workers = 0;  // pool size incl. caller; 0 = min(hw cores, 8); 1 = serial
  // Content-addressed scan cache keyed by (image digest, signature scope,
  // feed revision, rulepack fingerprint); repeated admits of unchanged
  // images replay the cached gate verdicts instead of rescanning.
  std::size_t scan_cache_capacity = 128;  // LRU entries; 0 = cache off
  // On CVE feed re-ingest, diff changed packages against each cached
  // entry's manifest and drop only intersecting verdicts (the rest are
  // re-keyed to the live revision). Off = legacy whole-cache dump, which
  // sends every tenant back down the cold path at once.
  bool incremental_invalidation = true;

  int onu_count = 4;
  std::uint64_t seed = 42;
};

/// Height of a platform key that signs `signatures` messages: the smallest
/// h >= 4 (one 16-lane keygen batch) with 2^h >= 2 * signatures, so every
/// key keeps at least half its one-time leaves spare.
std::uint8_t platform_key_height(int signatures);

/// Everything known about one registered tenant (business user).
struct Tenant {
  std::string name;        // doubles as the cluster namespace
  crypto::PublicKey publisher_key;
};

class GenioPlatform {
 public:
  explicit GenioPlatform(PlatformConfig config);

  const PlatformConfig& config() const { return config_; }

  // -- shared services --------------------------------------------------------
  common::SimClock& clock() { return clock_; }
  common::Logger& logger() { return logger_; }
  common::EventBus& bus() { return bus_; }
  common::Rng& rng() { return rng_; }
  /// The platform's discrete-event queue. Everything time-driven — chaos
  /// fault edges, supervisor ticks, TDMA cycles, scenario callbacks — is
  /// an event here; advance_time() drains it.
  common::EventQueue& events() { return events_; }

  // -- PKI ---------------------------------------------------------------------
  crypto::CertificateAuthority& root_ca() { return *root_ca_; }
  crypto::TrustStore& trust_store() { return trust_; }

  // -- PON site ----------------------------------------------------------------
  pon::Odn& odn() { return *odn_; }
  pon::Olt& olt() { return *olt_; }
  std::vector<std::unique_ptr<pon::Onu>>& onus() { return onus_; }
  /// Run discovery and (per config) the M4 handshakes. Returns the number
  /// of ONUs that reached an operational, policy-compliant state. The
  /// first handshake of the platform's life, here or in
  /// reauthenticate_onu(), first builds the OLT's and every ONU's key and
  /// certificate; a platform that never authenticates never builds them.
  int activate_pon();
  /// Re-run the M4 mutual-auth handshake for one ONU (supervisor playbook
  /// after churn: the device vanished from the tree, so its session must
  /// be re-established with fresh keys, not trusted on reattach). No-op
  /// success when node_authentication is off. Builds the PON credentials
  /// if no handshake has run yet, as activate_pon() does.
  common::Status reauthenticate_onu(const std::string& serial);

  // -- OLT host ----------------------------------------------------------------
  os::Host& host() { return host_; }
  os::Tpm& tpm() { return *tpm_; }
  os::BootChain& boot_chain() { return *boot_chain_; }
  os::FileIntegrityMonitor& fim() { return *fim_; }
  crypto::SigningKey& fim_key() { return *fim_key_; }
  /// Boot the OLT host through the chain; applies config's boot policy.
  os::BootReport boot_host();

  // -- middleware ----------------------------------------------------------------
  middleware::Cluster& cluster() { return *cluster_; }
  middleware::VmManager& vmm() { return *vmm_; }
  middleware::SdnController& onos() { return *onos_; }
  middleware::SdnFailover& onos_failover() { return *onos_failover_; }
  middleware::SdnController& voltha() { return *voltha_; }

  // -- application layer --------------------------------------------------------
  appsec::ImageRegistry& registry() { return registry_; }
  appsec::FalcoMonitor& falco() { return falco_; }
  appsec::SandboxEnforcer& sandbox() { return sandbox_; }
  vuln::CveDatabase& cve_db() { return cve_db_; }
  vuln::FeedHealthService& feed_service() { return *feed_service_; }

  // -- resilience ---------------------------------------------------------------
  /// The chaos engine, with every substrate fault target pre-registered.
  /// Its fault edges are events on events().
  resilience::ChaosEngine& chaos() { return *chaos_; }
  /// Advance the sim clock by `delta`, draining every due event (chaos
  /// fault edges and whatever else callers scheduled) in timestamp order
  /// along the way. Retry backoffs sleep through this so faults can heal
  /// mid-retry. advance_time(SimTime{}) runs what is due now.
  void advance_time(common::SimTime delta);

  // -- tenants -------------------------------------------------------------------
  /// Register a business user: namespace, RBAC grants, publisher key.
  common::Status register_tenant(const std::string& name,
                                 const crypto::PublicKey& publisher_key);
  const Tenant* tenant(const std::string& name) const;
  const std::map<std::string, Tenant>& tenants() const { return tenants_; }

 private:
  void build_pki();
  void build_pon();
  void provision_pon();
  void build_host();
  void build_middleware();
  void build_resilience();

  PlatformConfig config_;
  common::SimClock clock_;
  common::Logger logger_;
  common::EventBus bus_;
  common::Rng rng_;
  common::EventQueue events_;

  std::unique_ptr<crypto::CertificateAuthority> root_ca_;
  crypto::TrustStore trust_;

  std::unique_ptr<pon::Odn> odn_;
  std::unique_ptr<pon::Olt> olt_;
  std::vector<std::unique_ptr<pon::Onu>> onus_;
  // The OLT's M4 credentials at [0], then onus_[i]'s at [i + 1]: drawn and
  // reserved by build_pon(), generated by provision_pon() just before the
  // first handshake. Empty once provisioned.
  struct PendingCredentials {
    common::Bytes seed;
    crypto::CertificateAuthority::Reservation cert;
    common::Rng rng;
  };
  std::vector<PendingCredentials> pending_pon_;

  os::Host host_;
  std::unique_ptr<os::Tpm> tpm_;
  std::unique_ptr<os::BootChain> boot_chain_;
  std::unique_ptr<os::FileIntegrityMonitor> fim_;
  std::unique_ptr<crypto::SigningKey> fim_key_;

  std::unique_ptr<middleware::Cluster> cluster_;
  std::unique_ptr<middleware::VmManager> vmm_;
  std::unique_ptr<middleware::SdnController> onos_;
  std::unique_ptr<middleware::SdnController> onos_standby_;
  std::unique_ptr<middleware::SdnFailover> onos_failover_;
  std::unique_ptr<middleware::SdnController> voltha_;

  appsec::ImageRegistry registry_;
  appsec::FalcoMonitor falco_;
  appsec::SandboxEnforcer sandbox_;
  vuln::CveDatabase cve_db_;
  std::unique_ptr<vuln::FeedHealthService> feed_service_;
  std::unique_ptr<resilience::ChaosEngine> chaos_;

  std::map<std::string, Tenant> tenants_;
};

}  // namespace genio::core
