#include "genio/core/platform.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

#include "genio/hardening/scap.hpp"
#include "genio/pon/serial.hpp"

namespace genio::core {

namespace {

constexpr auto kValidFrom = common::SimTime::from_days(0);
constexpr auto kValidTo = common::SimTime::from_days(3650);

// What each platform key signs, which sizes it through platform_key_height().
// The root CA signs its own certificate, the OLT's, the boot signer's, one
// per ONU, and one a scenario issues (the ONL image builder).
constexpr int kRootSignsBesidesOnus = 4;
// The OLT signs one handshake transcript per ONU authentication, and the
// rekey drill authenticates every ONU 5 times.
constexpr int kOltSignsPerOnu = 5;
constexpr int kOnuSigns = 5;         // one per authentication, as for the OLT
constexpr int kBootSignerSigns = 3;  // shim, grub, kernel
constexpr int kFimSigns = 1;         // the baseline

}  // namespace

std::uint8_t platform_key_height(int signatures) {
  const std::uint64_t needed = 2 * static_cast<std::uint64_t>(std::max(signatures, 0));
  std::uint8_t height = 4;
  while ((std::uint64_t{1} << height) < needed) ++height;
  return height;
}

GenioPlatform::GenioPlatform(PlatformConfig config)
    : config_(config),
      logger_(&clock_),
      bus_(&clock_),
      rng_(config.seed),
      events_(&clock_) {
  build_pki();
  build_pon();
  build_host();
  build_middleware();
  build_resilience();
  if (config_.runtime_monitoring) falco_ = appsec::make_default_falco_monitor();
}

void GenioPlatform::advance_time(common::SimTime delta) {
  events_.run_until(clock_.now() + delta);
}

void GenioPlatform::build_pki() {
  root_ca_ = std::make_unique<crypto::CertificateAuthority>(
      crypto::CertificateAuthority::create_root(
          "genio-root", rng_.bytes(32), kValidFrom, kValidTo,
          platform_key_height(config_.onu_count + kRootSignsBesidesOnus)));
  trust_.add_root(root_ca_->certificate());
}

void GenioPlatform::build_pon() {
  odn_ = std::make_unique<pon::Odn>();
  pon::OltSecurityPolicy policy;
  policy.enforce_serial_allowlist = true;
  policy.require_authentication = config_.node_authentication;
  policy.encrypt_data_path = config_.pon_encryption;
  olt_ = std::make_unique<pon::Olt>("olt-1", odn_.get(), &clock_, &logger_, &bus_,
                                    policy);

  // Each credential's key seed, certificate serial and leaf, and handshake
  // stream are drawn here, in the order an eager build drew them, so the
  // keys provision_pon() builds later are the same.
  auto pend = [this](std::string_view stream) {
    common::Bytes seed = rng_.bytes(32);
    auto cert = root_ca_->reserve().value();
    return PendingCredentials{std::move(seed), cert, rng_.fork(stream)};
  };
  pending_pon_.push_back(pend("olt-auth"));
  for (int i = 0; i < config_.onu_count; ++i) {
    const std::string serial = pon::make_onu_serial(0, static_cast<unsigned>(i));
    // Serials here are unique by construction (one ordinal, sequential
    // indices), so a rejection would be a scheme bug.
    (void)olt_->register_serial(serial);
    onus_.push_back(std::make_unique<pon::Onu>(serial, odn_.get(), &clock_, &logger_));
    pending_pon_.push_back(pend(serial));
  }
}

void GenioPlatform::provision_pon() {
  if (pending_pon_.empty()) return;
  // The key at `height` from `pending`'s seed, and its chain: the
  // certificate at the reserved serial and leaf, then the root.
  auto credentials = [this](const PendingCredentials& pending, const std::string& subject,
                            std::uint8_t height) {
    auto key = crypto::SigningKey::generate(pending.seed, height);
    auto cert = root_ca_
                    ->issue(pending.cert, subject, key.public_key(), kValidFrom, kValidTo,
                            {crypto::KeyUsage::kNodeAuth})
                    .value();
    std::vector<crypto::Certificate> chain = {std::move(cert), root_ca_->certificate()};
    return std::pair(std::move(key), std::move(chain));
  };
  auto [olt_key, olt_chain] = credentials(
      pending_pon_[0], olt_->id(), platform_key_height(kOltSignsPerOnu * config_.onu_count));
  olt_->provision_credentials(std::move(olt_key), std::move(olt_chain), &trust_,
                              pending_pon_[0].rng);
  for (std::size_t i = 0; i < onus_.size(); ++i) {
    const PendingCredentials& pending = pending_pon_[i + 1];
    auto [key, chain] =
        credentials(pending, onus_[i]->serial(), platform_key_height(kOnuSigns));
    onus_[i]->provision_credentials(std::move(key), std::move(chain), &trust_, pending.rng);
  }
  pending_pon_ = {};
}

int GenioPlatform::activate_pon() {
  olt_->start_discovery();
  int ready = 0;
  for (auto& onu : onus_) {
    if (onu->state() != pon::OnuState::kOperational) continue;
    if (config_.node_authentication) {
      const auto id = olt_->onu_id_for(onu->serial());
      if (!id.has_value()) continue;
      provision_pon();
      if (!olt_->authenticate_onu(*id, *onu).ok()) continue;
    }
    ++ready;
  }
  return ready;
}

common::Status GenioPlatform::reauthenticate_onu(const std::string& serial) {
  pon::Onu* device = nullptr;
  for (auto& onu : onus_) {
    if (onu->serial() == serial) device = onu.get();
  }
  if (device == nullptr) {
    return common::not_found("no ONU with serial '" + serial + "'");
  }
  if (!config_.node_authentication) return common::Status::success();
  const auto id = olt_->onu_id_for(serial);
  if (!id.has_value()) {
    return common::not_found("ONU '" + serial + "' was never activated");
  }
  provision_pon();
  return olt_->authenticate_onu(*id, *device);
}

void GenioPlatform::build_host() {
  host_ = os::make_stock_onl_host("olt-1");
  if (config_.os_hardening) {
    hardening::HostAuditor auditor;
    auditor.harden(host_);
  }

  tpm_ = std::make_unique<os::Tpm>(rng_.bytes(32));
  boot_chain_ = std::make_unique<os::BootChain>(&trust_, tpm_.get());

  auto signer =
      crypto::SigningKey::generate(rng_.bytes(32), platform_key_height(kBootSignerSigns));
  auto signer_cert = root_ca_
                         ->issue("genio-boot-signer", signer.public_key(), kValidFrom,
                                 kValidTo, {crypto::KeyUsage::kCodeSigning})
                         .value();
  const std::vector<crypto::Certificate> chain = {signer_cert, root_ca_->certificate()};
  boot_chain_->add_component(
      os::make_signed_component("shim", common::to_bytes("SHIM-IMG-v1"), signer, chain)
          .value());
  boot_chain_->add_component(
      os::make_signed_component("grub", common::to_bytes("GRUB-IMG-v1"), signer, chain)
          .value());
  boot_chain_->add_component(
      os::make_signed_component("kernel", host_.file("/boot/vmlinuz")->content, signer,
                                chain)
          .value());

  fim_key_ = std::make_unique<crypto::SigningKey>(
      crypto::SigningKey::generate(rng_.bytes(32), platform_key_height(kFimSigns)));
  fim_ = std::make_unique<os::FileIntegrityMonitor>(os::default_olt_fim_rules());
  if (config_.fim_enabled) {
    (void)fim_->init_baseline(host_, *fim_key_);
  }
}

os::BootReport GenioPlatform::boot_host() {
  return boot_chain_->boot(
      {.secure_boot = config_.secure_boot, .measured_boot = config_.measured_boot},
      clock_.now());
}

void GenioPlatform::build_middleware() {
  middleware::Cluster::Config cluster_config;
  cluster_config.name = "genio-edge";
  cluster_config.anonymous_auth = config_.anonymous_api;
  cluster_config.etcd_encryption = config_.hardened_admission;
  auto rbac = config_.least_privilege_rbac ? middleware::make_least_privilege_rbac()
                                           : middleware::make_permissive_default_rbac();
  auto admission = config_.hardened_admission ? middleware::make_hardened_admission()
                                              : middleware::make_permissive_admission();
  cluster_ = std::make_unique<middleware::Cluster>(cluster_config, std::move(rbac),
                                                   admission);
  cluster_->add_node("olt-node-1", {16.0, 32768});
  cluster_->add_node("olt-node-2", {16.0, 32768});

  vmm_ = std::make_unique<middleware::VmManager>(common::Version(7, 4, 0));
  onos_ = std::make_unique<middleware::SdnController>(
      config_.least_privilege_rbac ? middleware::make_hardened_onos()
                                   : middleware::make_insecure_onos());
  voltha_ = std::make_unique<middleware::SdnController>(
      middleware::make_hardened_voltha());

  // Standby ONOS instance mirroring the primary's accounts; the failover
  // shim routes around a dead primary through a circuit breaker.
  onos_standby_ = std::make_unique<middleware::SdnController>("onos-standby");
  for (const auto& [name, account] : onos_->accounts()) {
    onos_standby_->add_account(account);
  }
  onos_failover_ = std::make_unique<middleware::SdnFailover>(
      onos_.get(), onos_standby_.get(), &clock_);
  // Breaker flips are health signals: publish them for the supervisor's
  // health monitor and the SIEM analytics pipeline.
  onos_failover_->attach_bus(&bus_);
}

void GenioPlatform::build_resilience() {
  feed_service_ = std::make_unique<vuln::FeedHealthService>(&cve_db_);
  feed_service_->mark_refreshed(clock_.now());
  // Fault edges are events on the platform queue, so advance_time()
  // processes chaos alongside every other event source.
  chaos_ = std::make_unique<resilience::ChaosEngine>(&events_, &bus_,
                                                     rng_.fork("chaos"));
  using resilience::FaultKind;
  using resilience::FaultSpec;
  resilience::ChaosEngine& chaos = *chaos_;

  // PON medium: feeder-fiber flap and bit-error burst.
  chaos.register_target(FaultKind::kPonLinkFlap, "odn",
                        {.apply = [this](const FaultSpec&) { odn_->set_feeder_up(false); },
                         .revert = [this](const FaultSpec&) { odn_->set_feeder_up(true); }});
  chaos.register_target(
      FaultKind::kPonBitErrorBurst, "odn",
      {.apply = [this](const FaultSpec& spec) {
         odn_->set_bit_error_rate(spec.magnitude, rng_.fork("ber-" + std::to_string(spec.id)));
       },
       .revert = [this](const FaultSpec&) { odn_->clear_bit_errors(); }});

  // ONU churn: the device drops off the splitter tree, reattaches on revert.
  for (auto& onu : onus_) {
    pon::Onu* device = onu.get();
    chaos.register_target(FaultKind::kOnuChurn, device->serial(),
                          {.apply = [this, device](const FaultSpec&) { odn_->detach_onu(device); },
                           .revert = [this, device](const FaultSpec&) { odn_->attach_onu(device); }});
  }

  // Cluster nodes: crash (pods fail) and kubelet stall (no new pods).
  for (const auto& node : cluster_->nodes()) {
    const std::string name = node.name;
    chaos.register_target(
        FaultKind::kNodeCrash, name,
        {.apply = [this, name](const FaultSpec&) {
           cluster_->set_node_health(name, middleware::NodeHealth::kCrashed);
         },
         .revert = [this, name](const FaultSpec&) {
           cluster_->set_node_health(name, middleware::NodeHealth::kReady);
         }});
    chaos.register_target(
        FaultKind::kKubeletStall, name,
        {.apply = [this, name](const FaultSpec&) {
           cluster_->set_node_health(name, middleware::NodeHealth::kStalled);
         },
         .revert = [this, name](const FaultSpec&) {
           cluster_->set_node_health(name, middleware::NodeHealth::kReady);
         }});
  }

  // SDN controllers.
  chaos.register_target(FaultKind::kSdnOutage, "onos",
                        {.apply = [this](const FaultSpec&) { onos_->set_available(false); },
                         .revert = [this](const FaultSpec&) { onos_->set_available(true); }});
  chaos.register_target(FaultKind::kSdnOutage, "voltha",
                        {.apply = [this](const FaultSpec&) { voltha_->set_available(false); },
                         .revert = [this](const FaultSpec&) { voltha_->set_available(true); }});

  // Application-layer dependencies.
  chaos.register_target(FaultKind::kRegistryOutage, "registry",
                        {.apply = [this](const FaultSpec&) { registry_.set_available(false); },
                         .revert = [this](const FaultSpec&) { registry_.set_available(true); }});
  chaos.register_target(
      FaultKind::kFeedOutage, "cve-feed",
      {.apply = [this](const FaultSpec&) { feed_service_->set_available(false); },
       .revert = [this](const FaultSpec&) { feed_service_->set_available(true); }});

  // TPM: the next `magnitude` operations fail transiently.
  chaos.register_target(
      FaultKind::kTpmTransient, "tpm",
      {.apply = [this](const FaultSpec& spec) {
         tpm_->inject_transient_failures(static_cast<int>(spec.magnitude));
       },
       .revert = [this](const FaultSpec&) { tpm_->clear_transient_failures(); }});
}

common::Status GenioPlatform::register_tenant(const std::string& name,
                                              const crypto::PublicKey& publisher_key) {
  if (tenants_.contains(name)) {
    return common::already_exists("tenant '" + name + "' already registered");
  }
  tenants_[name] = Tenant{name, publisher_key};

  // Tenant namespace grants: the tenant's deployer identity can manage
  // workloads in its own namespace only.
  middleware::RbacEngine& rbac = cluster_->rbac_mutable();
  rbac.add_role({.name = name + "-deployer",
                 .rules = {{.verbs = {"get", "list", "create", "update", "patch",
                                      "delete"},
                            .resources = {"pods", "deployments", "services",
                                          "configmaps"}}},
                 .namespaces = {name}});
  rbac.add_binding({.role = name + "-deployer", .subjects = {name + ":deployer"}});
  logger_.info("core.platform", "registered tenant '" + name + "'");
  return common::Status::success();
}

const Tenant* GenioPlatform::tenant(const std::string& name) const {
  const auto it = tenants_.find(name);
  return it == tenants_.end() ? nullptr : &it->second;
}

}  // namespace genio::core
