#include "genio/core/scenarios.hpp"

#include "genio/common/strings.hpp"

#include "genio/appsec/dast.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/hardening/auditor.hpp"
#include "genio/os/onie.hpp"
#include "genio/vuln/feeds.hpp"
#include "genio/vuln/kbom.hpp"
#include "genio/vuln/scanner.hpp"

namespace genio::core {

PlatformConfig unmitigated_config() {
  PlatformConfig config;
  config.pon_encryption = false;
  config.node_authentication = false;
  config.secure_boot = false;
  config.measured_boot = false;
  config.fim_enabled = false;
  config.os_hardening = false;
  config.least_privilege_rbac = false;
  config.hardened_admission = false;
  config.anonymous_api = true;
  config.require_image_signature = false;
  config.sca_gate = false;
  config.sast_gate = false;
  config.secret_gate = false;
  config.malware_gate = false;
  config.sandbox_enabled = false;
  config.runtime_monitoring = false;
  return config;
}

// A tenant image with a seeded SQL injection (a complete request->sink
// taint flow the M14 dataflow pass confirms) and vulnerable dependencies.
appsec::ContainerImage make_vulnerable_app_image() {
  appsec::ContainerImage image("registry.genio.io/tenant-a/readings-api", "1.0.0");
  image.add_layer(
      {{"/app/main.py",
        common::to_bytes("import db\n"
                         "from flask import request\n"
                         "def get_reading():\n"
                         "    sensor = request.args.get(\"sensor_id\")\n"
                         "    query = \"SELECT * FROM readings WHERE id=\" + sensor\n"
                         "    return db.execute(query)\n")},
       {"/usr/bin/python3", common::to_bytes("ELF:python3")}});
  image.add_package({"requests", common::Version(2, 25, 0), "pypi"});
  image.set_entrypoint("/usr/bin/python3 /app/main.py");
  return image;
}

// A deliberately malicious image: cryptominer + escape tooling.
appsec::ContainerImage make_malicious_image() {
  appsec::ContainerImage image("registry.genio.io/tenant-x/optimizer", "2.0.0");
  image.add_layer(
      {{"/usr/local/bin/opt.sh",
        common::to_bytes("#!/bin/sh\n/tmp/xmrig -o stratum+tcp://pool:3333 "
                         "--algo randomx\n")},
       {"/usr/local/bin/persist.sh",
        common::to_bytes("echo x > /sys/fs/cgroup/notify_on_release\n"
                         "cat /proc/sys/kernel/core_pattern\n"
                         "ls /var/run/docker.sock\n")}});
  image.set_entrypoint("/usr/local/bin/opt.sh");
  return image;
}

void seed_kernel_cve(vuln::CveDatabase& db) {
  vuln::CveRecord record;
  record.id = "CVE-2022-0847";  // Dirty-Pipe-class local privesc
  record.package = "linux-kernel";
  record.affected = common::VersionRange::parse(">=4.0.0 <4.19.200").value();
  record.fixed_version = common::Version(4, 19, 200);
  record.cvss =
      vuln::CvssV3::parse("AV:L/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:H").value();
  record.known_exploited = true;
  record.published = common::SimTime::from_days(1);
  db.upsert(std::move(record));
}

// run_all_scenarios() lives in scenario/catalog_attacks.cpp: it walks the
// scenario registry's contrast entries instead of hard-coding eight calls.

// ------------------------------------------------------------------- T1

ScenarioResult run_t1_network_attacks() {
  ScenarioResult result{"T1", "Network Attacks", {}, {}};

  auto run = [](bool hardened) {
    ScenarioOutcome outcome;
    PlatformConfig config = hardened ? PlatformConfig{} : unmitigated_config();
    config.onu_count = 2;
    GenioPlatform platform(config);

    pon::FiberTap tap;
    platform.odn().add_tap(&tap);
    pon::RogueOnu rogue("GNIO000002", &platform.odn());  // clones a known serial

    int security_events = 0;
    platform.bus().subscribe("pon.security.",
                             [&security_events](const common::Event&) {
                               ++security_events;
                             });

    platform.activate_pon();
    pon::Onu& victim = *platform.onus()[0];
    const auto victim_id = platform.olt().onu_id_for(victim.serial());
    if (victim_id.has_value()) {
      (void)platform.olt().send_data(*victim_id, 1,
                                     common::to_bytes("subscriber billing record"));
      victim.send_data(1, common::to_bytes("meter reading upstream"));
      pon::Onu* raw = &victim;
      platform.olt().run_dba_cycle(std::span(&raw, 1), 4);
    }

    // Impersonation payoff: the rogue wins only if it obtains READABLE
    // data for the stolen identity. With M3 on, anything it intercepts is
    // ciphertext under a session key derived with the genuine device.
    if (rogue.activated()) {
      (void)platform.olt().send_data(rogue.onu_id(), 1,
                                     common::to_bytes("for the impersonated onu"));
    }
    bool rogue_read_data = false;
    for (const auto& frame : rogue.stolen_frames()) {
      rogue_read_data |= !frame.encrypted;
    }
    const bool tap_read = tap.plaintext_data_bytes() > 0;

    outcome.attack_succeeded = tap_read || rogue_read_data;
    outcome.detected = security_events > 0 ||
                       platform.olt().counters().auth_failures > 0 ||
                       platform.olt().counters().unknown_serial_rejected > 0;
    if (hardened) {
      outcome.blocked_by = "M3 M4";
      outcome.detected_by = "OLT security counters + duplicate-serial events";
    }
    outcome.notes.push_back("tap plaintext bytes: " +
                            std::to_string(tap.plaintext_data_bytes()));
    outcome.notes.push_back(std::string("rogue read data: ") +
                            (rogue_read_data ? "yes" : "no"));
    outcome.notes.push_back("security events: " + std::to_string(security_events));
    return outcome;
  };

  result.unmitigated = run(false);
  result.mitigated = run(true);
  return result;
}

// ------------------------------------------------------------------- T2

ScenarioResult run_t2_code_tampering() {
  ScenarioResult result{"T2", "Code Tampering", {}, {}};

  auto run = [](bool hardened) {
    ScenarioOutcome outcome;
    PlatformConfig config = hardened ? PlatformConfig{} : unmitigated_config();
    GenioPlatform platform(config);

    // The attacker implants a backdoor in the bootloader image and swaps a
    // system binary on disk.
    platform.boot_chain().component("grub")->image =
        common::to_bytes("GRUB-IMG-v1+BACKDOOR");
    platform.host().write_file("/usr/sbin/sshd", "ELF:openssh-server+IMPLANT", "root",
                               0755);

    const auto report = platform.boot_host();
    const auto fim_report = platform.fim().check(platform.host(),
                                                 platform.fim_key().public_key());
    const bool fim_caught =
        platform.config().fim_enabled && !fim_report.critical.empty();

    outcome.attack_succeeded = report.booted && !fim_caught;
    outcome.detected = fim_caught || !report.booted;
    if (!report.booted) {
      outcome.blocked_by = "M5";
      outcome.detected_by = "secure boot halt at '" + report.failed_stage + "'";
    } else if (fim_caught) {
      outcome.blocked_by = "M7";
      outcome.detected_by = "Tripwire-style FIM critical violation";
    }
    outcome.notes.push_back(std::string("booted: ") + (report.booted ? "yes" : "no"));
    return outcome;
  };

  result.unmitigated = run(false);
  result.mitigated = run(true);
  return result;
}

// ------------------------------------------------------------------- T3

ScenarioResult run_t3_os_privilege_abuse() {
  ScenarioResult result{"T3", "Privilege Abuse (OS)", {}, {}};

  auto run = [](bool hardened) {
    ScenarioOutcome outcome;
    PlatformConfig config = hardened ? PlatformConfig{} : unmitigated_config();
    GenioPlatform platform(config);
    const os::Host& host = platform.host();

    // The intrusion path: reach a remote shell (telnet, or SSH as root
    // with a password), then escalate via a sudo-capable spare account.
    const auto* telnet = host.service("telnetd");
    const auto* sshd = host.service("sshd");
    const bool remote_shell =
        (telnet != nullptr && telnet->enabled) ||
        (sshd != nullptr && sshd->config.count("PermitRootLogin") &&
         sshd->config.at("PermitRootLogin") == "yes" &&
         sshd->config.at("PasswordAuthentication") == "yes");
    const auto* guest = host.user("guest");
    const bool escalation =
        guest != nullptr && guest->shell != "/usr/sbin/nologin";

    outcome.attack_succeeded = remote_shell && escalation;

    hardening::HostAuditor auditor;
    const auto audit = auditor.audit(host);
    outcome.detected = audit.total_findings() > 0;  // the scan sees the holes
    if (hardened) outcome.blocked_by = "M1 M2";
    outcome.detected_by = "SCAP/STIG/kernel audit (" +
                          std::to_string(audit.total_findings()) + " findings)";
    outcome.notes.push_back("hardening index: " +
                            common::format_double(audit.hardening_index(), 1));
    return outcome;
  };

  result.unmitigated = run(false);
  result.mitigated = run(true);
  return result;
}

// ------------------------------------------------------------------- T4

ScenarioResult run_t4_low_level_vulnerabilities() {
  ScenarioResult result{"T4", "Software Vulnerabilities (low-level)", {}, {}};

  auto run = [](bool hardened) {
    ScenarioOutcome outcome;
    PlatformConfig config = hardened ? PlatformConfig{} : unmitigated_config();
    GenioPlatform platform(config);
    seed_kernel_cve(platform.cve_db());

    if (hardened) {
      // M8: periodic scan; M9: apply the fix through the signed ONIE path.
      vuln::HostVulnScanner scanner(&platform.cve_db());
      const auto scan = scanner.scan(platform.host());
      outcome.detected = !scan.findings.empty();
      outcome.detected_by = "Vuls-style scan (" +
                            std::to_string(scan.findings.size()) + " findings)";
      const auto plan = vuln::PatchPlanner::plan(scan, platform.host());

      constexpr int kImageBuilderSigns = 1;  // the kernel update image
      auto builder = crypto::SigningKey::generate(platform.rng().bytes(32),
                                                  platform_key_height(kImageBuilderSigns));
      auto cert = platform.root_ca()
                      .issue("onl-builder", builder.public_key(),
                             common::SimTime::from_days(0),
                             common::SimTime::from_days(3650),
                             {crypto::KeyUsage::kCodeSigning})
                      .value();
      os::OnieInstaller installer(&platform.trust_store(), &platform.tpm());
      for (const auto& action : plan.actions) {
        if (action.package != "linux-kernel") continue;
        const auto image = os::make_signed_image(
                               "onl-update", action.to,
                               common::to_bytes("KERNEL-" + action.to.to_string()),
                               builder, {cert, platform.root_ca().certificate()})
                               .value();
        (void)installer.install(platform.host(), image, platform.clock().now());
      }
      vuln::PatchPlanner::apply(plan, platform.host());  // userspace packages
      outcome.blocked_by = "M8 M9";
    }

    // The attacker fires a known kernel exploit: it works iff the running
    // kernel version is still in the affected range.
    const bool exploitable =
        !platform.cve_db()
             .matching("linux-kernel", platform.host().kernel().version)
             .empty();
    outcome.attack_succeeded = exploitable;
    outcome.notes.push_back("kernel: " +
                            platform.host().kernel().version.to_string());
    return outcome;
  };

  result.unmitigated = run(false);
  result.mitigated = run(true);
  return result;
}

// ------------------------------------------------------------------- T5

ScenarioResult run_t5_middleware_privilege_abuse() {
  ScenarioResult result{"T5", "Privilege Abuse (middleware)", {}, {}};

  auto run = [](bool hardened) {
    ScenarioOutcome outcome;
    PlatformConfig config = hardened ? PlatformConfig{} : unmitigated_config();
    GenioPlatform platform(config);
    middleware::Cluster& cluster = platform.cluster();

    // Attack 1: a tenant-b workload identity reads tenant-a secrets.
    const bool cross_tenant =
        cluster.read_secret("tenant-b-app", "tenant-a").ok();
    // Attack 2: an unauthenticated caller lists secrets.
    const bool anonymous = cluster.authorize("", "list", "secrets", "tenant-a").ok();
    // Attack 3: default-credential shell on the SDN controller.
    const bool sdn_shell =
        platform.onos()
            .api_call("admin", "admin", middleware::SdnCapability::kShellAccess)
            .ok();

    outcome.attack_succeeded = cross_tenant || anonymous || sdn_shell;
    // Denied attempts land in the audit log / SDN counters.
    bool audit_denied = false;
    for (const auto& entry : cluster.audit_log()) audit_denied |= !entry.allowed;
    outcome.detected = audit_denied || platform.onos().stats().denied_authn > 0;
    if (hardened) {
      outcome.blocked_by = "M10 M11";
      outcome.detected_by = "API audit log + SDN authn counters";
    }
    outcome.notes.push_back(std::string("cross-tenant read: ") +
                            (cross_tenant ? "yes" : "no"));
    outcome.notes.push_back(std::string("sdn shell: ") + (sdn_shell ? "yes" : "no"));
    return outcome;
  };

  result.unmitigated = run(false);
  result.mitigated = run(true);
  return result;
}

// ------------------------------------------------------------------- T6

ScenarioResult run_t6_middleware_vulnerabilities() {
  ScenarioResult result{"T6", "Software Vulnerabilities (middleware)", {}, {}};

  auto run = [](bool hardened) {
    ScenarioOutcome outcome;
    PlatformConfig config = hardened ? PlatformConfig{} : unmitigated_config();
    GenioPlatform platform(config);

    // A control-plane CVE is disclosed at day 10 affecting the running
    // kube-apiserver 1.20.3 (fixed in 1.20.7).
    vuln::CveRecord cve;
    cve.id = "CVE-2021-25741";
    cve.package = "kube-apiserver";
    cve.affected = common::VersionRange::parse(">=1.20.0 <1.20.7").value();
    cve.fixed_version = common::Version(1, 20, 7);
    cve.cvss = vuln::CvssV3::parse("AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:H/A:N").value();
    cve.published = common::SimTime::from_days(10);

    vuln::FeedAggregator aggregator;
    vuln::StructuredFeed k8s_feed("k8s-cve", common::SimTime::from_hours(6));
    vuln::StaleFeed stale_feed("onos-tracker", common::SimTime::from_days(5));
    if (hardened) {
      // GENIO subscribes to the structured feed and scans its KBOM.
      k8s_feed.publish(cve);
      aggregator.add_feed(&k8s_feed);
    } else {
      // Operator only watches a stale tracker: the advisory never lands.
      stale_feed.publish(cve);
      aggregator.add_feed(&stale_feed);
    }

    platform.clock().advance_to(common::SimTime::from_days(12));
    aggregator.poll_all(platform.clock().now(), platform.cve_db());

    // KBOM scan over the real component inventory.
    vuln::Bom bom{"genio-edge", {}};
    for (const auto& component : platform.cluster().components()) {
      bom.components.push_back({component.name, component.version, component.kind});
    }
    const auto findings = vuln::scan_bom(bom, platform.cve_db());
    outcome.detected = !findings.findings.empty();
    if (outcome.detected) {
      outcome.detected_by = "k8s CVE feed + KBOM (latency " +
                            common::format_double(
                                aggregator.mean_latency_hours(), 1) +
                            "h)";
      // Patch: upgrade the control plane to the fixed version.
      platform.cluster().config_mutable().control_plane_version =
          common::Version(1, 20, 7);
      outcome.blocked_by = "M12";
    }

    // Attack at day 30: exploit works iff the control plane is still in
    // the affected range.
    platform.clock().advance_to(common::SimTime::from_days(30));
    outcome.attack_succeeded = cve.affected.contains(
        platform.cluster().config().control_plane_version);
    outcome.notes.push_back(
        "control plane: " +
        platform.cluster().config().control_plane_version.to_string());
    return outcome;
  };

  result.unmitigated = run(false);
  result.mitigated = run(true);
  return result;
}

// ------------------------------------------------------------------- T7

ScenarioResult run_t7_vulnerable_applications() {
  ScenarioResult result{"T7", "Vulnerable Applications", {}, {}};

  auto run = [](bool hardened) {
    ScenarioOutcome outcome;
    PlatformConfig config = hardened ? PlatformConfig{} : unmitigated_config();
    config.scan_workers = 1;  // one scenario = one thread; the runner fans out
    GenioPlatform platform(config);

    auto publisher = crypto::SigningKey::generate(platform.rng().bytes(32), 4);
    (void)platform.register_tenant("tenant-a", publisher.public_key());
    (void)platform.registry().push_signed(make_vulnerable_app_image(), "tenant-a",
                                          publisher);

    DeploymentPipeline pipeline(&platform);
    const auto report = pipeline.deploy({.tenant = "tenant-a",
                                         .image_reference =
                                             "registry.genio.io/tenant-a/readings-api:1.0.0",
                                         .app_name = "readings-api"});

    if (report.deployed) {
      // The app is live; the attacker exploits the SQL injection. We model
      // exploitability with the DAST fuzzer finding the injection.
      appsec::ApiSpec spec;
      spec.service = "readings-api";
      spec.endpoints = {{"GET", "/api/v1/readings",
                         {{"sensor_id", appsec::ParamType::kString, true}},
                         false}};
      appsec::RestService service(std::move(spec));
      service.set_handler("GET", "/api/v1/readings", [](const appsec::HttpRequest& r) {
        const auto it = r.params.find("sensor_id");
        if (it != r.params.end() && it->second.find('\'') != std::string::npos) {
          return appsec::HttpResponse{500, "SQL syntax error"};
        }
        return appsec::HttpResponse{200, "ok"};
      });
      appsec::ApiFuzzer fuzzer(platform.rng().fork("dast"));
      const auto dast = fuzzer.fuzz(service);
      outcome.attack_succeeded =
          dast.count(appsec::DastIssueKind::kInjectionSuspected) > 0;
      outcome.detected = outcome.attack_succeeded;  // DAST in staging sees it too
      outcome.detected_by = "CATS-style fuzzer (staging)";
    } else {
      outcome.attack_succeeded = false;
      outcome.blocked_by = "M14";  // SAST gate caught the injection sink
      outcome.detected = true;
      outcome.detected_by = "pipeline stage '" + report.blocked_by() + "'";
      if (const auto* sast = report.stage("sast")) {
        outcome.notes.push_back("sast: " + sast->detail);
      }
    }
    outcome.notes.push_back("deployed: " + std::string(report.deployed ? "yes" : "no"));
    return outcome;
  };

  result.unmitigated = run(false);
  result.mitigated = run(true);
  return result;
}

// ------------------------------------------------------------------- T8

ScenarioResult run_t8_malicious_applications() {
  ScenarioResult result{"T8", "Malicious Applications", {}, {}};

  auto run = [](bool hardened) {
    ScenarioOutcome outcome;
    PlatformConfig config = hardened ? PlatformConfig{} : unmitigated_config();
    config.scan_workers = 1;  // one scenario = one thread; the runner fans out
    GenioPlatform platform(config);

    auto publisher = crypto::SigningKey::generate(platform.rng().bytes(32), 4);
    (void)platform.register_tenant("tenant-x", publisher.public_key());
    (void)platform.registry().push_signed(make_malicious_image(), "tenant-x",
                                          publisher);

    DeploymentPipeline pipeline(&platform);
    const auto report =
        pipeline.deploy({.tenant = "tenant-x",
                         .image_reference = "registry.genio.io/tenant-x/optimizer:2.0.0",
                         .app_name = "optimizer",
                         .privileged = true});  // asks for privilege to escape

    if (!report.deployed) {
      outcome.attack_succeeded = false;
      outcome.detected = true;
      outcome.blocked_by = report.blocked_by() == "malware" ? "M16" : "M10 M11";
      outcome.detected_by = "pipeline stage '" + report.blocked_by() + "'";
      outcome.notes.push_back("blocked before deployment");
      return outcome;
    }

    // Deployed (unmitigated path): run the malicious behavior.
    const std::string workload = "tenant-x/optimizer";
    const auto miner_trace = appsec::traces::cryptominer(workload);
    const auto escape_trace = appsec::traces::escape_attempt(workload);

    const auto miner_records = platform.sandbox().run_trace(miner_trace);
    const auto escape_records = platform.sandbox().run_trace(escape_trace);
    const bool escape_blocked =
        appsec::SandboxEnforcer::denied_count(escape_records) > 0;

    const auto alerts = platform.falco().process_trace(miner_trace);
    auto more = platform.falco().process_trace(escape_trace);

    outcome.attack_succeeded = !escape_blocked;
    outcome.detected = !alerts.empty() || !more.empty();
    if (escape_blocked) outcome.blocked_by = "M17";
    if (outcome.detected) outcome.detected_by = "Falco-style runtime alerts";
    outcome.notes.push_back("sandbox denials: " +
                            std::to_string(appsec::SandboxEnforcer::denied_count(
                                escape_records) +
                                           appsec::SandboxEnforcer::denied_count(
                                               miner_records)));
    return outcome;
  };

  result.unmitigated = run(false);
  result.mitigated = run(true);
  return result;
}

}  // namespace genio::core
