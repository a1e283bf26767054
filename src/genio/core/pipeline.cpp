#include "genio/core/pipeline.hpp"

#include <optional>
#include <set>

#include "genio/common/strings.hpp"
#include "genio/crypto/sha256.hpp"

namespace genio::core {

const PipelineStage* PipelineReport::stage(const std::string& name) const {
  for (const auto& s : stages) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string PipelineReport::blocked_by() const {
  for (const auto& s : stages) {
    if (s.ran && !s.passed) return s.name;
  }
  return "";
}

std::vector<std::string> PipelineReport::skipped_gates() const {
  std::vector<std::string> names;
  for (const auto& s : stages) {
    if (s.skipped) names.push_back(s.name);
  }
  return names;
}

std::vector<std::string> PipelineReport::degraded_gates() const {
  std::vector<std::string> names;
  for (const auto& s : stages) {
    if (s.degraded) names.push_back(s.name);
  }
  return names;
}

std::size_t PipelineReport::failed_open_count() const {
  std::size_t count = 0;
  for (const auto& s : stages) {
    if (s.failed_open) ++count;
  }
  return count;
}

std::string PipelineReport::coverage_summary() const {
  std::size_t ran = 0;
  for (const auto& s : stages) {
    if (s.ran) ++ran;
  }
  std::string summary = std::to_string(ran) + "/" + std::to_string(stages.size()) +
                        " gates ran";
  const auto skipped = skipped_gates();
  if (!skipped.empty()) {
    summary += " (skipped: ";
    for (std::size_t i = 0; i < skipped.size(); ++i) {
      if (i > 0) summary += ", ";
      summary += skipped[i];
    }
    summary += ")";
  }
  return summary;
}

DeploymentPipeline::DeploymentPipeline(GenioPlatform* platform)
    : platform_(platform),
      sast_(appsec::make_default_sast_engine()),
      yara_(appsec::make_default_malware_scanner()),
      policies_(platform->config().resilience_policies
                    ? resilience::make_fail_closed_policies()
                    : resilience::make_fail_open_policies()),
      pool_(platform->config().scan_workers > 0
                ? static_cast<std::size_t>(platform->config().scan_workers)
                : common::ThreadPool::recommended_workers()),
      cache_(platform->config().scan_cache_capacity) {
  sast_.set_thread_pool(&pool_);
}

std::string DeploymentPipeline::rulepack_fingerprint() const {
  const PlatformConfig& config = platform_->config();
  // "+taint2" is the flow-sensitive taint engine's tag, kept byte for byte
  // so no scan-cache key changes.
  std::string fp = "rp1:sast=" + std::to_string(sast_.rule_count()) + "+taint2";
  fp += ":yara=" + std::to_string(yara_.rule_count());
  fp += ":block=" + common::format_double(sca_block_score, 2);
  fp += ":gates=";
  fp += config.require_image_signature ? 'S' : '-';
  fp += config.sca_gate ? 'C' : '-';
  fp += config.sast_gate ? 'A' : '-';
  fp += config.secret_gate ? 'X' : '-';
  fp += config.malware_gate ? 'M' : '-';
  return fp;
}

namespace {

/// Cache-key scope: the signature gate's verdict depends on the entry's
/// signature bytes and the tenant's publisher key, not just the image
/// content — re-pushing the same content unsigned must never hit a
/// verdict cached for the signed push.
std::string signature_scope(const appsec::RegistryEntry& entry, const Tenant& tenant) {
  crypto::Sha256 h;
  h.update(tenant.publisher_key.fingerprint());
  if (entry.signature.has_value()) {
    const common::Bytes sig = entry.signature->serialize();
    h.update(common::BytesView(sig));
  } else {
    h.update("unsigned");
  }
  return crypto::digest_hex(h.finish());
}

bool add_stage(PipelineReport& report, std::string name, bool ran, bool passed,
               std::string detail) {
  report.stages.push_back({std::move(name), ran, passed, std::move(detail)});
  return !ran || passed;
}

// A disabled gate never examined the image: it must not block, but the
// report shows it as skipped — not silently "passed".
void add_skipped(PipelineReport& report, std::string name) {
  PipelineStage stage;
  stage.name = std::move(name);
  stage.ran = false;
  stage.passed = true;
  stage.skipped = true;
  stage.detail = "gate disabled (skipped, not passed)";
  report.stages.push_back(std::move(stage));
}

}  // namespace

bool DeploymentPipeline::run_scan_gates(PipelineReport& report,
                                        const appsec::RegistryEntry& entry,
                                        const Tenant& tenant) {
  const PlatformConfig& config = platform_->config();

  // Resolve the SCA feed dependency before the gates: outage handling is
  // control flow (retry policy, degrade-to-snapshot), not scan compute, and
  // it decides whether the admit is content-addressed at all.
  const vuln::CveDatabase* sca_db = nullptr;
  bool sca_degraded = false;
  bool sca_fail_closed = false;
  std::string sca_feed_error;
  if (config.sca_gate) {
    const resilience::GatePolicy& policy = policies_.for_gate("sca");
    const auto feed = platform_->feed_service().query("sca-gate");
    if (feed.ok()) {
      sca_db = *feed;
    } else {
      sca_feed_error = feed.error().message();
      if (policy.on_error == resilience::FailMode::kDegrade) {
        sca_db = &platform_->feed_service().snapshot();
        sca_degraded = true;
      } else if (policy.on_error == resilience::FailMode::kFailClosed) {
        sca_fail_closed = true;
      }
      // else: legacy fail-open — the SCA gate waves the image through.
    }
  }

  // The admit is cacheable only when every gate input is content-addressed:
  // live feed (or SCA off), no degraded snapshot, no outage in play.
  const bool cacheable =
      cache_.capacity() > 0 &&
      (!config.sca_gate || (sca_db != nullptr && !sca_degraded));
  ScanKey key;
  if (cacheable) {
    key.image_digest = crypto::digest_hex(entry.image.digest());
    key.scope = signature_scope(entry, tenant);
    key.feed_revision = sca_db != nullptr ? sca_db->revision() : 0;
    key.rulepack = rulepack_fingerprint();
    // Feed re-ingest. Incremental mode diffs the database's changed
    // packages against each stale entry's manifest and drops only the
    // intersecting verdicts, re-keying the rest — a re-ingest touching 3
    // packages no longer dumps the whole cache onto the cold path.
    if (key.feed_revision != last_feed_revision_) {
      if (config.incremental_invalidation && sca_db != nullptr) {
        const auto changed = sca_db->packages_changed_since(last_feed_revision_);
        cache_.retarget_feed(key.feed_revision,
                             std::set<std::string>(changed.begin(), changed.end()));
      } else {
        cache_.invalidate_stale_feed(key.feed_revision);
      }
      last_feed_revision_ = key.feed_revision;
    }
    if (auto cached = cache_.lookup(key)) {
      bool blocked = false;
      for (auto& stage : *cached) {
        blocked |= stage.ran && !stage.passed;
        report.stages.push_back(std::move(stage));
      }
      return !blocked;
    }
  }

  // The five content-addressed gates run in order, and the first blocker
  // ends the chain. A disabled gate is recorded as skipped.
  const auto gate = [&report](const char* name, bool enabled, const auto& run) {
    if (!enabled) {
      add_skipped(report, name);
      return true;
    }
    PipelineStage stage = run();
    stage.name = name;
    stage.ran = true;
    report.stages.push_back(std::move(stage));
    return report.stages.back().passed;
  };
  const auto signature = [&] {
    const auto st = appsec::verify_image(entry, tenant.publisher_key);
    return PipelineStage{.passed = st.ok(),
                         .detail = st.ok() ? "publisher signature valid"
                                           : st.error().message()};
  };
  const auto sca = [&] {
    if (sca_db == nullptr) {
      if (sca_fail_closed) {
        return PipelineStage{.passed = false, .detail = sca_feed_error + " [fail-closed]"};
      }
      return PipelineStage{.passed = true,
                           .detail = sca_feed_error + " [fail-open: unscanned]",
                           .failed_open = true};
    }
    const auto sca_report = appsec::ScaScanner(sca_db).scan(entry.image);
    const bool critical = !sca_report.findings.empty() &&
                          sca_report.findings.front().score >= sca_block_score;
    std::string detail =
        std::to_string(sca_report.findings.size()) + " findings, max score " +
        (sca_report.findings.empty()
             ? "0"
             : common::format_double(sca_report.findings.front().score, 1));
    if (sca_degraded) {
      const double age_hours =
          platform_->feed_service().snapshot_age(platform_->clock().now()).hours();
      detail += " [degraded: last-good snapshot, age " +
                common::format_double(age_hours, 1) + "h]";
    }
    // Legacy quirk preserved: the degraded flag was set after the blocking
    // check, so a blocking degraded scan reports plain fail.
    return PipelineStage{.passed = !critical,
                         .detail = std::move(detail),
                         .degraded = sca_degraded && !critical};
  };
  const auto sast = [&] {
    const auto findings = sast_.analyze_image(entry.image);
    bool critical = false;
    for (const auto& f : findings) {
      critical |= f.severity == "critical" && appsec::SastEngine::is_actionable(f);
    }
    const std::size_t confirmed = appsec::SastEngine::count_confirmed(findings);
    std::string detail = std::to_string(findings.size()) + " findings";
    if (confirmed > 0) {
      detail += ", " + std::to_string(confirmed) + " confirmed taint flow" +
                (confirmed == 1 ? "" : "s");
    }
    if (critical) detail += " (critical present)";
    return PipelineStage{.passed = !critical, .detail = std::move(detail)};
  };
  const auto secrets = [&] {
    const auto found = secret_scanner_.scan_image(entry.image);
    return PipelineStage{.passed = found.empty(),
                         .detail = found.empty() ? "no embedded credentials"
                                                 : appsec::to_string(found.front().kind) +
                                                       " in " + found.front().path};
  };
  const auto malware = [&] {
    const auto matches = yara_.scan_image(entry.image);
    return PipelineStage{.passed = matches.empty(),
                         .detail = matches.empty()
                                       ? "no signature matched"
                                       : "matched rule '" + matches.front().rule + "'"};
  };
  const std::size_t span_begin = report.stages.size();
  const bool passed = gate("signature", config.require_image_signature, signature) &&
                      gate("sca", config.sca_gate, sca) &&
                      gate("sast", config.sast_gate, sast) &&
                      gate("secrets", config.secret_gate, secrets) &&
                      gate("malware", config.malware_gate, malware);

  if (cacheable) {
    std::vector<std::string> packages;
    packages.reserve(entry.image.manifest().size());
    for (const auto& package : entry.image.manifest()) {
      packages.push_back(package.name);
    }
    cache_.insert(key, {report.stages.begin() + static_cast<std::ptrdiff_t>(span_begin),
                        report.stages.end()},
                  std::move(packages));
  }
  return passed;
}

bool DeploymentPipeline::admit_prefix(const DeploymentRequest& request,
                                      PipelineReport& report) {
  report.image = request.image_reference;
  report.tenant = request.tenant;

  common::Rng retry_rng = platform_->rng().fork("pipeline:" + request.image_reference);
  const resilience::SleepFn sleep = [this](common::SimTime delay) {
    platform_->advance_time(delay);
  };
  std::optional<resilience::Deadline> deadline;
  if (request.deadline_budget > common::SimTime{}) {
    deadline.emplace(&platform_->clock(), request.deadline_budget);
  }

  // 0. Pull. Transient registry outages are retried under the gate's
  // policy; an image we cannot fetch can never be waved through, so an
  // exhausted retry blocks regardless of fail mode. The request deadline
  // caps cumulative backoff so a storm cannot spin sim time unboundedly.
  resilience::RetryStats pull_stats;
  const auto entry = resilience::retry(
      policies_.for_gate("pull").retry, retry_rng, sleep,
      [&] { return platform_->registry().pull(request.image_reference); }, &pull_stats,
      deadline ? &*deadline : nullptr);
  std::string pull_detail = entry.ok() ? "image found" : entry.error().message();
  if (pull_stats.attempts > 1) {
    pull_detail += " (after " + std::to_string(pull_stats.attempts) + " attempts)";
  }
  if (!add_stage(report, "pull", true, entry.ok(), pull_detail)) {
    return false;
  }
  const appsec::RegistryEntry& image_entry = **entry;
  const Tenant* tenant = platform_->tenant(request.tenant);
  if (!add_stage(report, "tenant", true, tenant != nullptr,
                 tenant != nullptr ? "tenant registered" : "unknown tenant")) {
    return false;
  }

  // 1-5. The content-addressed gates — signature (supply-chain trust),
  // SCA (M13), SAST (M14), secret scanning, malware (M16) — run in order
  // behind the content-addressed cache; SAST shards its files on the
  // admission-scan pool.
  return run_scan_gates(report, image_entry, *tenant);
}

PipelineReport DeploymentPipeline::rescan(const DeploymentRequest& request) {
  PipelineReport report;
  admit_prefix(request, report);
  return report;
}

PipelineReport DeploymentPipeline::deploy(const DeploymentRequest& request) {
  PipelineReport report;
  const PlatformConfig& config = platform_->config();
  if (!admit_prefix(request, report)) {
    return report;
  }

  // 6. Cluster admission + scheduling (M10/M11).
  middleware::PodSpec spec;
  spec.name = request.app_name;
  spec.ns = request.tenant;
  spec.container.image = request.image_reference;
  spec.container.limits = request.limits;
  spec.container.privileged = request.privileged;
  spec.container.capabilities = request.capabilities;
  spec.container.host_mounts = request.host_mounts;
  const auto pod = platform_->cluster().create_pod(request.tenant + ":deployer", spec);
  if (!add_stage(report, "admission", true, pod.ok(),
                 pod.ok() ? "scheduled" : pod.error().message())) {
    return report;
  }
  report.pod_ref = *pod;

  // 7. Sandbox policy (M17).
  if (config.sandbox_enabled) {
    platform_->sandbox().add_policy(
        appsec::make_web_workload_policy(request.tenant + "/" + request.app_name));
    add_stage(report, "sandbox", true, true, "policy installed");
  } else {
    add_skipped(report, "sandbox");
  }

  report.deployed = true;
  platform_->logger().info("core.pipeline", "deployed " + report.pod_ref);
  return report;
}

}  // namespace genio::core
