// Overload-robust admission service: a modeled million-request day.
// Three tenants (disjoint package namespaces, every tenant one unsigned
// "quarantine" image for blocked outcomes) are primed once, then a full
// simulated day of arrivals is replayed through the AdmissionService:
//   * a base load of mixed critical / deploy / batch traffic,
//   * two deploy-class chaos storms (arrival bursts with a registry
//     outage inside the first and a feed outage inside the second),
//   * two mid-stream CVE feed re-ingests, each followed by
//     enqueue_rescans() over the changed-package diff.
// Per class the bench reports submitted / accepted / shed / deadline /
// deployed counts, queue-to-terminal p50/p99 sim latency, plus cache
// hit-rate and the full/targeted invalidation split. A separate contrast
// arm re-admits an identical fleet after one re-ingest under incremental
// vs full-dump invalidation and compares the cache misses each pays.
// Invariants (exit nonzero if any breaks):
//   * zero critical-class sheds (watermark or displacement);
//   * zero gate bypasses: no stage ever fails open across the whole day;
//   * backlog high water <= configured total capacity (bounded memory);
//   * every shed is audited: bus shed events == counted sheds;
//   * post-re-ingest cold scans touch only manifest-affected images;
//   * day-wide cache hit rate >= 0.95 (0.90 in --smoke);
//   * incremental invalidation pays fewer post-ingest misses than a
//     full dump, and exactly the affected-image count;
//   * the per-class accounting identity balances after the final drain.
// Writes a machine-readable summary to BENCH_admission.json (or --out
// PATH). `--smoke` runs a reduced day for CI.
#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench_util.hpp"

#include "genio/common/rng.hpp"
#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/core/admission_service.hpp"
#include "genio/core/platform.hpp"
#include "genio/resilience/chaos.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace as = genio::appsec;
namespace vl = genio::vuln;
namespace core = genio::core;

namespace {

constexpr int kTenants = 3;
constexpr int kPackagePool = 8;  // per-tenant package namespace size

struct DaySpec {
  int images_per_tenant = 12;
  gc::SimTime day = gc::SimTime::from_hours(24);
  double base_rate = 8.0;    // arrivals per sim second, all day
  double storm_rate = 400.0; // extra deploy-class arrivals per sim second
  gc::SimTime storm_len = gc::SimTime::from_seconds(600);
  std::vector<gc::SimTime> storm_at = {gc::SimTime::from_hours(6),
                                       gc::SimTime::from_hours(16)};
  std::vector<gc::SimTime> reingest_at = {gc::SimTime::from_hours(9),
                                          gc::SimTime::from_hours(18)};
  double hit_rate_floor = 0.95;
};

std::string tenant_name(int t) { return "tenant-" + std::string(1, static_cast<char>('a' + t)); }
std::string package_name(int t, int p) {
  return "pkg-" + std::string(1, static_cast<char>('a' + t)) + "-" + std::to_string(p);
}

// Each signed image carries three consecutive packages from its tenant's
// pool, so the manifest/changed-package intersection is deterministic.
as::ContainerImage make_signed_image(int t, int i) {
  as::ContainerImage image(
      "registry.genio.io/" + tenant_name(t) + "/svc-" + std::to_string(i), "1.0.0");
  as::ImageLayer layer;
  layer.emplace("/app/main.py",
                gc::to_bytes("import os\ndef handler(request):\n    return transform(request)\n"));
  image.add_layer(std::move(layer));
  for (int k = 0; k < 3; ++k) {
    image.add_package({package_name(t, (i + k) % kPackagePool), gc::Version(1, 2, 0), "pypi"});
  }
  image.set_entrypoint("/app/main.py");
  return image;
}

// The unsigned image: pushed without a signature so every admit blocks at
// the signature gate. Its package never appears in any re-ingest diff.
as::ContainerImage make_unsigned_image(int t) {
  as::ContainerImage image("registry.genio.io/" + tenant_name(t) + "/quarantine", "0.1.0");
  as::ImageLayer layer;
  layer.emplace("/app/run.py", gc::to_bytes("print(\"untrusted\")\n"));
  image.add_layer(std::move(layer));
  image.add_package({"pkg-quarantine", gc::Version(0, 1, 0), "pypi"});
  image.set_entrypoint("/app/run.py");
  return image;
}

// Every advisory scores below the 9.0 block threshold: the day's verdicts
// are decided by gates, not by the corpus.
void seed_cves(vl::CveDatabase& db) {
  int n = 0;
  for (int t = 0; t < kTenants; ++t) {
    for (int p = 0; p < kPackagePool; ++p) {
      for (int j = 0; j < 2; ++j) {
        vl::CveRecord record;
        record.id = "CVE-DAY-" + std::to_string(n);
        record.package = package_name(t, p);
        record.affected = gc::VersionRange::parse("<2.0.0").value();
        record.cvss =
            vl::CvssV3::parse("AV:N/AC:H/PR:L/UI:R/S:U/C:L/I:L/A:N").value();
        record.published = gc::SimTime::from_hours(n);
        db.upsert(std::move(record));
        ++n;
      }
    }
  }
}

// Re-publish the advisories of `packages` with a later timestamp and a
// wider affected range: each upsert is accepted, bumps the revision, and
// lands the package in packages_changed_since().
void reingest_feed(vl::CveDatabase& db, const std::vector<std::string>& packages,
                   int wave) {
  int n = 0;
  for (const auto& package : packages) {
    vl::CveRecord record;
    record.id = "CVE-WAVE" + std::to_string(wave) + "-" + std::to_string(n++);
    record.package = package;
    record.affected = gc::VersionRange::parse("<3.0.0").value();
    record.cvss = vl::CvssV3::parse("AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:N/A:N").value();
    record.published = gc::SimTime::from_hours(20000 + 100 * wave + n);
    db.upsert(std::move(record));
  }
}

struct Site {
  core::GenioPlatform platform;
  std::vector<cr::SigningKey> publishers;
  core::DeploymentPipeline pipeline{&platform};
  std::vector<std::vector<as::ContainerImage>> images;  // [tenant][i]
  std::vector<as::ContainerImage> unsigned_images;      // [tenant]

  Site(core::PlatformConfig config, const DaySpec& spec)
      : platform(std::move(config)) {
    for (int t = 0; t < kTenants; ++t) {
      publishers.push_back(
          cr::SigningKey::generate(gc::to_bytes("pub-" + tenant_name(t)), 6));
      (void)platform.register_tenant(tenant_name(t), publishers.back().public_key());
      images.emplace_back();
      for (int i = 0; i < spec.images_per_tenant; ++i) {
        images.back().push_back(make_signed_image(t, i));
        (void)platform.registry().push_signed(images.back().back(), tenant_name(t),
                                              publishers.back());
      }
      unsigned_images.push_back(make_unsigned_image(t));
      (void)platform.registry().push(unsigned_images.back(), tenant_name(t));
    }
    seed_cves(platform.cve_db());
  }

  core::DeploymentRequest request_for(int t, int i) const {
    core::DeploymentRequest request;
    request.tenant = tenant_name(t);
    request.image_reference = images[t][static_cast<std::size_t>(i)].reference();
    request.app_name = "svc-" + std::string(1, static_cast<char>('a' + t)) + "-" +
                       std::to_string(i);
    request.limits = {0.02, 16};
    return request;
  }

  core::DeploymentRequest unsigned_request_for(int t) const {
    core::DeploymentRequest request;
    request.tenant = tenant_name(t);
    request.image_reference = unsigned_images[static_cast<std::size_t>(t)].reference();
    request.app_name = "quarantine-" + std::string(1, static_cast<char>('a' + t));
    request.limits = {0.02, 16};
    return request;
  }

  /// Image references whose manifest intersects `changed` — the set a
  /// targeted re-ingest is allowed to re-score.
  std::set<std::string> affected_references(const std::vector<std::string>& changed) const {
    const std::set<std::string> changed_set(changed.begin(), changed.end());
    std::set<std::string> affected;
    for (const auto& tenant_images : images) {
      for (const auto& image : tenant_images) {
        for (const auto& package : image.manifest()) {
          if (changed_set.count(package.name) != 0) {
            affected.insert(image.reference());
            break;
          }
        }
      }
    }
    return affected;
  }
};

struct DayResult {
  std::array<core::AdmitClassStats, core::kAdmitClasses> stats;
  std::uint64_t submitted = 0;
  std::uint64_t completions = 0;       // terminal outcomes incl. sheds
  std::uint64_t gate_bypasses = 0;     // stages that failed open (must be 0)
  std::uint64_t bus_shed_events = 0;
  std::uint64_t offtarget_cold_scans = 0;  // post-ingest cold scans outside
                                           // the affected set (must be 0)
  std::uint64_t rescans_enqueued = 0;
  std::size_t backlog_high_water = 0;
  std::size_t total_capacity = 0;
  core::ScanCacheStats cache{};
  std::uint64_t evictions = 0;
  bool accounting_ok = false;
  double sim_seconds = 0.0;
  double wall_ms = 0.0;

  double percentile(core::AdmitClass cls, double p) const {
    const auto& samples = stats[static_cast<std::size_t>(cls)].latency_seconds;
    if (samples.empty()) return 0.0;
    return genio::bench::quantile(std::vector<double>(samples.begin(), samples.end()), p);
  }
  std::uint64_t total_sheds() const {
    std::uint64_t n = 0;
    for (const auto& s : stats) n += s.sheds();
    return n;
  }
  double hit_rate() const {
    const double total = static_cast<double>(cache.hits + cache.misses);
    return total <= 0.0 ? 1.0 : static_cast<double>(cache.hits) / total;
  }
  double processed_per_sim_sec() const {
    std::uint64_t processed = 0;
    for (const auto& s : stats) {
      processed += s.deployed + s.blocked + s.deadline_exceeded + s.coalesced;
    }
    return sim_seconds <= 0.0 ? 0.0 : static_cast<double>(processed) / sim_seconds;
  }
};

DayResult run_day(const DaySpec& spec) {
  core::PlatformConfig config;
  config.scan_cache_capacity =
      static_cast<std::size_t>(kTenants * (spec.images_per_tenant + 1)) * 4;
  Site site(config, spec);
  core::AdmissionServiceConfig service_config;  // defaults: 256 total, 64/tenant
  core::AdmissionService service(&site.platform, &site.pipeline, service_config);

  DayResult result;
  result.total_capacity = service_config.total_capacity;

  site.platform.bus().subscribe("admission.shed", [&](const gc::Event&) {
    ++result.bus_shed_events;
  });

  // The completion callback is the audit point: gate bypasses and
  // off-target post-ingest cold scans are counted as requests finish.
  std::set<std::string> affected_refs;
  bool reingested = false;
  service.set_completion_callback(
      [&](const core::AdmitRecord& record, const core::PipelineReport* report) {
        if (report != nullptr) {
          for (const auto& stage : report->stages) {
            if (stage.failed_open) ++result.gate_bypasses;
          }
        }
        if (reingested && record.cold_scan &&
            affected_refs.count(record.image_reference) == 0) {
          ++result.offtarget_cold_scans;
        }
      });

  // -- prime -----------------------------------------------------------------
  // Deploy every workload once (and admit every unsigned image once) so the
  // cache holds a verdict for the whole fleet before the day starts.
  for (int t = 0; t < kTenants; ++t) {
    for (int i = 0; i < spec.images_per_tenant; ++i) {
      (void)service.submit(site.request_for(t, i), core::AdmitClass::kCriticalInfra);
    }
    (void)service.submit(site.unsigned_request_for(t), core::AdmitClass::kTenantDeploy);
    (void)service.pump(spec.images_per_tenant + 1);
  }

  // -- chaos schedule --------------------------------------------------------
  const gc::SimTime t0 = site.platform.clock().now();
  using genio::resilience::FaultKind;
  using genio::resilience::FaultSpec;
  if (!spec.storm_at.empty()) {
    (void)site.platform.chaos().schedule(
        {.kind = FaultKind::kRegistryOutage,
         .target = "registry",
         .at = t0 + spec.storm_at[0] + gc::SimTime::from_seconds(60),
         .duration = gc::SimTime::from_seconds(180)});
  }
  if (spec.storm_at.size() > 1) {
    (void)site.platform.chaos().schedule(
        {.kind = FaultKind::kFeedOutage,
         .target = "cve-feed",
         .at = t0 + spec.storm_at[1] + gc::SimTime::from_seconds(60),
         .duration = gc::SimTime::from_seconds(120)});
  }

  const auto in_storm = [&](gc::SimTime now) {
    for (const auto& at : spec.storm_at) {
      if (now >= t0 + at && now < t0 + at + spec.storm_len) return true;
    }
    return false;
  };

  // -- the day ---------------------------------------------------------------
  gc::Rng rng(20260808);
  const gc::SimTime day_end = t0 + spec.day;
  const gc::SimTime one_second = gc::SimTime::from_seconds(1);
  gc::SimTime covered = t0;  // arrivals are generated for [covered, tick_end)
  std::size_t next_reingest = 0;
  std::uint64_t reingest_baseline = site.platform.cve_db().revision();
  const auto wall_start = genio::bench::Clock::now();

  while (site.platform.clock().now() < day_end) {
    const gc::SimTime tick_start = site.platform.clock().now();
    const gc::SimTime tick_end = std::min(tick_start + one_second, day_end);

    // Feed re-ingest wave: diff the changed packages, queue targeted
    // re-scans, and widen the affected set the invariant checks against.
    if (next_reingest < spec.reingest_at.size() &&
        tick_start >= t0 + spec.reingest_at[next_reingest]) {
      const int wave = static_cast<int>(next_reingest);
      std::vector<std::string> touched = {
          package_name(wave % kTenants, 2 * wave),
          package_name(wave % kTenants, 2 * wave + 1)};
      reingest_feed(site.platform.cve_db(), touched, wave);
      const auto changed =
          site.platform.cve_db().packages_changed_since(reingest_baseline);
      for (const auto& reference : site.affected_references(changed)) {
        affected_refs.insert(reference);
      }
      result.rescans_enqueued += service.enqueue_rescans(changed);
      reingest_baseline = site.platform.cve_db().revision();
      reingested = true;
      ++next_reingest;
    }

    // Arrivals for the window this tick covers (the window can span many
    // seconds when the previous tick burned sim time on retry backoff).
    const double window_s = std::max((tick_end - covered).seconds(), 0.0);
    const double rate =
        spec.base_rate + (in_storm(tick_start) ? spec.storm_rate : 0.0);
    const double expected = rate * window_s;
    std::uint64_t arrivals = static_cast<std::uint64_t>(expected);
    if (rng.uniform01() < expected - static_cast<double>(arrivals)) ++arrivals;
    arrivals = std::min<std::uint64_t>(arrivals, 20000);
    covered = tick_end;

    for (std::uint64_t a = 0; a < arrivals; ++a) {
      ++result.submitted;
      const int t = static_cast<int>(rng.index(kTenants));
      const double u = rng.uniform01();
      const int i = static_cast<int>(
          rng.index(static_cast<std::size_t>(spec.images_per_tenant)));
      if (in_storm(tick_start)) {
        // Storm bursts are mostly tenant-deploy floods, but critical and
        // batch traffic keeps arriving underneath — that mix is what the
        // watermarks and the no-starvation guarantee are for.
        if (u < 0.02) {
          (void)service.submit(site.request_for(t, i),
                               core::AdmitClass::kCriticalInfra);
        } else if (u < 0.04) {
          (void)service.submit(site.unsigned_request_for(t),
                               core::AdmitClass::kTenantDeploy);
        } else if (u < 0.12) {
          (void)service.submit_rescan(site.request_for(t, i));
        } else {
          (void)service.submit(site.request_for(t, i),
                               core::AdmitClass::kTenantDeploy);
        }
        continue;
      }
      if (u < 0.02) {
        (void)service.submit(site.request_for(t, i),
                             core::AdmitClass::kCriticalInfra);
      } else if (u < 0.04) {
        (void)service.submit(site.unsigned_request_for(t),
                             core::AdmitClass::kTenantDeploy);
      } else if (u < 0.92) {
        (void)service.submit(site.request_for(t, i),
                             core::AdmitClass::kTenantDeploy);
      } else {
        (void)service.submit_rescan(site.request_for(t, i));
      }
    }

    (void)service.pump_for(one_second);
    const gc::SimTime now = site.platform.clock().now();
    if (now < tick_end) site.platform.advance_time(tick_end - now);
  }

  // Final drain: every queued request reaches a terminal outcome so the
  // accounting identity can be checked exactly.
  while (service.backlog() > 0) (void)service.pump(1024);

  result.wall_ms = 1e3 * genio::bench::seconds_since(wall_start);
  result.sim_seconds = (site.platform.clock().now() - t0).seconds();
  for (std::size_t c = 0; c < core::kAdmitClasses; ++c) {
    result.stats[c] = service.stats(static_cast<core::AdmitClass>(c));
    result.completions += result.stats[c].deployed + result.stats[c].blocked +
                          result.stats[c].deadline_exceeded +
                          result.stats[c].coalesced + result.stats[c].sheds();
  }
  result.backlog_high_water = service.backlog_high_water();
  result.cache = site.pipeline.scan_cache().stats();
  result.evictions = result.cache.evictions;
  result.accounting_ok = service.accounting_consistent();
  return result;
}

// -- contrast arm -------------------------------------------------------------
// Same fleet, one re-ingest, then one full re-admit sweep. Under targeted
// invalidation only manifest-affected entries pay a miss; a full dump
// re-scans the entire fleet.
struct ContrastResult {
  std::uint64_t post_ingest_misses = 0;
  std::size_t rescans_enqueued = 0;
  std::size_t affected_images = 0;
  std::size_t fleet_images = 0;
};

ContrastResult run_contrast(bool incremental, const DaySpec& spec) {
  core::PlatformConfig config;
  config.incremental_invalidation = incremental;
  config.scan_cache_capacity =
      static_cast<std::size_t>(kTenants * (spec.images_per_tenant + 1)) * 4;
  Site site(config, spec);
  core::AdmissionService service(&site.platform, &site.pipeline);

  for (int t = 0; t < kTenants; ++t) {
    for (int i = 0; i < spec.images_per_tenant; ++i) {
      (void)service.submit(site.request_for(t, i), core::AdmitClass::kCriticalInfra);
    }
    (void)service.pump(static_cast<std::size_t>(spec.images_per_tenant));
  }

  ContrastResult result;
  result.fleet_images = static_cast<std::size_t>(kTenants * spec.images_per_tenant);
  const std::uint64_t misses_primed = site.pipeline.scan_cache().stats().misses;
  const std::uint64_t baseline = site.platform.cve_db().revision();
  reingest_feed(site.platform.cve_db(), {package_name(0, 0)}, 9);
  const auto changed = site.platform.cve_db().packages_changed_since(baseline);
  result.affected_images = site.affected_references(changed).size();
  result.rescans_enqueued = service.enqueue_rescans(changed);
  while (service.backlog() > 0) (void)service.pump(64);

  // Re-admit the whole fleet once: unaffected entries should replay their
  // re-keyed verdicts; only a full dump makes them all scan again.
  for (int t = 0; t < kTenants; ++t) {
    for (int i = 0; i < spec.images_per_tenant; ++i) {
      (void)service.submit(site.request_for(t, i), core::AdmitClass::kTenantDeploy);
    }
    (void)service.pump(static_cast<std::size_t>(spec.images_per_tenant));
  }
  result.post_ingest_misses = site.pipeline.scan_cache().stats().misses - misses_primed;
  return result;
}

const char* class_name(std::size_t c) {
  switch (static_cast<core::AdmitClass>(c)) {
    case core::AdmitClass::kCriticalInfra: return "critical";
    case core::AdmitClass::kTenantDeploy: return "deploy";
    case core::AdmitClass::kBatchRescan: return "batch";
  }
  return "?";
}

void write_json(const genio::bench::Args& args, const DaySpec& spec, const DayResult& day,
                const ContrastResult& incr, const ContrastResult& full, bool invariants_hold) {
  genio::bench::Json json(args.out, "admission_service", args.smoke);
  json.object("day")
      .field("sim_hours", spec.day.hours(), 2).field("base_rate_per_s", spec.base_rate, 1)
      .field("storm_rate_per_s", spec.storm_rate, 1).field("storms", spec.storm_at.size())
      .field("reingests", spec.reingest_at.size()).field("wall_ms", day.wall_ms, 1).close();
  json.object("totals").field("submitted", day.submitted).field("completions", day.completions)
      .field("sheds", day.total_sheds())
      .field("processed_per_sim_sec", day.processed_per_sim_sec(), 1)
      .field("backlog_high_water", day.backlog_high_water)
      .field("total_capacity", day.total_capacity).field("gate_bypasses", day.gate_bypasses)
      .field("rescans_enqueued", day.rescans_enqueued).close();
  json.array("classes");
  for (std::size_t c = 0; c < core::kAdmitClasses; ++c) {
    const auto& s = day.stats[c];
    const auto cls = static_cast<core::AdmitClass>(c);
    json.object()
        .field("class", class_name(c)).field("submitted", s.submitted).field("accepted", s.accepted)
        .field("backpressure", s.rejected_backpressure).field("shed_ingress", s.shed_ingress)
        .field("shed_displaced", s.shed_displaced).field("deadline_exceeded", s.deadline_exceeded)
        .field("deployed", s.deployed).field("blocked", s.blocked).field("coalesced", s.coalesced)
        .field("p50_s", day.percentile(cls, 0.50), 3).field("p99_s", day.percentile(cls, 0.99), 3)
        .close();
  }
  json.close();
  json.object("cache").field("hits", day.cache.hits).field("misses", day.cache.misses)
      .field("hit_rate", day.hit_rate(), 4).field("evictions", day.cache.evictions)
      .field("invalidations_full", day.cache.invalidations_full)
      .field("invalidations_targeted", day.cache.invalidations_targeted)
      .field("revision_rekeys", day.cache.revision_rekeys)
      .field("offtarget_cold_scans", day.offtarget_cold_scans).close();
  json.object("contrast")
      .field("fleet_images", incr.fleet_images).field("affected_images", incr.affected_images)
      .field("post_ingest_misses_incremental", incr.post_ingest_misses)
      .field("post_ingest_misses_full_dump", full.post_ingest_misses).close();
  json.field("accounting_consistent", day.accounting_ok).field("invariants_hold", invariants_hold);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = genio::bench::parse_args(argc, argv, "BENCH_admission.json");
  const bool smoke = args.smoke;

  DaySpec spec;
  if (smoke) {
    spec.images_per_tenant = 4;
    spec.day = gc::SimTime::from_hours(2);
    spec.base_rate = 2.0;
    spec.storm_rate = 100.0;
    spec.storm_len = gc::SimTime::from_seconds(300);
    spec.storm_at = {gc::SimTime::from_seconds(1800)};
    spec.reingest_at = {gc::SimTime::from_seconds(3000),
                        gc::SimTime::from_seconds(5400)};
    spec.hit_rate_floor = 0.90;
  }
  std::printf(
      "=== admission service day: %.0fh, base %.0f/s + %zu storm(s) of "
      "+%.0f/s, %zu feed re-ingest(s), %d tenants x %d images ===\n\n",
      spec.day.hours(), spec.base_rate, spec.storm_at.size(), spec.storm_rate,
      spec.reingest_at.size(), kTenants, spec.images_per_tenant);

  // Warm-up: one throwaway site admits one image so first-call costs (SAST
  // rule compilation, CVE index build) stay out of the measured day.
  {
    DaySpec warm_spec = spec;
    warm_spec.images_per_tenant = 1;
    Site warm_site(core::PlatformConfig{}, warm_spec);
    core::AdmissionService warm_service(&warm_site.platform, &warm_site.pipeline);
    (void)warm_service.submit(warm_site.request_for(0, 0),
                              core::AdmitClass::kCriticalInfra);
    (void)warm_service.pump(1);
  }

  const DayResult day = run_day(spec);
  const ContrastResult incr = run_contrast(true, spec);
  const ContrastResult full = run_contrast(false, spec);

  // -- report ----------------------------------------------------------------
  gc::Table table({"class", "submitted", "accepted", "backpressure", "shed",
                   "deadline", "deployed", "blocked", "coalesced", "p50 s",
                   "p99 s"});
  for (std::size_t c = 0; c < core::kAdmitClasses; ++c) {
    const auto& s = day.stats[c];
    table.add_row({class_name(c), std::to_string(s.submitted),
                   std::to_string(s.accepted),
                   std::to_string(s.rejected_backpressure),
                   std::to_string(s.sheds()), std::to_string(s.deadline_exceeded),
                   std::to_string(s.deployed), std::to_string(s.blocked),
                   std::to_string(s.coalesced),
                   gc::format_double(day.percentile(static_cast<core::AdmitClass>(c), 0.50), 3),
                   gc::format_double(day.percentile(static_cast<core::AdmitClass>(c), 0.99), 3)});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "day: %llu submitted, %.1f processed/sim-s, backlog high water %zu/%zu, "
      "wall %.0f ms\n",
      static_cast<unsigned long long>(day.submitted), day.processed_per_sim_sec(),
      day.backlog_high_water, day.total_capacity, day.wall_ms);
  std::printf(
      "cache: %llu hits / %llu misses (%.2f%% hit rate), invalidations %llu "
      "full / %llu targeted, %llu re-keyed\n",
      static_cast<unsigned long long>(day.cache.hits),
      static_cast<unsigned long long>(day.cache.misses), 100.0 * day.hit_rate(),
      static_cast<unsigned long long>(day.cache.invalidations_full),
      static_cast<unsigned long long>(day.cache.invalidations_targeted),
      static_cast<unsigned long long>(day.cache.revision_rekeys));
  std::printf(
      "contrast: re-ingest touching %zu/%zu images costs %llu misses "
      "(incremental) vs %llu (full dump)\n\n",
      incr.affected_images, incr.fleet_images,
      static_cast<unsigned long long>(incr.post_ingest_misses),
      static_cast<unsigned long long>(full.post_ingest_misses));

  // -- invariants ------------------------------------------------------------
  genio::bench::Gate gate({genio::bench::kInvariants});
  const auto& critical =
      day.stats[static_cast<std::size_t>(core::AdmitClass::kCriticalInfra)];
  gate.check(critical.sheds() == 0, "critical class is never shed");
  gate.check(day.gate_bypasses == 0, "no gate ever fails open");
  gate.check(day.backlog_high_water <= day.total_capacity,
             "backlog high water within configured capacity");
  gate.check(day.bus_shed_events == day.total_sheds(),
             "every shed is audited on the event bus");
  gate.check(day.evictions == 0 && day.offtarget_cold_scans == 0,
             "post-re-ingest cold scans only touch affected images");
  gate.check(day.hit_rate() >= spec.hit_rate_floor,
             smoke ? "day-wide cache hit rate >= 0.90 (smoke)"
                   : "day-wide cache hit rate >= 0.95");
  gate.check(day.accounting_ok, "per-class accounting identity balances");
  gate.check(day.total_sheds() > 0 && day.stats[1].rejected_backpressure +
                                              day.stats[2].rejected_backpressure +
                                              day.stats[0].rejected_backpressure >
                                          0,
             "the storms actually exercised shedding and backpressure");
  gate.check(day.stats[1].blocked > 0, "unsigned images were blocked, not deployed");
  gate.check(incr.rescans_enqueued == incr.affected_images,
             "re-scan fan-out equals the affected-image count");
  gate.check(incr.post_ingest_misses == incr.affected_images,
             "incremental invalidation re-scores only affected entries");
  gate.check(full.post_ingest_misses >= static_cast<std::uint64_t>(full.fleet_images),
             "full dump re-scores the entire fleet");
  gate.check(incr.post_ingest_misses < full.post_ingest_misses,
             "incremental invalidation beats a full dump");

  write_json(args, spec, day, incr, full, gate.ok());
  return gate.exit_code();
}
