// Admission-scan throughput sweep. One seeded image corpus (all images
// admit cleanly, so every arm performs the full five-gate scan) is pushed
// through the deployment pipeline in three postures:
//   serial        scan_workers=1, scan_cache_capacity=0 — a size-1 pool
//                 runs everything inline;
//   parallel-wK   thread pool sized K in {2,4,8}, cache off;
//   cached        pool of 4 with the content-addressed cache: a cold
//                 round (every admit scans) then a warm round (every
//                 admit replays its cached verdict span).
// For every admission the wall-clock latency is recorded (p50/p99,
// admissions/sec). The pipeline runs its five gates in order on the
// caller, and the SAST gate shards the image's source files on the pool.
// Because CI hosts may expose a single core — where real wall-clock
// parallel speedup is physically impossible — the bench also times each
// piece of that schedule in isolation (per-file SAST; the signature, SCA,
// secrets and YARA gates) and prices an admission at each pool size as
// (signature + SCA + secrets + YARA) + LPT(SAST files, K), where LPT is
// the greedy longest-first makespan. Both numbers are reported, clearly
// labeled.
// Invariants (exit nonzero if any breaks):
//   * serial and parallel reports render byte-identically for every image;
//   * modeled speedup at 4 workers >= 2x over the serial task sum;
//   * warm-cache round >= 5x faster than the cold round (3x in --smoke);
//   * wall-clock speedup at 4 workers >= 2x: serial and 4-worker rounds
//     alternate until each side has run for 0.5 s, and the ratio of the
//     two sides' fastest rounds is gated, only on uninstrumented builds
//     (bench_util.hpp's kSanitized) on a host with >= 4 hardware threads.
// Writes a machine-readable summary to BENCH_pipeline.json (or --out
// PATH). `--smoke` runs a reduced corpus for CI.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

#include "genio/appsec/sast.hpp"
#include "genio/appsec/sca.hpp"
#include "genio/appsec/secrets.hpp"
#include "genio/appsec/yara.hpp"
#include "genio/common/rng.hpp"
#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/core/pipeline.hpp"
#include "genio/core/platform.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace as = genio::appsec;
namespace vl = genio::vuln;
namespace core = genio::core;

namespace {

using genio::bench::Clock;
using genio::bench::kSanitized;
using genio::bench::lpt_makespan;
using genio::bench::Spread;

struct CorpusSpec {
  int images = 24;
  int files_per_image = 24;
  int lines_per_file = 80;
  int packages_per_image = 40;
  int package_pool = 40;
  int cves_per_package = 30;
};

// Scan-heavy but never blocking: the risky lines are high/medium severity
// (eval, weak crypto, unsafe yaml) — no critical SAST rule, no secrets, no
// malware triggers — and every seeded CVE scores below the 9.0 gate.
std::vector<as::ContainerImage> make_corpus(const CorpusSpec& spec) {
  static const char* kLines[] = {
      "import os",
      "def handler(request):",
      "    return transform(request)",
      "value = compute(7)",
      "print(\"serving\")",
      "key = os.getenv(\"API_KEY\")",
      "eval(payload)",
      "digest = hashlib.md5(data)",
      "yaml.load(config_text)",
      "result = query(cursor, params)",
  };
  gc::Rng rng(9090);
  std::vector<as::ContainerImage> corpus;
  corpus.reserve(static_cast<std::size_t>(spec.images));
  for (int i = 0; i < spec.images; ++i) {
    as::ContainerImage image("registry.genio.io/tenant-a/load-" + std::to_string(i),
                             "1.0.0");
    as::ImageLayer layer;
    for (int f = 0; f < spec.files_per_image; ++f) {
      std::string content;
      for (int l = 0; l < spec.lines_per_file; ++l) {
        content += kLines[rng.index(10)];
        content += "\n";
      }
      layer.emplace("/app/f" + std::to_string(f) + ".py", gc::to_bytes(content));
    }
    image.add_layer(std::move(layer));
    for (int p = 0; p < spec.packages_per_image; ++p) {
      image.add_package(
          {"libpkg-" + std::to_string(rng.index(static_cast<std::size_t>(
                           spec.package_pool))),
           gc::Version(static_cast<int>(rng.index(4)),
                       static_cast<int>(rng.index(10)), 0),
           "pypi"});
    }
    image.set_entrypoint("/app/f0.py");
    corpus.push_back(std::move(image));
  }
  return corpus;
}

void seed_cves(core::GenioPlatform& platform, const CorpusSpec& spec) {
  static const char* kVectors[] = {
      "AV:N/AC:L/PR:L/UI:N/S:U/C:H/I:N/A:N",  // ~6.5
      "AV:N/AC:H/PR:L/UI:R/S:U/C:L/I:L/A:N",  // ~4.2
      "AV:L/AC:H/PR:H/UI:R/S:U/C:L/I:N/A:N",  // ~2.x
  };
  int n = 0;
  for (int p = 0; p < spec.package_pool; ++p) {
    for (int j = 0; j < spec.cves_per_package; ++j) {
      vl::CveRecord record;
      record.id = "CVE-LOAD-" + std::to_string(n);
      record.package = "libpkg-" + std::to_string(p);
      record.affected =
          gc::VersionRange::parse("<" + std::to_string(1 + (j % 4)) + ".5.0").value();
      record.cvss = vl::CvssV3::parse(kVectors[n % 3]).value();
      record.published = gc::SimTime::from_hours(n);
      platform.cve_db().upsert(std::move(record));
      ++n;
    }
  }
}

struct Site {
  core::GenioPlatform platform;
  cr::SigningKey publisher = cr::SigningKey::generate(gc::to_bytes("bench-pub"), 6);
  core::DeploymentPipeline pipeline{&platform};

  Site(core::PlatformConfig config, const CorpusSpec& spec,
       const std::vector<as::ContainerImage>& corpus)
      : platform(std::move(config)) {
    (void)platform.register_tenant("tenant-a", publisher.public_key());
    seed_cves(platform, spec);
    for (const auto& image : corpus) {
      (void)platform.registry().push_signed(image, "tenant-a", publisher);
    }
  }
};

std::string render(const core::PipelineReport& report) {
  std::string out = report.image + "|" + report.tenant + "|" +
                    (report.deployed ? "deployed" : "blocked") + "|" + report.pod_ref;
  for (const auto& s : report.stages) {
    out += "\n" + s.name + "|" + (s.ran ? "r" : "-") + (s.passed ? "p" : "F") +
           (s.skipped ? "s" : "-") + (s.degraded ? "d" : "-") +
           (s.failed_open ? "o" : "-") + "|" + s.detail;
  }
  return out;
}

struct RoundResult {
  std::vector<double> admit_ms;          // one entry per admission
  std::vector<std::string> rendered;     // full-fidelity report renderings
  double total_ms = 0.0;
  bool all_deployed = true;

  double percentile(double p) const {
    return admit_ms.empty() ? 0.0 : genio::bench::quantile(admit_ms, p);
  }
  double admissions_per_sec() const {
    return total_ms <= 0.0 ? 0.0
                           : 1000.0 * static_cast<double>(admit_ms.size()) / total_ms;
  }
};

RoundResult run_round(Site& site, const std::vector<as::ContainerImage>& corpus,
                      const std::string& round_tag) {
  RoundResult result;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    core::DeploymentRequest request;
    request.tenant = "tenant-a";
    request.image_reference = corpus[i].reference();
    request.app_name = "load-" + std::to_string(i) + "-" + round_tag;
    request.limits = {0.02, 16};  // hundreds of pods fit one node
    const auto start = Clock::now();
    const auto report = site.pipeline.deploy(request);
    result.admit_ms.push_back(1e3 * genio::bench::seconds_since(start));
    result.total_ms += result.admit_ms.back();
    result.all_deployed &= report.deployed;
    result.rendered.push_back(render(report));
  }
  return result;
}

// -- modeled makespan ---------------------------------------------------------
// One admission is the four cheap gates in order on the caller, then the
// SAST gate's files sharded on the pool. Each piece is timed in isolation
// (best of 3), and an LPT-greedy schedule of the files — longest to the
// least-loaded worker, the greedy the pool approximates — prices the SAST
// gate at every pool size.

struct AdmissionCost {
  std::vector<double> sast_files;  // ms per source file
  double other_gates = 0.0;        // ms: signature + SCA + secrets + YARA

  double makespan(std::size_t workers) const {
    return other_gates + lpt_makespan(sast_files, workers);
  }
};

AdmissionCost measure_admission(const as::ContainerImage& image, Site& site) {
  const auto best_of_3 = [](const std::function<void()>& fn) {
    return 1e3 * genio::bench::time_calls(0, 3, 1, fn).min;
  };

  AdmissionCost cost;
  const as::SastEngine engine = as::make_default_sast_engine();
  for (const auto& file : as::extract_sources(image)) {
    cost.sast_files.push_back(best_of_3([&] { (void)engine.analyze(file); }));
  }
  const as::ScaScanner sca(&site.platform.cve_db());
  cost.other_gates += best_of_3([&] { (void)sca.scan(image); });
  const auto entry = site.platform.registry().pull(image.reference());
  if (entry.ok()) {
    cost.other_gates += best_of_3([&] {
      (void)as::verify_image(**entry, site.publisher.public_key());
    });
  }
  const as::SecretScanner secrets;
  cost.other_gates += best_of_3([&] { (void)secrets.scan_image(image); });
  const as::YaraScanner yara = as::make_default_malware_scanner();
  cost.other_gates += best_of_3([&] { (void)yara.scan_image(image); });
  return cost;
}

// -- wall speedup --------------------------------------------------------------
// One serial round against one 4-worker round reads whatever state the host
// was in for those few milliseconds. Instead the two sites alternate rounds,
// each deploying the corpus under fresh app names, until each side has run
// for kWallSideMs, and the speedup is the ratio of the sides' fastest rounds,
// so both are compared in the host's fast state whenever any round saw it.

constexpr double kWallSideMs = 500.0;

struct WallSpeedup {
  Spread serial_ms, parallel_ms;  // per round
  std::size_t rounds = 0;         // per side
  double ratio() const { return serial_ms.min / std::max(parallel_ms.min, 1e-9); }
};

WallSpeedup alternate_rounds(Site& serial, Site& parallel,
                             const std::vector<as::ContainerImage>& corpus) {
  std::vector<double> serial_ms, parallel_ms;
  double serial_total = 0.0;
  double parallel_total = 0.0;
  while (serial_total < kWallSideMs || parallel_total < kWallSideMs) {
    const std::string tag = "alt-" + std::to_string(serial_ms.size());
    serial_ms.push_back(run_round(serial, corpus, tag).total_ms);
    parallel_ms.push_back(run_round(parallel, corpus, tag).total_ms);
    serial_total += serial_ms.back();
    parallel_total += parallel_ms.back();
  }
  return {genio::bench::spread(serial_ms), genio::bench::spread(parallel_ms), serial_ms.size()};
}

struct ArmSummary {
  std::string name;
  std::size_t workers = 1;
  RoundResult round;
  double modeled_ms = 0.0;  // Σ per-image modeled makespan; 0 = not modeled
};

void write_json(const genio::bench::Args& args, const CorpusSpec& spec, unsigned hw,
                const std::vector<ArmSummary>& arms, const RoundResult& cold,
                const RoundResult& warm, double modeled_serial_ms, bool determinism_ok,
                double modeled_speedup_4, const WallSpeedup& wall, double warm_speedup,
                bool invariants_hold) {
  genio::bench::Json json(args.out, "pipeline_throughput", args.smoke);
  json.field("warmup", "one throwaway site + admission before timing");
  json.object("corpus").field("images", spec.images).field("files_per_image", spec.files_per_image)
      .field("lines_per_file", spec.lines_per_file)
      .field("packages_per_image", spec.packages_per_image)
      .field("cve_records", spec.package_pool * spec.cves_per_package).close();
  json.array("arms");
  for (const ArmSummary& arm : arms) {
    json.object().field("name", arm.name).field("workers", arm.workers)
        .field("wall_total_ms", arm.round.total_ms, 3)
        .field("wall_p50_ms", arm.round.percentile(0.50), 3)
        .field("wall_p99_ms", arm.round.percentile(0.99), 3)
        .field("admissions_per_sec", arm.round.admissions_per_sec(), 1);
    if (arm.modeled_ms > 0.0) {
      json.field("modeled_makespan_ms", arm.modeled_ms, 3)
          .field("modeled_speedup", modeled_serial_ms / arm.modeled_ms, 2)
          .field("modeled_admissions_per_sec",
                 1000.0 * static_cast<double>(arm.round.admit_ms.size()) / arm.modeled_ms, 1);
    }
    json.close();
  }
  json.close();
  json.object("cache")
      .field("cold_total_ms", cold.total_ms, 3).field("warm_total_ms", warm.total_ms, 3)
      .field("cold_p50_ms", cold.percentile(0.50), 3).field("warm_p50_ms", warm.percentile(0.50), 3)
      .field("warm_admissions_per_sec", warm.admissions_per_sec(), 1)
      .field("warm_speedup_wall", warm_speedup, 2).close();
  json.field("determinism_identical", determinism_ok);
  json.field("modeled_speedup_at_4_workers", modeled_speedup_4, 2);
  json.object("wall_alternating").field("rounds_per_side", wall.rounds);
  json.field("serial_round_ms", wall.serial_ms, 3).field("w4_round_ms", wall.parallel_ms, 3);
  json.field("serial_fastest_ms", wall.serial_ms.min, 3)
      .field("w4_fastest_ms", wall.parallel_ms.min, 3).close();
  json.field("wall_speedup_at_4_workers", wall.ratio(), 2);
  json.field("wall_floor_enforced", hw >= 4 && !kSanitized);
  json.field("warm_cache_speedup", warm_speedup, 2);
  // Headline admissions/sec comparison. On hosts with >= 4 cores the wall
  // numbers carry the claim; on smaller hosts the model over measured gate
  // and file costs stands in, and the basis field says so.
  const bool wall_basis = hw >= 4;
  const double serial = arms.empty() ? 0.0 : arms.front().round.admissions_per_sec();
  const double speedup = wall_basis ? wall.ratio() : modeled_speedup_4;
  json.object("summary").field("admissions_per_sec_serial", serial, 1)
      .field("admissions_per_sec_4_workers", speedup * serial, 1)
      .field("admissions_per_sec_warm_cache", warm.admissions_per_sec(), 1)
      .field("speedup_at_4_workers", speedup, 2)
      .field("speedup_basis", wall_basis ? "wall-clock" : "modeled-lpt (host has < 4 cores)")
      .close();
  json.field("invariants_hold", invariants_hold);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = genio::bench::parse_args(argc, argv, "BENCH_pipeline.json");
  const bool smoke = args.smoke;

  CorpusSpec spec;
  if (smoke) {
    spec = {.images = 8,
            .files_per_image = 8,
            .lines_per_file = 30,
            .packages_per_image = 12,
            .package_pool = 12,
            .cves_per_package = 5};
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const auto corpus = make_corpus(spec);
  std::printf("=== admission-scan sweep: %d images x %d files x %d "
              "packages, %d CVEs, %u hardware threads ===\n\n",
              spec.images, spec.files_per_image, spec.packages_per_image,
              spec.package_pool * spec.cves_per_package, hw);

  // -- warm-up ---------------------------------------------------------------
  // One throwaway site admits a single image before any clock starts: this
  // populates lazily built tables (SAST rule compilation, CVE index, CRC
  // slices), faults in the allocator arenas, and takes first-call costs out
  // of the serial arm's p99. The warm-up site is discarded so the timed
  // arms still measure cold-cache admission semantics.
  {
    core::PlatformConfig warm_config;
    warm_config.scan_workers = 1;
    warm_config.scan_cache_capacity = 0;
    const std::vector<as::ContainerImage> warm_corpus(corpus.begin(),
                                                      corpus.begin() + 1);
    Site warm_site(warm_config, spec, warm_corpus);
    (void)run_round(warm_site, warm_corpus, "warmup");
  }

  // -- arms ------------------------------------------------------------------
  std::vector<ArmSummary> arms;

  core::PlatformConfig serial_config;
  serial_config.scan_workers = 1;
  serial_config.scan_cache_capacity = 0;
  Site serial_site(serial_config, spec, corpus);
  const RoundResult serial_round = run_round(serial_site, corpus, "serial");
  arms.push_back({"serial", 1, serial_round, 0.0});

  // Per-admission costs against the serial site's database: the modeled
  // serial cost is the sum of every piece, the modeled parallel cost adds
  // the SAST files' LPT makespan at each pool size to the other gates.
  double modeled_serial_ms = 0.0;
  std::vector<AdmissionCost> costs;
  costs.reserve(corpus.size());
  for (const auto& image : corpus) {
    costs.push_back(measure_admission(image, serial_site));
    modeled_serial_ms += costs.back().makespan(1);
  }

  bool determinism_ok = serial_round.all_deployed;
  double modeled_speedup_4 = 0.0;
  for (const std::size_t workers : {2u, 4u, 8u}) {
    core::PlatformConfig config;
    config.scan_workers = static_cast<int>(workers);
    config.scan_cache_capacity = 0;
    Site site(config, spec, corpus);
    ArmSummary arm;
    arm.name = "parallel-w" + std::to_string(workers);
    arm.workers = workers;
    arm.round = run_round(site, corpus, "serial");  // same app names: reports
                                                    // must render identically
    for (const auto& cost : costs) arm.modeled_ms += cost.makespan(workers);
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (arm.round.rendered[i] != serial_round.rendered[i]) {
        determinism_ok = false;
        std::fprintf(stderr,
                     "DIVERGENCE %s image %zu\n--- serial ---\n%s\n--- %s ---\n%s\n",
                     arm.name.c_str(), i, serial_round.rendered[i].c_str(),
                     arm.name.c_str(), arm.round.rendered[i].c_str());
      }
    }
    if (workers == 4) modeled_speedup_4 = modeled_serial_ms / std::max(arm.modeled_ms, 1e-9);
    arms.push_back(std::move(arm));
  }

  core::PlatformConfig w4_config;
  w4_config.scan_workers = 4;
  w4_config.scan_cache_capacity = 0;
  Site w4_site(w4_config, spec, corpus);
  const WallSpeedup wall = alternate_rounds(serial_site, w4_site, corpus);

  core::PlatformConfig cached_config;
  cached_config.scan_workers = 4;
  cached_config.scan_cache_capacity = corpus.size() * 2;
  Site cached_site(cached_config, spec, corpus);
  const RoundResult cold = run_round(cached_site, corpus, "cold");
  const RoundResult warm = run_round(cached_site, corpus, "warm");
  const double warm_speedup = cold.total_ms / std::max(warm.total_ms, 1e-9);
  const auto cache_stats = cached_site.pipeline.scan_cache().stats();
  arms.push_back({"cached-cold-w4", 4, cold, 0.0});
  arms.push_back({"cached-warm-w4", 4, warm, 0.0});

  // -- report ----------------------------------------------------------------
  gc::Table table({"arm", "workers", "wall total ms", "p50 ms", "p99 ms",
                   "admits/s", "modeled ms", "modeled speedup"});
  for (const auto& arm : arms) {
    table.add_row({arm.name, std::to_string(arm.workers),
                   gc::format_double(arm.round.total_ms, 1),
                   gc::format_double(arm.round.percentile(0.50), 2),
                   gc::format_double(arm.round.percentile(0.99), 2),
                   gc::format_double(arm.round.admissions_per_sec(), 1),
                   arm.modeled_ms > 0.0 ? gc::format_double(arm.modeled_ms, 1) : "-",
                   arm.modeled_ms > 0.0
                       ? gc::format_double(modeled_serial_ms / arm.modeled_ms, 2)
                       : "-"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("cache: %llu hits / %llu misses, warm speedup %.1fx (wall)\n",
              static_cast<unsigned long long>(cache_stats.hits),
              static_cast<unsigned long long>(cache_stats.misses),
              warm_speedup);
  std::printf("modeled speedup at 4 workers: %.2fx (other gates + LPT over measured SAST "
              "files)\n",
              modeled_speedup_4);
  std::printf("wall speedup at 4 workers: fastest serial round %.2f ms (median %.2f) vs "
              "4-worker %.2f ms (%.2f) over %zu alternating rounds each = %.2fx on %u "
              "threads\n\n",
              wall.serial_ms.min, wall.serial_ms.median, wall.parallel_ms.min,
              wall.parallel_ms.median, wall.rounds, wall.ratio(), hw);

  // -- invariants ------------------------------------------------------------
  genio::bench::Gate gate({genio::bench::kInvariants});
  gate.check(determinism_ok,
             "serial and parallel reports render byte-identically and all deploy");
  gate.check(cold.all_deployed && warm.all_deployed, "cached rounds all deploy");
  gate.check(warm.rendered.size() == cold.rendered.size(), "cache round sizes match");
  gate.check(cache_stats.hits >= corpus.size(), "warm round served from cache");
  gate.check(modeled_speedup_4 >= 2.0, "modeled speedup at 4 workers >= 2x");
  gate.check(warm_speedup >= (smoke ? 3.0 : 5.0),
             smoke ? "warm cache >= 3x (smoke)" : "warm cache >= 5x");
  if (kSanitized) {
    std::printf("note: wall-speedup floor reported but not enforced — sanitizer "
                "instrumentation distorts relative path costs\n");
  } else if (hw < 4) {
    std::printf("note: wall-speedup floor skipped — only %u hardware "
                "thread(s); modeled makespan stands in\n",
                hw);
  } else {
    gate.check(wall.ratio() >= 2.0,
               "wall speedup at 4 workers >= 2x, fastest alternating rounds (hw >= 4)");
  }

  write_json(args, spec, hw, arms, cold, warm, modeled_serial_ms, determinism_ok,
             modeled_speedup_4, wall, warm_speedup, gate.ok());
  return gate.exit_code();
}
