// E-L4 — Lesson 4: "The maturity of automated scanning solutions
// facilitated smooth integration; APT GPG signatures are a reliable and
// straightforward solution." Measures host CVE-scan throughput as the
// package count grows, SCAP benchmark evaluation cost, the verify cost
// of the two signed-update channels (APT-like vs ONIE-like), and — for
// the M14 SAST engine — scan throughput plus a false-positive-rate
// comparison of the legacy regex pass against the taint dataflow pass
// on a labeled corpus.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "sast_corpus.hpp"

#include "genio/appsec/sast.hpp"
#include "genio/hardening/scap.hpp"
#include "genio/os/apt.hpp"
#include "genio/os/onie.hpp"
#include "genio/vuln/scanner.hpp"

namespace as = genio::appsec;
namespace gc = genio::common;
namespace cr = genio::crypto;
namespace os = genio::os;
namespace vn = genio::vuln;

namespace {

os::Host make_host_with_packages(int count) {
  os::Host host = os::make_stock_onl_host("olt-1");
  for (int i = 0; i < count; ++i) {
    host.install_package("pkg-" + std::to_string(i),
                         gc::Version(1, i % 20, i % 7), "onl");
  }
  return host;
}

vn::CveDatabase make_db(int cve_count) {
  vn::CveDatabase db;
  for (int i = 0; i < cve_count; ++i) {
    vn::CveRecord record;
    record.id = "CVE-2024-" + std::to_string(10000 + i);
    record.package = "pkg-" + std::to_string(i % 500);
    record.affected = gc::VersionRange::parse("<1." + std::to_string(i % 20) + ".9").value();
    record.cvss = vn::CvssV3::parse("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N").value();
    db.upsert(std::move(record));
  }
  return db;
}

void BM_HostCveScan(benchmark::State& state) {
  const int packages = static_cast<int>(state.range(0));
  const auto host = make_host_with_packages(packages);
  const auto db = make_db(2000);
  const vn::HostVulnScanner scanner(&db);
  for (auto _ : state) {
    const auto report = scanner.scan(host);
    benchmark::DoNotOptimize(report.findings.size());
  }
  state.SetItemsProcessed(state.iterations() * packages);
}
BENCHMARK(BM_HostCveScan)->Arg(50)->Arg(200)->Arg(1000)->Unit(benchmark::kMicrosecond);

void BM_ScapEvaluate(benchmark::State& state) {
  const auto host = os::make_stock_onl_host("olt-1");
  const auto bench = genio::hardening::make_scap_benchmark();
  for (auto _ : state) {
    const auto report = bench.evaluate(host);
    benchmark::DoNotOptimize(report.failed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(bench.rule_count()));
}
BENCHMARK(BM_ScapEvaluate);

void BM_AptVerifyInstall(benchmark::State& state) {
  os::AptRepository repo("genio-main", cr::SigningKey::generate(gc::to_bytes("rk"), 12));
  repo.add_package({"tool", gc::Version(1, 0, 0), gc::Bytes(64 * 1024, 0x7f)});
  const auto snapshot = repo.snapshot().value();
  os::AptClient client;
  client.trust_key("genio-main", repo.public_key());
  os::Host host;
  for (auto _ : state) {
    const auto st = client.install(host, snapshot, "tool");
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetLabel("64KiB package, signed metadata");
}
BENCHMARK(BM_AptVerifyInstall)->Unit(benchmark::kMicrosecond);

void BM_OnieVerifyInstall(benchmark::State& state) {
  auto ca = cr::CertificateAuthority::create_root("rel", gc::to_bytes("ca"),
                                                  gc::SimTime::from_days(0),
                                                  gc::SimTime::from_days(3650), 4);
  cr::TrustStore trust;
  trust.add_root(ca.certificate());
  auto builder = cr::SigningKey::generate(gc::to_bytes("b"), 12);
  const auto cert = ca.issue("builder", builder.public_key(), gc::SimTime::from_days(0),
                             gc::SimTime::from_days(3650),
                             {cr::KeyUsage::kCodeSigning})
                        .value();
  const auto image =
      os::make_signed_image("onl-update", gc::Version(4, 19, 200),
                            gc::Bytes(1024 * 1024, 0x3c), builder,
                            {cert, ca.certificate()})
          .value();
  os::Tpm tpm(gc::to_bytes("tpm"));
  os::OnieInstaller installer(&trust, &tpm);
  os::Host host = os::make_stock_onl_host("olt-1");
  for (auto _ : state) {
    const auto st = installer.install(host, image, gc::SimTime::from_days(1));
    benchmark::DoNotOptimize(st.ok());
  }
  state.SetLabel("1MiB image, chain + detached signature + TPM measure");
}
BENCHMARK(BM_OnieVerifyInstall)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------- M14 SAST

using genio::bench::LabeledSource;

std::vector<LabeledSource> make_sast_corpus() {
  return genio::bench::make_legacy_sast_corpus();
}

/// Does the engine raise an actionable critical finding for this file?
bool flags_file(const as::SastEngine& engine, const as::SourceFile& file) {
  for (const auto& finding : engine.analyze(file)) {
    if (finding.severity == "critical" && as::SastEngine::is_actionable(finding)) {
      return true;
    }
  }
  return false;
}

struct AccuracyStats {
  int true_positives = 0;
  int false_positives = 0;
  int vulnerable = 0;
  int safe = 0;

  double detection_rate() const {
    return vulnerable == 0 ? 0.0 : static_cast<double>(true_positives) / vulnerable;
  }
  double fp_rate() const {
    return safe == 0 ? 0.0 : static_cast<double>(false_positives) / safe;
  }
};

AccuracyStats measure_accuracy(bool taint_enabled) {
  as::SastEngine engine = as::make_default_sast_engine();
  engine.set_taint_enabled(taint_enabled);
  AccuracyStats stats;
  for (const auto& entry : make_sast_corpus()) {
    const bool flagged = flags_file(engine, entry.file);
    if (entry.vulnerable) {
      ++stats.vulnerable;
      stats.true_positives += flagged ? 1 : 0;
    } else {
      ++stats.safe;
      stats.false_positives += flagged ? 1 : 0;
    }
  }
  return stats;
}

void BM_SastLegacyRegexScan(benchmark::State& state) {
  as::SastEngine engine = as::make_default_sast_engine();
  engine.set_taint_enabled(false);
  const auto corpus = make_sast_corpus();
  for (auto _ : state) {
    std::size_t findings = 0;
    for (const auto& entry : corpus) findings += engine.analyze(entry.file).size();
    benchmark::DoNotOptimize(findings);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.size()));
}
BENCHMARK(BM_SastLegacyRegexScan)->Unit(benchmark::kMicrosecond);

void BM_SastTaintDataflowScan(benchmark::State& state) {
  as::SastEngine engine = as::make_default_sast_engine();
  const auto corpus = make_sast_corpus();
  for (auto _ : state) {
    std::size_t findings = 0;
    for (const auto& entry : corpus) findings += engine.analyze(entry.file).size();
    benchmark::DoNotOptimize(findings);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(corpus.size()));
}
BENCHMARK(BM_SastTaintDataflowScan)->Unit(benchmark::kMicrosecond);

/// Printed after the timing runs; exits nonzero if the dataflow pass does
/// not strictly improve the false-positive rate over the legacy regexes.
int report_sast_accuracy() {
  const AccuracyStats legacy = measure_accuracy(/*taint_enabled=*/false);
  const AccuracyStats taint = measure_accuracy(/*taint_enabled=*/true);
  std::printf("\nSAST accuracy on labeled corpus (%d vulnerable, %d safe)\n",
              legacy.vulnerable, legacy.safe);
  std::printf("  %-22s detection %.2f  false-positive rate %.2f\n",
              "legacy regex only:", legacy.detection_rate(), legacy.fp_rate());
  std::printf("  %-22s detection %.2f  false-positive rate %.2f\n",
              "taint + regex:", taint.detection_rate(), taint.fp_rate());
  if (taint.fp_rate() >= legacy.fp_rate()) {
    std::printf("FAIL: dataflow pass did not reduce the false-positive rate\n");
    return 1;
  }
  if (taint.detection_rate() < legacy.detection_rate()) {
    std::printf("FAIL: dataflow pass lost detections vs legacy\n");
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return report_sast_accuracy();
}
