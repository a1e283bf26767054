// E-L4 — Lesson 4: "The maturity of automated scanning solutions
// facilitated smooth integration; APT GPG signatures are a reliable and
// straightforward solution." Measures host CVE-scan throughput as the
// package count grows, SCAP benchmark evaluation cost, the verify cost
// of the two signed-update channels (APT-like vs ONIE-like), and — for
// the M14 SAST engine — scan throughput plus a false-positive-rate
// comparison of the legacy regex pass against the taint dataflow pass
// on a labeled corpus. Each row is the median [q1, q3] time per call over
// kRowReps timed blocks.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
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
namespace gb = genio::bench;

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

void time_host_cve_scan() {
  const auto db = make_db(2000);
  const vn::HostVulnScanner scanner(&db);
  for (const int packages : {50, 200, 1000}) {
    const auto host = make_host_with_packages(packages);
    const auto per_call = gb::time_calls(2, gb::kRowReps, packages >= 1000 ? 5 : 20,
                                         [&] { gb::keep(scanner.scan(host).findings.size()); });
    gb::print_row("host_cve_scan/" + std::to_string(packages), per_call,
                  gb::rate(packages, per_call, "packages", 0));
  }
}

void time_scap_evaluate() {
  const auto host = os::make_stock_onl_host("olt-1");
  const auto bench = genio::hardening::make_scap_benchmark();
  const auto per_call =
      gb::time_calls(500, gb::kRowReps, 5000, [&] { gb::keep(bench.evaluate(host).failed); });
  gb::print_row("scap_evaluate", per_call,
                gb::rate(static_cast<double>(bench.rule_count()), per_call, "rules", 0));
}

void time_apt_verify_install() {
  os::AptRepository repo("genio-main", cr::SigningKey::generate(gc::to_bytes("rk"), 12));
  repo.add_package({"tool", gc::Version(1, 0, 0), gc::Bytes(64 * 1024, 0x7f)});
  const auto snapshot = repo.snapshot().value();
  os::AptClient client;
  client.trust_key("genio-main", repo.public_key());
  os::Host host;
  const auto per_call = gb::time_calls(
      2, gb::kRowReps, 10, [&] { gb::keep(client.install(host, snapshot, "tool").ok()); });
  gb::print_row("apt_verify_install", per_call, "64KiB package, signed metadata");
}

void time_onie_verify_install() {
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
  const auto per_call = gb::time_calls(1, gb::kRowReps, 1, [&] {
    gb::keep(installer.install(host, image, gc::SimTime::from_days(1)).ok());
  });
  gb::print_row("onie_verify_install", per_call,
                "1MiB image, chain + detached signature + TPM measure");
}

// ---------------------------------------------------------------- M14 SAST

using genio::bench::LabeledSource;

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
  for (const auto& entry : gb::make_legacy_sast_corpus()) {
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

/// One scan of the whole labeled corpus per call, with and without the
/// taint dataflow pass.
void time_sast_scans() {
  const auto corpus = gb::make_legacy_sast_corpus();
  for (const bool taint : {false, true}) {
    as::SastEngine engine = as::make_default_sast_engine();
    engine.set_taint_enabled(taint);
    const auto per_call = gb::time_calls(2, gb::kRowReps, 10, [&] {
      std::size_t findings = 0;
      for (const auto& entry : corpus) findings += engine.analyze(entry.file).size();
      gb::keep(findings);
    });
    gb::print_row(taint ? "sast_taint_dataflow_scan" : "sast_legacy_regex_scan", per_call,
                  gb::rate(static_cast<double>(corpus.size()), per_call, "files", 0));
  }
}

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
  gb::Gate gate({gb::kFailLines});
  gate.check(taint.fp_rate() < legacy.fp_rate(),
             "dataflow pass did not reduce the false-positive rate");
  gate.check(taint.detection_rate() >= legacy.detection_rate(),
             "dataflow pass lost detections vs legacy");
  return gate.exit_code();
}

}  // namespace

int main() {
  std::printf("=== E-L4: scanning maturity and signed-update channels ===\n\n");
  time_host_cve_scan();
  time_scap_evaluate();
  time_apt_verify_install();
  time_onie_verify_install();
  time_sast_scans();
  return report_sast_accuracy();
}
