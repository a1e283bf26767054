// E-L7 — Lesson 7: "SCA often flags unused or misidentified dependencies
// ... it analyzes entire dependencies without linking vulnerabilities to
// specific functions ... fuzzing containerized applications is feasible
// only for those exposing standard interfaces." Measures SCA noise with
// and without reachability linkage across image sizes, and fuzzer
// applicability across application interface types.
#include <cstdio>

#include "bench_util.hpp"

#include "genio/appsec/dast.hpp"
#include "genio/appsec/sca.hpp"
#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"

namespace gc = genio::common;
namespace as = genio::appsec;
namespace vn = genio::vuln;

namespace {

// An image with `total` dependencies of which `imported` are actually used
// by the application; every 3rd dependency has a known CVE.
as::ContainerImage make_image(int total, vn::CveDatabase& db,
                              std::set<std::string>& imported, int imported_count) {
  as::ContainerImage image("registry.genio.io/t/app-" + std::to_string(total), "1.0.0");
  for (int i = 0; i < total; ++i) {
    const std::string name = "dep-" + std::to_string(i);
    image.add_package({name, gc::Version(1, 0, 0), "pypi"});
    if (i < imported_count) imported.insert(name);
    if (i % 3 == 0) {
      vn::CveRecord record;
      record.id = "CVE-DEP-" + std::to_string(total) + "-" + std::to_string(i);
      record.package = name;
      record.affected = gc::VersionRange::parse("<2.0.0").value();
      record.cvss =
          vn::CvssV3::parse("AV:N/AC:L/PR:N/UI:N/S:U/C:H/I:N/A:N").value();
      db.upsert(std::move(record));
    }
  }
  return image;
}

}  // namespace

int main() {
  std::printf("=== E-L7: SCA noise and DAST applicability ===\n\n");

  // --- SCA noise vs reachability ------------------------------------------------
  gc::Table sca_table({"dependencies", "imported", "raw findings",
                       "actionable (reachable)", "noise ratio"});
  bool noise_grows = true;
  double last_noise = -1.0;
  for (const int total : {30, 100, 300}) {
    vn::CveDatabase db;
    std::set<std::string> imported;
    // Real applications typically import a fixed, small working set; the
    // rest is transitive baggage that only grows with image size.
    const int imported_count = 15;
    const auto image = make_image(total, db, imported, imported_count);
    as::ScaScanner scanner(&db);
    const auto report = scanner.scan_with_reachability(image, imported);
    sca_table.add_row({std::to_string(total), std::to_string(imported_count),
                       std::to_string(report.findings.size()),
                       std::to_string(report.actionable().size()),
                       gc::format_double(100.0 * report.noise_ratio(), 0) + "%"});
    if (report.noise_ratio() < last_noise) noise_grows = false;
    last_noise = report.noise_ratio();
  }
  std::printf("%s\n", sca_table.render().c_str());
  std::printf("without reachability linkage every raw finding lands in the report "
              "(the paper's 'bloated reports'); with it, the actionable set stays "
              "near-constant while noise grows with image size\n\n");

  // --- DAST applicability across interface types --------------------------------
  struct AppInterface {
    const char* app;
    const char* interface_kind;
    bool has_openapi_spec;
  };
  const AppInterface apps[] = {
      {"iot-readings", "REST API (OpenAPI)", true},
      {"video-transcoder", "gRPC custom protocol", false},
      {"meter-collector", "raw TCP binary framing", false},
      {"tenant-dashboard", "REST API (OpenAPI)", true},
      {"plc-bridge", "fieldbus serial bridge", false},
  };

  gc::Table dast_table({"application", "interface", "fuzzable", "requests sent",
                        "issues found"});
  int fuzzable = 0;
  for (const auto& app : apps) {
    if (!app.has_openapi_spec) {
      dast_table.add_row({app.app, app.interface_kind, "no (Lesson 7 gap)", "-", "-"});
      continue;
    }
    ++fuzzable;
    as::ApiSpec spec;
    spec.service = app.app;
    spec.endpoints = {{"GET", "/api/v1/data",
                       {{"id", as::ParamType::kString, true}},
                       false}};
    as::RestService service(std::move(spec));
    service.set_handler("GET", "/api/v1/data", [](const as::HttpRequest& r) {
      const auto it = r.params.find("id");
      if (it == r.params.end()) return as::HttpResponse{400, "missing id"};
      if (it->second.find('\'') != std::string::npos) {
        return as::HttpResponse{500, "SQL syntax error"};
      }
      return as::HttpResponse{200, "ok"};
    });
    as::ApiFuzzer fuzzer(gc::Rng(1));
    const auto report = fuzzer.fuzz(service);
    dast_table.add_row({app.app, app.interface_kind, "yes",
                        std::to_string(report.requests_sent),
                        std::to_string(report.findings.size())});
  }
  std::printf("%s\n", dast_table.render().c_str());
  std::printf("DAST applicability: %d/%zu applications expose a standard REST "
              "interface the CATS-style fuzzer can drive\n\n",
              fuzzable, std::size(apps));

  genio::bench::Gate gate({genio::bench::kVerdict});
  gate.check(noise_grows && fuzzable < static_cast<int>(std::size(apps)),
             "shape check: noise ratio grows with dependency count; fuzzing limited "
             "to spec-bearing services");
  return gate.exit_code();
}
