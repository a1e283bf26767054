// The repository benchmark. One process runs one workload:
//   perfbench --workload <catalog|admission|fabric|dataplane> --seed N
//             --seconds S --trace <0|1> [--tiny] [--inject-fault]
// Untraced runs print the end-to-end metrics; traced runs print the
// per-layer metrics and write the spans as Chrome trace-event JSON to
// traces/ next to the binary's own directory (.bench_build/traces). The
// last stdout line is the result object; the line before it carries the
// host/build fingerprint and informational numbers.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using Runner = std::function<WorkloadResult(const Options&, Tracer*)>;

const std::map<std::string, Runner>& workloads() {
  static const std::map<std::string, Runner> kWorkloads = {
      {"catalog", run_catalog},
      {"admission", run_admission},
      {"fabric", run_fabric},
      {"dataplane", run_dataplane},
  };
  return kWorkloads;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct Isa {
  bool sha_ni = false, aes = false, pclmulqdq = false, avx512f = false;
};

Isa detect_isa() {
  Isa isa;
#if defined(__x86_64__) || defined(__i386__)
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) != 0) {
    isa.aes = (c >> 25) & 1u;
    isa.pclmulqdq = (c >> 1) & 1u;
  }
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) != 0) {
    isa.sha_ni = (b >> 29) & 1u;
    isa.avx512f = (b >> 16) & 1u;
  }
#endif
  return isa;
}

std::string fingerprint_json(int threads) {
  const Isa isa = detect_isa();
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::string out = "{";
  out += "\"nproc\": " + std::to_string(nproc);
  out += ", \"hardware_concurrency\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"load_threads\": " + std::to_string(threads);
  out += std::string(", \"sha_ni\": ") + (isa.sha_ni ? "true" : "false");
  out += std::string(", \"aes\": ") + (isa.aes ? "true" : "false");
  out += std::string(", \"pclmulqdq\": ") + (isa.pclmulqdq ? "true" : "false");
  out += std::string(", \"avx512f\": ") + (isa.avx512f ? "true" : "false");
  out += ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__);
  out += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  out += "}";
  return out;
}

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Load threads per workload, <= nproc; the fabric is single-threaded by
// design.
int default_threads(const std::string& workload) {
  const long nproc = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  if (workload == "fabric") return 1;
  return static_cast<int>(std::min(4L, nproc));
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <catalog|admission|fabric|dataplane> "
               "--seed N --seconds S --trace <0|1> [--tiny] [--inject-fault]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--inject-fault") {
      options.inject_fault = true;
    } else {
      return usage();
    }
  }
  const auto& registry = workloads();
  if (registry.count(options.workload) == 0 || (trace != 0 && trace != 1) ||
      options.seconds <= 0.0) {
    return usage();
  }
  options.trace = trace == 1;
  options.threads = default_threads(options.workload);

#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to time an unoptimized build\n");
  return 3;
#endif
  if (PERFBENCH_SANITIZED) {
    std::fprintf(stderr, "perfbench: refusing to time a sanitizer build\n");
    return 3;
  }

  Tracer tracer;
  WorkloadResult result = registry.at(options.workload)(
      options, options.trace ? &tracer : nullptr);

  std::vector<Metric> metrics;
  std::string extra;
  if (!options.trace) {
    std::vector<double> rate, p50, p90;
    for (const Window& w : result.windows) {
      if (w.seconds <= 0.0 || w.latency_ms.empty()) continue;
      rate.push_back(w.items / w.seconds);
      p50.push_back(percentile(w.latency_ms, 0.50));
      p90.push_back(percentile(w.latency_ms, 0.90));
    }
    if (result.pooled_latency) {
      p50 = {percentile(result.all_latency_ms(), 0.50)};
      p90 = {percentile(result.all_latency_ms(), 0.90)};
    }
    metrics = {
        {"setup_s", median(result.setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"throughput_per_s", median(rate), "1/s"},
        {"latency_p50_ms", median(p50), "ms"},
        {"latency_p90_ms", median(p90), "ms"},
    };
    extra += ", \"samples\": {\"setup\": " + std::to_string(result.setup_s.size()) +
             ", \"windows\": " + std::to_string(rate.size()) +
             ", \"latency\": " + std::to_string(result.all_latency_ms().size()) + "}";
    extra += ", \"work_seconds\": " + json_number(result.total_seconds());
    extra += ", \"whole_run\": {\"throughput_per_s\": " +
             json_number(result.total_items() / result.total_seconds()) +
             ", \"latency_p50_ms\": " + json_number(percentile(result.all_latency_ms(), 0.5)) +
             ", \"latency_p90_ms\": " + json_number(percentile(result.all_latency_ms(), 0.9)) +
             "}";
  } else {
    // The workload's own layer metrics, then tiny traced runs of the other
    // workloads for theirs, then the micro-probes.
    metrics = result.layer;
    std::set<std::string> have;
    for (const auto& m : metrics) have.insert(m.name);
    const auto add_missing = [&](const std::vector<Metric>& more) {
      for (const auto& m : more) {
        if (have.insert(m.name).second) metrics.push_back(m);
      }
    };
    for (const auto& [name, run] : registry) {
      if (name == options.workload) continue;
      Options tiny = options;
      tiny.workload = name;
      tiny.tiny = true;
      tiny.inject_fault = false;
      tiny.seconds = 0.2;
      tiny.threads = default_threads(name);
      Tracer scratch;
      WorkloadResult other = run(tiny, &scratch);
      result.attempted += other.attempted;
      result.failed += other.failed;
      for (const auto& e : other.errors) {
        if (result.errors.size() < 8) result.errors.push_back(name + ": " + e);
      }
      add_missing(other.layer);
    }
    add_missing(run_layer_probes(options.seed, options.tiny));

    extra += ", \"self_ms_by_layer\": {";
    bool first = true;
    for (const auto& [layer, ms] : tracer.self_ms_by_layer()) {
      extra += (first ? "" : ", ") + json_string(layer) + ": " + json_number(ms);
      first = false;
    }
    extra += "}, \"spans\": " + std::to_string(tracer.spans().size());
    namespace fs = std::filesystem;
    const fs::path dir = fs::absolute(argv[0]).parent_path().parent_path() / "traces";
    std::error_code ec;
    fs::create_directories(dir, ec);
    const std::string path = (dir / ("trace-" + options.workload + "-seed" +
                                     std::to_string(options.seed) + ".json"))
                                 .string();
    if (tracer.write_chrome_json(path)) extra += ", \"chrome_trace\": " + json_string(path);
  }

  // End-to-end metrics are never 0; layer counts may be (no drops).
  for (const auto& m : metrics) {
    if (!std::isfinite(m.value) || m.value < 0.0 || (!options.trace && m.value == 0.0)) {
      result.fail("metric " + m.name + " is not a positive number");
    }
  }

  // Informational line: fingerprint, workload details, first errors.
  std::string info = "{\"workload\": " + json_string(options.workload) +
                     ", \"seed\": " + std::to_string(options.seed) +
                     ", \"trace\": " + (options.trace ? "1" : "0") +
                     ", \"fingerprint\": " + fingerprint_json(options.threads) +
                     ", \"detail\": {";
  for (std::size_t i = 0; i < result.detail.size(); ++i) {
    info += (i ? ", " : "") + json_string(result.detail[i].first) + ": " +
            json_number(result.detail[i].second);
  }
  info += "}" + extra + ", \"errors\": [";
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    info += (i ? ", " : "") + json_string(result.errors[i]);
  }
  info += "]}";
  std::printf("%s\n", info.c_str());

  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(result.attempted, 1));
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", " : "") + json_string(metrics[i].name) +
            ": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
