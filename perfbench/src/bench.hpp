// Shared plumbing for the repository benchmark: wall clocks, percentiles,
// the span tracer used by traced runs, and the result record each
// workload fills in. Nothing here calls into the GENIO libraries; the
// workloads do that through the public headers only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) { return 1e3 * seconds_since(start); }

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);

/// Run `fn` repeatedly until `min_seconds` of wall time have passed (at
/// least `min_reps` times) and return the median wall time per call, in
/// seconds. Used by the layer probes.
template <typename Fn>
double time_per_call(Fn&& fn, double min_seconds, int min_reps = 5) {
  std::vector<double> samples;
  const auto start = Clock::now();
  while (static_cast<int>(samples.size()) < min_reps || seconds_since(start) < min_seconds) {
    const auto t0 = Clock::now();
    fn();
    samples.push_back(seconds_since(t0));
  }
  return median(std::move(samples));
}

/// One closed interval of work at a layer boundary. Spans of one request
/// (a scenario, an admission) share `request`; `parent` is the span that
/// caused this one (0 = root).
struct Span {
  std::string name;
  std::string layer;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// In-memory span recorder; thread-safe. Spans are written out once, at
/// exit, as Chrome trace-event JSON.
class Tracer {
 public:
  Tracer();

  std::uint64_t next_id();
  std::int64_t now_ns() const;
  void record(Span span);

  std::vector<Span> spans() const;
  /// Per-layer self time in ms: each span's duration minus the part of it
  /// covered by its child spans, summed per layer.
  std::map<std::string, double> self_ms_by_layer() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  std::uint32_t thread_index();

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::map<std::thread::id, std::uint32_t> tids_;
  std::uint64_t next_id_ = 1;
};

/// RAII span; a no-op when the tracer is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, const char* layer,
             std::uint64_t request = 0, std::uint64_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Span span_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;          // self-test size
  bool inject_fault = false;  // self-test: one mislabeled input
  int threads = 1;            // load threads, <= nproc (set by main)
};

/// The measured phase is split into windows (by wall time, or by op count
/// for the fixed-size admission script). Throughput and latency are
/// medians over windows, so a host-noise episode that covers less than
/// half of a run does not move them.
constexpr int kWindows = 10;

struct Window {
  double items = 0.0;              // work items completed in the window
  double seconds = 0.0;            // wall time they took
  std::vector<double> latency_ms;  // latency samples taken in the window
};

/// What one workload run produced. The end-to-end metrics are derived from
/// it in main(); `layer` holds the per-layer metrics it measured.
struct WorkloadResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::vector<double> setup_s;      // one entry per set-up repetition
  std::vector<Window> windows;
  // Latency percentiles over all samples of the run instead of medians of
  // per-window percentiles, for workloads with few samples per window.
  bool pooled_latency = false;
  std::vector<Metric> layer;
  std::vector<std::pair<std::string, double>> detail;  // informational

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  double total_items() const;
  double total_seconds() const;
  std::vector<double> all_latency_ms() const;
};

WorkloadResult run_catalog(const Options& options, Tracer* tracer);
WorkloadResult run_admission(const Options& options, Tracer* tracer);
WorkloadResult run_fabric(const Options& options, Tracer* tracer);
WorkloadResult run_dataplane(const Options& options, Tracer* tracer);
/// Micro-probes of layer entry points that no workload exposes directly
/// (SHA-256, keygen, sign/verify, AES/GHASH/CRC, control decode, ...).
std::vector<Metric> run_layer_probes(std::uint64_t seed, bool tiny);

}  // namespace perfbench
