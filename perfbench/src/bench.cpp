#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double WorkloadResult::total_items() const {
  double total = 0.0;
  for (const Window& w : windows) total += w.items;
  return total;
}

double WorkloadResult::total_seconds() const {
  double total = 0.0;
  for (const Window& w : windows) total += w.seconds;
  return total;
}

std::vector<double> WorkloadResult::all_latency_ms() const {
  std::vector<double> all;
  for (const Window& w : windows) {
    all.insert(all.end(), w.latency_ms.begin(), w.latency_ms.end());
  }
  return all;
}

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lk(mu_);
  return next_id_++;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
      .count();
}

std::uint32_t Tracer::thread_index() {
  const auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(), static_cast<std::uint32_t>(tids_.size()));
  return it->second;
}

void Tracer::record(Span span) {
  std::lock_guard<std::mutex> lk(mu_);
  span.tid = thread_index();
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  const std::vector<Span> all = spans();
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const Span& s : all) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      // Children may run concurrently (gate fan-out): subtract the union
      // of their intervals, clipped to the parent.
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      for (const auto& [lo_raw, hi_raw] : iv) {
        const std::int64_t lo = std::max(lo_raw, s.start_ns);
        const std::int64_t hi = std::min(hi_raw, s.end_ns);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return self;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
                 "\"parent\": %llu, \"request\": %llu}}%s\n",
                 s.name.c_str(), s.layer.c_str(), s.tid,
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, const char* layer,
                       std::uint64_t request, std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.layer = layer;
  span_.id = tracer_->next_id();
  span_.parent = parent;
  span_.request = request;
  span_.start_ns = tracer_->now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  tracer_->record(std::move(span_));
}

}  // namespace perfbench
