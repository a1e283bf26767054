// Workload `dataplane`: frame-by-frame pon::GponCipher encrypt + decrypt of
// a seeded GEM corpus (64 B to 9 KB) under per-ONU keys. The benchmark
// splits the links over its load threads itself; a labeled 2 % of frames
// is tampered between seal and open and must be rejected, every other
// frame must round-trip byte for byte.
#include <algorithm>
#include <array>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "genio/common/rng.hpp"
#include "genio/crypto/aes.hpp"
#include "genio/pon/frame.hpp"
#include "genio/pon/gpon_crypto.hpp"

namespace perfbench {
namespace {

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace gp = genio::pon;

constexpr std::array<std::uint32_t, 6> kSizes = {64, 256, 576, 1500, 4096, 9000};
// Cumulative shares 40/55/65/85/95/100 %: the median and the 90th
// percentile fall inside a size class, not on a boundary between two.
constexpr std::array<double, 6> kSizeShare = {0.40, 0.15, 0.10, 0.20, 0.10, 0.05};

struct LabeledFrame {
  gp::GemFrame frame;
  bool tamper = false;
};

struct Link {
  std::unique_ptr<gp::GponCipher> cipher;
  std::vector<LabeledFrame> frames;
};

std::uint32_t draw_size(gc::Rng& rng) {
  double u = rng.uniform01();
  for (std::size_t i = 0; i < kSizes.size(); ++i) {
    if (u < kSizeShare[i]) return kSizes[i];
    u -= kSizeShare[i];
  }
  return kSizes.back();
}

std::vector<Link> build_links(std::uint64_t seed, int links, int frames_per_link) {
  gc::Rng rng(gc::Rng::mix(seed, "dataplane"));
  std::vector<Link> out(static_cast<std::size_t>(links));
  for (int l = 0; l < links; ++l) {
    Link& link = out[static_cast<std::size_t>(l)];
    link.cipher = std::make_unique<gp::GponCipher>(cr::make_aes_key(rng.bytes(16)));
    link.frames.resize(static_cast<std::size_t>(frames_per_link));
    for (int f = 0; f < frames_per_link; ++f) {
      LabeledFrame& lf = link.frames[static_cast<std::size_t>(f)];
      lf.frame.onu_id = static_cast<std::uint16_t>(l + 1);
      lf.frame.port_id = static_cast<std::uint16_t>(1000 + rng.index(8));
      lf.frame.superframe = static_cast<std::uint32_t>(f);
      lf.frame.payload = rng.bytes(draw_size(rng));
      lf.frame.seal_fcs();
      lf.tamper = rng.chance(0.02);
    }
  }
  return out;
}

// Fixed-size uniform sample of a stream (Algorithm R), so memory does not
// grow with the number of frames a faster build gets through.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed) : capacity_(capacity), rng_(seed) {
    samples_.reserve(capacity);
  }
  void add(double value) {
    ++seen_;
    if (samples_.size() < capacity_) {
      samples_.push_back(value);
    } else if (const auto slot = rng_.uniform(seen_); slot < capacity_) {
      samples_[slot] = value;
    }
  }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::size_t capacity_;
  gc::Rng rng_;
  std::uint64_t seen_ = 0;
  std::vector<double> samples_;
};

struct ThreadTally {
  explicit ThreadTally(std::uint64_t seed) : small_ns(20'000, seed) {
    for (int w = 0; w < kWindows; ++w) latency_ms.emplace_back(5'000, seed + 1 + w);
  }
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t bytes = 0;
  std::array<std::uint64_t, kWindows> frames{};
  std::vector<Reservoir> latency_ms;  // per window
  Reservoir small_ns;                 // 64 B frames
  std::vector<std::string> errors;
};

}  // namespace

WorkloadResult run_dataplane(const Options& options, Tracer* tracer) {
  WorkloadResult r;
  const int links = options.tiny ? 4 : 16;
  const int frames_per_link = options.tiny ? 32 : 256;

  // Set-up (repeated, median reported): corpus + per-ONU key contexts.
  std::vector<Link> corpus;
  for (int rep = 0; rep < (options.tiny ? 1 : 9); ++rep) {
    corpus.clear();
    const auto t0 = Clock::now();
    corpus = build_links(options.seed, links, frames_per_link);
    r.setup_s.push_back(seconds_since(t0));
  }
  const int workers = std::max(1, std::min(options.threads, links));
  std::vector<ThreadTally> tallies;
  for (int w = 0; w < workers; ++w) {
    tallies.emplace_back(gc::Rng::mix(options.seed, "reservoir-" + std::to_string(w)));
  }
  const auto deadline = std::chrono::duration<double>(options.seconds);
  const double window_s = options.seconds / kWindows;
  // Self-test hook: tamper the first frame of link 0 that is labeled clean,
  // once, so exactly one operation fails.
  std::size_t inject_frame = corpus[0].frames.size();
  if (options.inject_fault) {
    const auto& frames = corpus[0].frames;
    for (std::size_t f = frames.size(); f-- > 0;) {
      if (!frames[f].tamper) inject_frame = f;
    }
  }
  const auto start = Clock::now();
  const auto worker = [&](int w) {
    ThreadTally& t = tallies[static_cast<std::size_t>(w)];
    bool injected = false;
    for (;;) {
      for (int l = w; l < links; l += workers) {
        Link& link = corpus[static_cast<std::size_t>(l)];
        ScopedSpan span(tracer, "pon.link_batch", "pon", static_cast<std::uint64_t>(l + 1));
        for (std::size_t f = 0; f < link.frames.size(); ++f) {
          const LabeledFrame& lf = link.frames[f];
          gp::GemFrame frame = lf.frame;
          const bool inject = !injected && l == 0 && f == inject_frame;
          injected |= inject;
          const bool flip = lf.tamper || inject;
          const auto t0 = Clock::now();
          link.cipher->encrypt(frame);
          if (flip) frame.payload[frame.payload.size() / 2] ^= 0x5a;
          const auto status = link.cipher->decrypt(frame);
          const auto t1 = Clock::now();
          const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
          const auto window = std::min<std::size_t>(
              static_cast<std::size_t>(std::chrono::duration<double>(t1 - start).count() /
                                       window_s),
              kWindows - 1);
          t.latency_ms[window].add(ns / 1e6);
          if (lf.frame.payload.size() == 64) t.small_ns.add(ns);
          ++t.frames[window];
          t.bytes += lf.frame.payload.size();
          ++t.attempted;
          const bool ok = lf.tamper ? !status.ok()
                                    : status.ok() && frame.payload == lf.frame.payload &&
                                          frame.fcs_valid();
          if (!ok) {
            ++t.failed;
            if (t.errors.size() < 4) {
              t.errors.push_back("link " + std::to_string(l) + " frame " +
                                 std::to_string(f) + (lf.tamper ? " tampered frame accepted"
                                                                : " clean frame rejected"));
            }
          }
        }
      }
      if (Clock::now() - start >= deadline) break;
    }
  };
  std::vector<std::thread> threads;
  for (int w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (auto& th : threads) th.join();
  const double work_seconds = seconds_since(start);

  r.windows.resize(kWindows);
  for (int w = 0; w < kWindows; ++w) {
    r.windows[w].seconds = w + 1 < kWindows ? window_s : work_seconds - w * window_s;
  }
  std::uint64_t bytes = 0;
  std::vector<double> small_ns;
  for (auto& t : tallies) {
    r.attempted += t.attempted;
    r.failed += t.failed;
    for (auto& e : t.errors) {
      if (r.errors.size() < 8) r.errors.push_back(std::move(e));
    }
    bytes += t.bytes;
    for (int w = 0; w < kWindows; ++w) {
      Window& window = r.windows[w];
      window.items += static_cast<double>(t.frames[w]);
      const auto& lat = t.latency_ms[w].samples();
      window.latency_ms.insert(window.latency_ms.end(), lat.begin(), lat.end());
    }
    const auto& small = t.small_ns.samples();
    small_ns.insert(small_ns.end(), small.begin(), small.end());
  }
  r.detail.emplace_back("threads", workers);
  r.detail.emplace_back("dataplane_mbps", static_cast<double>(bytes) / 1e6 / work_seconds);
  r.detail.emplace_back("dataplane_64b_kfps", 1e6 / median(small_ns) * workers);
  r.detail.emplace_back("frames", r.total_items());
  return r;
}

}  // namespace perfbench
