// WOTS+ on the lane-sliced SHA-256 kernel. Every GenioPlatform generates
// its PKI keys (176 one-time keys by default) before a scenario starts:
// SigningKey::generate runs them 16 leaves at a time on Sha256Lanes, and
// sign() and verify() run a leaf's 67 chains 16 at a time. Four parts:
//   identity  seeded batches of random states and blocks through every
//             lane backend the CPU has, compared lane by lane against the
//             per-lane kScalar loop (the oracle), plus a key built on
//             each backend whose root and every signature (32 at height
//             5 in the smoke run, 256 at height 8 in the full one) equal
//             the kScalar-built key's, and verify() on that backend
//             accepts them all;
//   ratio     16-lane compressions per second of the dispatched backend
//             over the kScalar loop, timed alternately in one process, so
//             the floor does not move with the host's speed: >= 10x when
//             AVX-512F is dispatched, >= 3x for the SHA-NI loop, and no
//             floor on a host with only the scalar kernel;
//   sign      sign() and verify() per call on each backend, as median and
//             IQR over the identity key's signatures (informational);
//   keygen    SigningKey::generate at heights 4, 6 and 8 and one default
//             GenioPlatform build, as median and IQR (informational).
// Invariants (exit nonzero if any breaks): identity always; the ratio
// floor only on uninstrumented builds (GENIO_BENCH_SANITIZED).
// Writes BENCH_keygen.json (or --out PATH); `--smoke` runs fewer batches
// and repetitions for CI.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

#include "genio/common/rng.hpp"
#include "genio/core/platform.hpp"
#include "genio/crypto/sha256.hpp"
#include "genio/crypto/signature.hpp"

// Sanitizer instrumentation taxes the scalar loop's stack traffic far more
// than the vector kernel's registers, so the ratio means nothing there;
// identity still holds and is still enforced.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define GENIO_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define GENIO_BENCH_SANITIZED 1
#endif
#endif
#ifndef GENIO_BENCH_SANITIZED
#define GENIO_BENCH_SANITIZED 0
#endif

namespace gc = genio::common;
namespace cr = genio::crypto;

namespace {

using Clock = std::chrono::steady_clock;
using Lanes = cr::Sha256Lanes;
using LaneKernel = Lanes::Kernel;
using genio::bench::Spread;
using genio::bench::spread;

constexpr LaneKernel kAllKernels[] = {LaneKernel::kAvx512f, LaneKernel::kShaNi,
                                      LaneKernel::kScalar};

const char* kernel_name(LaneKernel kernel) {
  switch (kernel) {
    case LaneKernel::kAvx512f: return "avx512f";
    case LaneKernel::kShaNi: return "sha_ni_loop";
    case LaneKernel::kScalar: break;
  }
  return "scalar_loop";
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void random_words(gc::Rng& rng, Lanes::State& state, Lanes::Block& block) {
  for (auto& row : state) {
    for (auto& w : row) w = static_cast<std::uint32_t>(rng.next_u64());
  }
  for (auto& row : block) {
    for (auto& w : row) w = static_cast<std::uint32_t>(rng.next_u64());
  }
}

bool lanes_match_scalar(LaneKernel kernel, int batches) {
  const Lanes lanes(kernel);
  const Lanes oracle(LaneKernel::kScalar);
  gc::Rng rng(0x6e79);
  for (int b = 0; b < batches; ++b) {
    Lanes::State state{};
    Lanes::Block block{};
    random_words(rng, state, block);
    Lanes::State expected = state;
    lanes.compress(state, block);
    oracle.compress(expected, block);
    if (state != expected) return false;
  }
  return true;
}

// Seconds per 16-lane compression, chaining each output into the next
// input so no call can be skipped.
double time_compress(const Lanes& lanes, int calls, std::uint32_t& sink) {
  gc::Rng rng(0x6e7a);
  alignas(64) Lanes::State state{};
  alignas(64) Lanes::Block block{};
  random_words(rng, state, block);
  const auto t0 = Clock::now();
  for (int i = 0; i < calls; ++i) {
    lanes.compress(state, block);
    block[i & 15][0] ^= state[0][0];
  }
  const double s = seconds_since(t0) / calls;
  sink ^= state[7][15];
  return s;
}

// Every signature of one key built on `kernel`, with each sign() and
// verify() call timed; `verified` is false if verify() rejected any.
struct SignRun {
  cr::Digest root{};
  std::vector<gc::Bytes> signatures;
  std::vector<double> sign_us, verify_us;
  bool verified = true;
};

SignRun sign_every_leaf(LaneKernel kernel, std::uint8_t height) {
  auto key = cr::SigningKey::generate(gc::to_bytes("bench-keygen"), height, kernel);
  SignRun run;
  run.root = key.public_key().root;
  for (std::uint32_t leaf = 0; key.signatures_remaining() > 0; ++leaf) {
    const gc::Bytes message = gc::to_bytes("bench-sign-" + std::to_string(leaf));
    auto t0 = Clock::now();
    const cr::Signature sig = key.sign(message).value();
    run.sign_us.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    const bool ok = cr::verify(key.public_key(), message, sig, kernel).ok();
    run.verify_us.push_back(seconds_since(t0) * 1e6);
    run.verified = run.verified && ok;
    run.signatures.push_back(sig.serialize());
  }
  return run;
}

template <typename Fn>
Spread time_ms(int reps, Fn&& fn) {
  fn();  // warm-up
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return spread(std::move(ms));
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_keygen.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) out_path = argv[++i];
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const LaneKernel dispatched = Lanes::dispatched_kernel();
  const char* sha256_kernel =
      cr::Sha256::dispatched_kernel() == cr::Sha256::Kernel::kShaNi ? "sha_ni" : "scalar";
  std::printf("=== WOTS+ keygen on SHA-256 lanes: dispatched %s (SHA-256 kernel %s), "
              "%u hardware threads%s ===\n\n",
              kernel_name(dispatched), sha256_kernel, hw, smoke ? " (smoke)" : "");

  // -- identity ---------------------------------------------------------------
  const int batches = smoke ? 1000 : 10000;
  const std::uint8_t sign_height = smoke ? 5 : 8;
  bool identity_ok = true;
  struct SignRow {
    LaneKernel kernel;
    Spread sign_us, verify_us;
  };
  std::vector<SignRow> sign_rows;
  const SignRun scalar_run = sign_every_leaf(LaneKernel::kScalar, sign_height);
  for (const LaneKernel kernel : kAllKernels) {
    if (!Lanes::supports(kernel)) continue;
    const bool lanes_ok = lanes_match_scalar(kernel, batches);
    const SignRun run =
        kernel == LaneKernel::kScalar ? scalar_run : sign_every_leaf(kernel, sign_height);
    const bool root_ok = run.root == scalar_run.root;
    const bool sigs_ok = run.signatures == scalar_run.signatures;
    std::printf("identity %-12s %d random batches %s, height-%d root %s, %zu signatures %s, "
                "verify %s\n",
                kernel_name(kernel), batches, lanes_ok ? "match" : "DIFFER", sign_height,
                root_ok ? "matches" : "DIFFERS", run.signatures.size(),
                sigs_ok ? "match" : "DIFFER", run.verified ? "accepts" : "REJECTS");
    identity_ok = identity_ok && lanes_ok && root_ok && sigs_ok && run.verified;
    sign_rows.push_back({kernel, spread(run.sign_us), spread(run.verify_us)});
  }

  // -- ratio: dispatched backend over the kScalar loop ------------------------
  const Lanes fast(dispatched);
  const Lanes scalar(LaneKernel::kScalar);
  const int reps = smoke ? 7 : 21;
  std::uint32_t sink = 0;
  std::vector<double> fast_ns, scalar_ns;
  time_compress(fast, 200, sink);  // warm-up
  time_compress(scalar, 20, sink);
  for (int r = 0; r < reps; ++r) {
    fast_ns.push_back(time_compress(fast, 2000, sink) * 1e9);
    scalar_ns.push_back(time_compress(scalar, 200, sink) * 1e9);
  }
  const Spread fast_s = spread(fast_ns);
  const Spread scalar_s = spread(scalar_ns);
  const double ratio = scalar_s.median / fast_s.median;
  const double floor = dispatched == LaneKernel::kAvx512f ? 10.0
                       : dispatched == LaneKernel::kShaNi ? 3.0
                                                          : 0.0;
  std::printf("\n16-lane block: %s %.0f ns [%.0f, %.0f], scalar loop %.0f ns [%.0f, %.0f]: "
              "%.1fx (floor %s)\n",
              kernel_name(dispatched), fast_s.median, fast_s.q1, fast_s.q3, scalar_s.median,
              scalar_s.q1, scalar_s.q3, ratio,
              floor > 0 ? (std::to_string(static_cast<int>(floor)) + "x").c_str() : "none");

  // -- keygen and platform build (informational) ------------------------------
  const int key_reps = smoke ? 5 : 15;
  struct Row {
    int height;
    Spread ms;
  };
  std::vector<Row> keygen;
  for (const int height : {4, 6, 8}) {
    keygen.push_back({height, time_ms(key_reps, [&] {
                        const auto key = cr::SigningKey::generate(
                            gc::to_bytes("bench-keygen"), static_cast<std::uint8_t>(height));
                        sink ^= key.public_key().root[0];
                      })});
  }
  std::uint64_t platform_seed = 0;
  const Spread platform = time_ms(key_reps, [&] {
    genio::core::PlatformConfig config;
    config.seed = ++platform_seed;
    genio::core::GenioPlatform built(config);
    sink ^= static_cast<std::uint32_t>(built.onus().size());
  });
  for (const SignRow& row : sign_rows) {
    std::printf("%-12s sign %.1f us [%.1f, %.1f], verify %.1f us [%.1f, %.1f]\n",
                kernel_name(row.kernel), row.sign_us.median, row.sign_us.q1, row.sign_us.q3,
                row.verify_us.median, row.verify_us.q1, row.verify_us.q3);
  }
  for (const Row& row : keygen) {
    std::printf("keygen height %d: %.2f ms [%.2f, %.2f]\n", row.height, row.ms.median,
                row.ms.q1, row.ms.q3);
  }
  std::printf("default GenioPlatform build: %.2f ms [%.2f, %.2f]\n\n", platform.median,
              platform.q1, platform.q3);

  bool invariants_hold = identity_ok;
  if (!identity_ok) {
    std::fprintf(stderr,
                 "INVARIANT VIOLATED: lane backends match kScalar (blocks, root, signatures) "
                 "and verify() accepts\n");
  }
  if (GENIO_BENCH_SANITIZED) {
    std::printf("note: ratio floor reported but not enforced (sanitizer build)\n");
  } else if (ratio < floor) {
    std::fprintf(stderr, "INVARIANT VIOLATED: %s lanes >= %.0fx the kScalar loop (got %.1fx)\n",
                 kernel_name(dispatched), floor, ratio);
    invariants_hold = false;
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"keygen\",\n  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n", hw);
  std::fprintf(f, "  \"lane_kernel\": \"%s\",\n  \"sha256_kernel\": \"%s\",\n",
               kernel_name(dispatched), sha256_kernel);
  std::fprintf(f, "  \"byte_identity\": %s,\n  \"identity_batches\": %d,\n",
               identity_ok ? "true" : "false", batches);
  std::fprintf(f, "  \"identity_signatures\": %zu,\n", scalar_run.signatures.size());
  std::fprintf(f,
               "  \"block_ns\": {\"dispatched\": {\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f}, "
               "\"scalar_loop\": {\"median\": %.1f, \"q1\": %.1f, \"q3\": %.1f}},\n",
               fast_s.median, fast_s.q1, fast_s.q3, scalar_s.median, scalar_s.q1, scalar_s.q3);
  std::fprintf(f, "  \"ratio_over_scalar_loop\": %.2f,\n  \"ratio_floor\": %.1f,\n", ratio,
               floor);
  std::fprintf(f, "  \"ratio_floor_enforced\": %s,\n", GENIO_BENCH_SANITIZED ? "false" : "true");
  for (const bool sign : {true, false}) {
    std::fprintf(f, "  \"%s_us\": {", sign ? "sign" : "verify");
    for (std::size_t i = 0; i < sign_rows.size(); ++i) {
      const Spread& us = sign ? sign_rows[i].sign_us : sign_rows[i].verify_us;
      std::fprintf(f, "\"%s\": {\"median\": %.2f, \"q1\": %.2f, \"q3\": %.2f}%s",
                   kernel_name(sign_rows[i].kernel), us.median, us.q1, us.q3,
                   i + 1 < sign_rows.size() ? ", " : "},\n");
    }
  }
  std::fprintf(f, "  \"keygen_ms\": {");
  for (std::size_t i = 0; i < keygen.size(); ++i) {
    std::fprintf(f, "\"h%d\": {\"median\": %.3f, \"q1\": %.3f, \"q3\": %.3f}%s", keygen[i].height,
                 keygen[i].ms.median, keygen[i].ms.q1, keygen[i].ms.q3,
                 i + 1 < keygen.size() ? ", " : "},\n");
  }
  std::fprintf(f, "  \"platform_build_ms\": {\"median\": %.3f, \"q1\": %.3f, \"q3\": %.3f},\n",
               platform.median, platform.q1, platform.q3);
  std::fprintf(f, "  \"invariants_hold\": %s\n}\n", invariants_hold ? "true" : "false");
  std::fclose(f);
  std::printf("wrote %s (sink %u)\n", out_path, sink);
  return invariants_hold ? 0 : 1;
}
