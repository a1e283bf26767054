// WOTS+ on the lane-sliced SHA-256 kernel. A default GenioPlatform
// generates its root, boot-signer and FIM keys (48 one-time keys) when it
// is built, and its OLT and ONU keys (128 more) at its first handshake:
// SigningKey::generate runs them 16 leaves at a time on Sha256Lanes, and
// sign() and verify() run a leaf's 67 chains 16 at a time. Five parts:
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
//   keygen    SigningKey::generate at heights 4, 6 and 8, as median and
//             IQR (informational);
//   deferral  a default GenioPlatform built, and one built and then
//             activated (activate_pon(), which builds the PON
//             credentials), timed alternately with a fresh seed each: the
//             fastest build over the fastest build-and-activate must be
//             <= 0.6 (0.25 on a 4-vCPU AVX-512F Xeon; 0.85 when the
//             constructor builds the PON keys).
// Invariants (exit nonzero if any breaks): identity always; the ratio
// floor and the deferral ceiling only on uninstrumented builds
// (bench_util.hpp's kSanitized).
// Writes BENCH_keygen.json (or --out PATH); `--smoke` runs fewer batches
// and repetitions for CI.
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

#include "genio/common/rng.hpp"
#include "genio/core/platform.hpp"
#include "genio/crypto/sha256.hpp"
#include "genio/crypto/signature.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;

namespace {

using Lanes = cr::Sha256Lanes;
using LaneKernel = Lanes::Kernel;
using genio::bench::kSanitized;
using genio::bench::Spread;
using genio::bench::spread;
using genio::bench::time_calls;

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
  const double s = time_calls(0, 1, calls, [&](int i) {
                     lanes.compress(state, block);
                     block[i & 15][0] ^= state[0][0];
                   }).median;
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
    auto t0 = genio::bench::Clock::now();
    const cr::Signature sig = key.sign(message).value();
    run.sign_us.push_back(genio::bench::seconds_since(t0) * 1e6);
    t0 = genio::bench::Clock::now();
    const bool ok = cr::verify(key.public_key(), message, sig, kernel).ok();
    run.verify_us.push_back(genio::bench::seconds_since(t0) * 1e6);
    run.verified = run.verified && ok;
    run.signatures.push_back(sig.serialize());
  }
  return run;
}

/// Milliseconds per call, over `reps` calls after one warm-up call.
template <typename Fn>
Spread time_ms(int reps, Fn&& fn) {
  const Spread s = time_calls(1, reps, 1, fn);
  return {s.median * 1e3, s.q1 * 1e3, s.q3 * 1e3, s.min * 1e3};
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = genio::bench::parse_args(argc, argv, "BENCH_keygen.json");
  const bool smoke = args.smoke;
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

  // -- keygen (informational) -------------------------------------------------
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

  // -- deferral: build only against build and activate, alternated --------------
  std::uint64_t platform_seed = 0;
  auto build_platform = [&](bool activate) {
    genio::core::PlatformConfig config;
    config.seed = ++platform_seed;
    const auto t0 = genio::bench::Clock::now();
    genio::core::GenioPlatform built(config);
    if (activate) sink ^= static_cast<std::uint32_t>(built.activate_pon());
    return genio::bench::seconds_since(t0) * 1e3;
  };
  build_platform(true);  // warm-up
  std::vector<double> build_ms, activate_ms;
  for (int r = 0; r < (smoke ? 15 : 41); ++r) {
    build_ms.push_back(build_platform(false));
    activate_ms.push_back(build_platform(true));
  }
  const Spread platform = spread(build_ms);
  const Spread activated = spread(activate_ms);
  const double deferral = platform.min / activated.min;
  constexpr double kDeferralCeiling = 0.6;

  for (const SignRow& row : sign_rows) {
    std::printf("%-12s sign %.1f us [%.1f, %.1f], verify %.1f us [%.1f, %.1f]\n",
                kernel_name(row.kernel), row.sign_us.median, row.sign_us.q1, row.sign_us.q3,
                row.verify_us.median, row.verify_us.q1, row.verify_us.q3);
  }
  for (const Row& row : keygen) {
    std::printf("keygen height %d: %.2f ms [%.2f, %.2f]\n", row.height, row.ms.median,
                row.ms.q1, row.ms.q3);
  }
  std::printf("default GenioPlatform build: %.2f ms [%.2f, %.2f], build + activate_pon(): "
              "%.2f ms [%.2f, %.2f]; fastest build over fastest build + activate %.2f "
              "(ceiling %.1f) (sink %u)\n\n",
              platform.median, platform.q1, platform.q3, activated.median, activated.q1,
              activated.q3, deferral, kDeferralCeiling, sink);

  genio::bench::Gate gate({genio::bench::kInvariants});
  gate.check(identity_ok,
             "lane backends match kScalar (blocks, root, signatures) and verify() accepts");
  if (kSanitized) {
    std::printf("note: ratio floor and deferral ceiling reported but not enforced "
                "(sanitizer build)\n");
  } else {
    char what[96];
    std::snprintf(what, sizeof(what), "%s lanes >= %.0fx the kScalar loop (got %.1fx)",
                  kernel_name(dispatched), floor, ratio);
    gate.check(ratio >= floor, what);
    std::snprintf(what, sizeof(what),
                  "platform build <= %.1fx build + activate_pon(), fastest (got %.2fx)",
                  kDeferralCeiling, deferral);
    gate.check(deferral <= kDeferralCeiling, what);
  }

  genio::bench::Json json(args.out, "keygen", smoke);
  json.field("lane_kernel", kernel_name(dispatched)).field("sha256_kernel", sha256_kernel);
  json.field("byte_identity", identity_ok).field("identity_batches", batches);
  json.field("identity_signatures", scalar_run.signatures.size());
  json.object("block_ns").field("dispatched", fast_s, 1).field("scalar_loop", scalar_s, 1).close();
  json.field("ratio_over_scalar_loop", ratio, 2).field("ratio_floor", floor, 1);
  json.field("ratio_floor_enforced", !kSanitized);
  for (const bool sign : {true, false}) {
    json.object(sign ? "sign_us" : "verify_us");
    for (const SignRow& row : sign_rows) {
      json.field(kernel_name(row.kernel), sign ? row.sign_us : row.verify_us, 2);
    }
    json.close();
  }
  json.object("keygen_ms");
  for (const Row& row : keygen) json.field("h" + std::to_string(row.height), row.ms, 3);
  json.close();
  json.field("platform_build_ms", platform, 3).field("platform_activate_ms", activated, 3);
  json.field("build_over_activate", deferral, 3).field("deferral_ceiling", kDeferralCeiling, 1);
  json.field("deferral_ceiling_enforced", !kSanitized).field("invariants_hold", gate.ok());
  return gate.exit_code();
}
