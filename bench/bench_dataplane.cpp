// PON data-plane crypto fast-path sweep, round 4. A seeded corpus of
// GEM-shaped frames (G.987.3 nonces, 9-byte headers as AAD) is swept over
// payload sizes from 64 B to 9 KB jumbo, measuring frames/sec and MB/s for:
//   seal   AES-GCM encrypt+tag     reference: a local bitwise oracle
//                                  (per-call key expansion, 128-iteration
//                                  bitwise GHASH — the seed's gcm_seal path,
//                                  kept here now that the free functions
//                                  route through GcmContext)
//                                  fast: GcmContext::seal_in_place on the
//                                  dispatched backend (cached schedule,
//                                  wide CTR, four-block aggregated GHASH)
//   open   AES-GCM verify+decrypt  bitwise oracle vs GcmContext::open_in_place
//   crc    frame FCS               byte-at-a-time crc32_reference vs
//                                  crc32 on the dispatched backend
// Round-2 arm on top of the sweep:
//   sharded  8 links with independent key contexts, one leaf task per link
//            on the thread pool (ThreadPool::parallel_for), each
//            sealing and opening its frames one GponCipher::encrypt()/
//            decrypt() at a time; per-link leaf times feed an LPT model
//            for 1/2/4/8 workers (CI hosts pin hardware_concurrency to 1,
//            so scaling is modeled from measured leaves, while a real pool
//            run checks byte identity against a serial loop).
// Round-3 and round-4 arms, the data-plane backends (DataplaneKernel), each
// against the one below it:
//   backends       seal+open and CRC of 1 KB frames on the AES-NI/PCLMULQDQ
//                  backend and on the portable one (T-table AES, Shoup
//                  GHASH, slicing-by-8);
//   vaes_backends  the same at 4 KB on the VAES/VPCLMULQDQ backend and on
//                  the AES-NI/PCLMULQDQ one, a size where sixteen-block
//                  passes carry nearly all of a frame.
//   Both sides are timed alternately in one process; the median of the
//   per-repetition ratios is gated, so the floor does not move with the
//   host's speed. An arm is skipped on a CPU without its faster backend.
// Before any timing, every corpus frame is cross-checked on every backend
// the CPU has: ciphertext, tag, and CRC must be byte-identical to the
// bitwise reference AND to the gcm_seal free functions, opens must
// round-trip, and a tampered copy must be rejected by all paths. The CRC
// backends must also equal crc32_reference at every length 0..1100.
// Invariants (exit nonzero if any breaks):
//   * byte identity + tamper-verdict parity across the whole corpus, on
//     every backend, and CRC identity at every length (always enforced);
//   * seal+open frames/sec at 1 KB payloads >= 9x the bitwise reference;
//   * AES-NI/PCLMULQDQ over portable: seal+open at 1 KB >= 8x, CRC at
//     1 KB >= 4x (about half of the 15x and 8x a full run measures on a
//     4-vCPU Xeon with both);
//   * VAES/VPCLMULQDQ over AES-NI/PCLMULQDQ: seal+open at 4 KB >= 1.3x,
//     CRC at 4 KB >= 1.5x (about half of what a full run measures on a
//     4-vCPU Xeon with both; EXPERIMENTS.md E-DATAPLANE4);
//   * with --baseline PATH, per-size fast-path MB/s >= 0.8x the committed
//     numbers (the >20%-regression CI gate).
// Floors are enforced only on uninstrumented builds (bench_util.hpp's
// kSanitized).
// Each timed section is preceded by warm-up iterations (~1/10 of the timed
// count). Writes BENCH_dataplane.json (or --out PATH); `--smoke` runs a
// reduced sweep for CI.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"

#include "genio/common/rng.hpp"
#include "genio/common/strings.hpp"
#include "genio/common/table.hpp"
#include "genio/common/thread_pool.hpp"
#include "genio/crypto/crc32.hpp"
#include "genio/crypto/gcm.hpp"
#include "genio/pon/frame.hpp"
#include "genio/pon/gpon_crypto.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace pon = genio::pon;

namespace {

using DpKernel = cr::DataplaneKernel;
using genio::bench::kSanitized;
using genio::bench::lpt_makespan;
using genio::bench::Spread;
using genio::bench::spread;

const char* kernel_name(DpKernel kernel) {
  switch (kernel) {
    case DpKernel::kPortable: return "portable";
    case DpKernel::kAesPclmul: return "aes_pclmul";
    case DpKernel::kVaesAvx512: return "vaes_avx512";
  }
  return "unknown";
}

// ------------------------------------------------ bitwise reference oracle
// The seed's slow path, reconstructed locally: per-call key expansion and
// the 128-iteration bitwise GHASH. gcm_seal/gcm_open now share GcmContext's
// fast tables, so the bench keeps its own oracle for the speedup floor.

cr::AesBlock ref_j0(const cr::GcmNonce& nonce) {
  cr::AesBlock j0{};
  std::copy(nonce.begin(), nonce.end(), j0.begin());
  j0[15] = 1;
  return j0;
}

void ref_ghash_pad(gc::Bytes& gin, gc::BytesView part) {
  gin.insert(gin.end(), part.begin(), part.end());
  if (part.size() % 16 != 0) gin.resize(gin.size() + (16 - part.size() % 16), 0);
}

cr::GcmTag ref_tag(const cr::Aes128& aes, const cr::GcmNonce& nonce,
                   gc::BytesView aad, gc::BytesView ciphertext) {
  const cr::AesBlock h = aes.encrypt_block(cr::AesBlock{});
  gc::Bytes gin;
  gin.reserve(aad.size() + ciphertext.size() + 48);
  ref_ghash_pad(gin, aad);
  ref_ghash_pad(gin, ciphertext);
  const std::uint64_t aad_bits = aad.size() * 8;
  const std::uint64_t ct_bits = ciphertext.size() * 8;
  for (int i = 0; i < 8; ++i) gin.push_back(static_cast<std::uint8_t>(aad_bits >> (56 - 8 * i)));
  for (int i = 0; i < 8; ++i) gin.push_back(static_cast<std::uint8_t>(ct_bits >> (56 - 8 * i)));
  const cr::AesBlock y = cr::ghash(h, gin);
  const cr::AesBlock ek_j0 = aes.encrypt_block(ref_j0(nonce));
  cr::GcmTag tag{};
  for (std::size_t i = 0; i < 16; ++i) tag[i] = y[i] ^ ek_j0[i];
  return tag;
}

struct RefSealed {
  gc::Bytes ciphertext;
  cr::GcmTag tag{};
};

RefSealed ref_seal(const cr::AesKey& key, const cr::GcmNonce& nonce,
                   gc::BytesView plaintext, gc::BytesView aad) {
  const cr::Aes128 aes(key);  // per-call expansion, as the seed's gcm_seal did
  RefSealed out;
  out.ciphertext.assign(plaintext.begin(), plaintext.end());
  cr::AesBlock ctr = ref_j0(nonce);
  ctr[15] = 2;
  aes.ctr_xor_in_place(ctr, out.ciphertext);
  out.tag = ref_tag(aes, nonce, aad, out.ciphertext);
  return out;
}

bool ref_open(const cr::AesKey& key, const cr::GcmNonce& nonce,
              gc::BytesView ciphertext, const cr::GcmTag& tag, gc::BytesView aad,
              gc::Bytes& plaintext_out) {
  const cr::Aes128 aes(key);
  const cr::GcmTag expect = ref_tag(aes, nonce, aad, ciphertext);
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < 16; ++i) diff |= static_cast<std::uint8_t>(expect[i] ^ tag[i]);
  if (diff != 0) return false;
  plaintext_out.assign(ciphertext.begin(), ciphertext.end());
  cr::AesBlock ctr = ref_j0(nonce);
  ctr[15] = 2;
  aes.ctr_xor_in_place(ctr, plaintext_out);
  return true;
}

// ----------------------------------------------------------------- corpus

struct Sample {
  cr::GcmNonce nonce{};
  pon::GemHeader aad{};
  gc::Bytes plaintext;
  gc::Bytes ciphertext;  // reference seal output, fast-verified identical
  cr::GcmTag tag{};
};

// GEM-shaped corpus: ids/superframe drive the G.987.3 nonce and the header
// AAD exactly as GponCipher derives them.
std::vector<Sample> make_corpus(gc::Rng& rng, const cr::AesKey& key,
                                std::size_t payload_bytes, int frames) {
  std::vector<Sample> corpus;
  corpus.reserve(static_cast<std::size_t>(frames));
  for (int i = 0; i < frames; ++i) {
    pon::GemFrame frame;
    frame.onu_id = static_cast<std::uint16_t>(rng.uniform_range(0, 1023));
    frame.port_id = static_cast<std::uint16_t>(rng.uniform_range(0, 4095));
    frame.superframe = static_cast<std::uint32_t>(rng.uniform_range(0, 1 << 30));
    frame.encrypted = true;  // the on-the-wire header the AAD covers
    Sample s;
    s.aad = frame.header();
    for (int b = 0; b < 4; ++b) {
      s.nonce[static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(frame.superframe >> (24 - 8 * b));
    }
    s.nonce[4] = static_cast<std::uint8_t>(frame.onu_id >> 8);
    s.nonce[5] = static_cast<std::uint8_t>(frame.onu_id);
    s.nonce[6] = static_cast<std::uint8_t>(frame.port_id >> 8);
    s.nonce[7] = static_cast<std::uint8_t>(frame.port_id);
    s.plaintext = rng.bytes(payload_bytes);
    const auto sealed = ref_seal(key, s.nonce, s.plaintext,
                                 gc::BytesView(s.aad.data(), s.aad.size()));
    s.ciphertext = sealed.ciphertext;
    s.tag = sealed.tag;
    corpus.push_back(std::move(s));
  }
  return corpus;
}

// Correctness gate run before any clock starts: the context on its backend
// AND the gcm_seal/gcm_open free functions must agree with the bitwise
// reference on every frame, byte for byte, including rejection of a
// tampered frame; the CRC on the context's backend must equal the oracle.
bool verify_identity(const cr::AesKey& key, const cr::GcmContext& ctx,
                     std::vector<Sample>& corpus) {
  bool ok = true;
  const char* backend = kernel_name(ctx.kernel());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    Sample& s = corpus[i];
    const gc::BytesView aad(s.aad.data(), s.aad.size());

    gc::Bytes buf = s.plaintext;
    const cr::GcmTag tag = ctx.seal_in_place(s.nonce, buf, aad);
    if (buf != s.ciphertext || tag != s.tag) {
      std::fprintf(stderr, "IDENTITY VIOLATED: %s seal diverged on frame %zu\n", backend, i);
      ok = false;
    }
    if (!ctx.open_in_place(s.nonce, buf, tag, aad).ok() || buf != s.plaintext) {
      std::fprintf(stderr, "IDENTITY VIOLATED: %s open failed on frame %zu\n", backend, i);
      ok = false;
    }

    // The one-shot free functions route through a stack context now; they
    // must still produce the seed's bytes.
    const auto one_shot = cr::gcm_seal(key, s.nonce, s.plaintext, aad);
    if (one_shot.ciphertext != s.ciphertext || one_shot.tag != s.tag) {
      std::fprintf(stderr, "IDENTITY VIOLATED: gcm_seal diverged on frame %zu\n", i);
      ok = false;
    }

    // Tamper parity: both paths must reject the same corrupted frame.
    if (!s.ciphertext.empty()) {
      gc::Bytes evil = s.ciphertext;
      evil[i % evil.size()] ^= 0x80;
      gc::Bytes scratch;
      const bool fast_rejects = !ctx.open_in_place(s.nonce, evil, s.tag, aad).ok();
      const bool ref_rejects = !ref_open(key, s.nonce, evil, s.tag, aad, scratch);
      if (!fast_rejects || !ref_rejects) {
        std::fprintf(stderr, "IDENTITY VIOLATED: %s tamper verdict frame %zu\n", backend, i);
        ok = false;
      }
    }

    const std::uint32_t crc = cr::crc32_reference(s.plaintext);
    if (cr::crc32(s.plaintext) != crc ||
        cr::crc32_final(cr::crc32_update(cr::crc32_init(), s.plaintext, ctx.kernel())) != crc) {
      std::fprintf(stderr, "IDENTITY VIOLATED: %s crc diverged on frame %zu\n", backend, i);
      ok = false;
    }
  }
  return ok;
}

// Every CRC backend against the byte-wise oracle at each length 0..1100,
// which puts every tail length behind the 64-byte fold threshold.
bool crc_lengths_identity(gc::Rng& rng, const std::vector<DpKernel>& kernels) {
  const gc::Bytes data = rng.bytes(1100);
  bool ok = true;
  for (std::size_t len = 0; len <= data.size(); ++len) {
    const gc::BytesView view(data.data(), len);
    const std::uint32_t expect = cr::crc32_reference(view);
    for (const DpKernel kernel : kernels) {
      if (cr::crc32_final(cr::crc32_update(cr::crc32_init(), view, kernel)) != expect) {
        std::fprintf(stderr, "IDENTITY VIOLATED: %s crc diverged at length %zu\n",
                     kernel_name(kernel), len);
        ok = false;
      }
    }
  }
  return ok;
}

// Seconds per call over `iters` timed calls after ~1/10 as many warm-up
// calls. `fn(k)` processes corpus frame k % corpus_size.
double per_call(int iters, const std::function<void(int)>& fn) {
  return genio::bench::time_calls(iters / 10 + 1, 1, iters, fn).median;
}

struct PathStats {
  double seconds = 0.0;  // per call
  double fps() const { return seconds <= 0.0 ? 0.0 : 1.0 / seconds; }
  double mbps(std::size_t bytes) const {
    return fps() * static_cast<double>(bytes) / 1e6;
  }
};

struct SizeResult {
  std::size_t payload_bytes = 0;
  PathStats seal_ref, seal_fast, open_ref, open_fast, crc_ref, crc_fast;

  // Frames/sec through a full seal-then-open round trip: the number the
  // >= 9x acceptance target is pinned on.
  double sealopen_fps(bool fast) const {
    return fast ? 1.0 / (seal_fast.seconds + open_fast.seconds)
                : 1.0 / (seal_ref.seconds + open_ref.seconds);
  }
  double sealopen_speedup() const { return sealopen_fps(true) / sealopen_fps(false); }
};

SizeResult run_size(gc::Rng& rng, const cr::AesKey& key,
                    const std::vector<cr::GcmContext>& backends, const cr::GcmContext& ctx,
                    std::size_t payload_bytes, bool smoke, bool& identity_ok) {
  // The reference path (bitwise GHASH) is orders of magnitude slower, so it
  // gets a smaller, separately clamped iteration budget; frames/sec rates
  // stay comparable regardless of the per-path counts.
  const auto clamp_iters = [&](double target_bytes, int lo, int hi) {
    const double n = target_bytes / static_cast<double>(payload_bytes);
    return std::max(lo, std::min(hi, static_cast<int>(n)));
  };
  const double scale = smoke ? 0.125 : 1.0;
  const int iters_ref = clamp_iters(scale * 2e6, 16, 4000);
  const int iters_fast = clamp_iters(scale * 32e6, 64, 60000);
  const int frames = smoke ? 8 : 32;

  auto corpus = make_corpus(rng, key, payload_bytes, frames);
  for (const cr::GcmContext& backend : backends) {
    identity_ok = verify_identity(key, backend, corpus) && identity_ok;
  }

  SizeResult r;
  r.payload_bytes = payload_bytes;
  const auto at = [&](int k) -> Sample& {
    return corpus[static_cast<std::size_t>(k) % corpus.size()];
  };

  volatile std::uint32_t sink = 0;  // keep CRC loops observable
  gc::Bytes buf(payload_bytes + 16);

  r.seal_ref = {per_call(iters_ref, [&](int k) {
                  const Sample& s = at(k);
                  const auto sealed = ref_seal(
                      key, s.nonce, s.plaintext,
                      gc::BytesView(s.aad.data(), s.aad.size()));
                  sink = sink ^ sealed.tag[0];
                })};
  r.seal_fast = {per_call(iters_fast, [&](int k) {
                   const Sample& s = at(k);
                   buf.assign(s.plaintext.begin(), s.plaintext.end());
                   const auto tag = ctx.seal_in_place(
                       s.nonce, buf, gc::BytesView(s.aad.data(), s.aad.size()));
                   sink = sink ^ tag[0];
                 })};
  r.open_ref = {per_call(iters_ref, [&](int k) {
                  const Sample& s = at(k);
                  gc::Bytes opened;
                  const bool good = ref_open(
                      key, s.nonce, s.ciphertext, s.tag,
                      gc::BytesView(s.aad.data(), s.aad.size()), opened);
                  sink = sink ^ static_cast<std::uint32_t>(good);
                })};
  r.open_fast = {per_call(iters_fast, [&](int k) {
                   const Sample& s = at(k);
                   buf.assign(s.ciphertext.begin(), s.ciphertext.end());
                   const auto st = ctx.open_in_place(
                       s.nonce, buf, s.tag, gc::BytesView(s.aad.data(), s.aad.size()));
                   sink = sink ^ static_cast<std::uint32_t>(st.ok());
                 })};

  const int iters_crc = clamp_iters(scale * 64e6, 256, 200000);
  const int iters_crc_ref = clamp_iters(scale * 16e6, 64, 50000);
  r.crc_ref = {per_call(iters_crc_ref, [&](int k) {
                 sink = sink ^ cr::crc32_reference(at(k).plaintext);
               })};
  r.crc_fast = {per_call(iters_crc, [&](int k) {
                  sink = sink ^ cr::crc32(at(k).plaintext);
                })};
  return r;
}

// ------------------------------------------------------------ backends arm

// One backend against the one below it at one payload size, in ns per
// frame; the iteration counts keep each timed section near a millisecond.
struct BackendArm {
  const char* name;  // JSON block
  DpKernel fast, slow;
  std::size_t payload_bytes;
  double sealopen_floor, crc_floor;
  int sealopen_iters_fast, sealopen_iters_slow, crc_iters_fast, crc_iters_slow;
};

constexpr BackendArm kArms[] = {
    {"backends", DpKernel::kAesPclmul, DpKernel::kPortable, 1024, 8.0, 4.0, 4000, 200, 20000,
     4000},
    {"vaes_backends", DpKernel::kVaesAvx512, DpKernel::kAesPclmul, 4096, 1.3, 1.5, 2000, 800,
     20000, 8000},
};

struct BackendRatio {
  const BackendArm* arm;
  int reps = 0;
  Spread sealopen_fast, sealopen_slow, crc_fast, crc_slow;
  double sealopen_ratio = 0.0;  // median of per-repetition slow/fast
  double crc_ratio = 0.0;
};

// Both backends in one process: each repetition times the faster context
// and then the slower one on the same frames (and the faster CRC and then
// the slower), so a host that slows down mid-run slows both sides of most
// ratios.
BackendRatio run_backends(gc::Rng& rng, const cr::AesKey& key, const BackendArm& arm,
                          bool smoke) {
  BackendRatio r{&arm};
  const cr::GcmContext fast(key, arm.fast);
  const cr::GcmContext slow(key, arm.slow);
  const auto corpus = make_corpus(rng, key, arm.payload_bytes, 8);
  gc::Bytes buf(arm.payload_bytes + 16);
  volatile std::uint32_t sink = 0;

  const auto sealopen_ns = [&](const cr::GcmContext& ctx, int iters) {
    return 1e9 * per_call(iters, [&](int k) {
      const Sample& f = corpus[static_cast<std::size_t>(k) % corpus.size()];
      const gc::BytesView aad(f.aad.data(), f.aad.size());
      buf.assign(f.plaintext.begin(), f.plaintext.end());
      const cr::GcmTag tag = ctx.seal_in_place(f.nonce, buf, aad);
      sink = sink ^ static_cast<std::uint32_t>(ctx.open_in_place(f.nonce, buf, tag, aad).ok());
    });
  };
  const auto crc_ns = [&](DpKernel kernel, int iters) {
    return 1e9 * per_call(iters, [&](int k) {
      const Sample& f = corpus[static_cast<std::size_t>(k) % corpus.size()];
      sink = sink ^ cr::crc32_update(cr::crc32_init(), f.plaintext, kernel);
    });
  };

  r.reps = smoke ? 9 : 21;
  std::vector<double> so_fast, so_slow, so_ratio, crc_fast, crc_slow, crc_ratio;
  for (int rep = 0; rep < r.reps; ++rep) {
    so_fast.push_back(sealopen_ns(fast, arm.sealopen_iters_fast));
    so_slow.push_back(sealopen_ns(slow, arm.sealopen_iters_slow));
    so_ratio.push_back(so_slow.back() / so_fast.back());
    crc_fast.push_back(crc_ns(arm.fast, arm.crc_iters_fast));
    crc_slow.push_back(crc_ns(arm.slow, arm.crc_iters_slow));
    crc_ratio.push_back(crc_slow.back() / crc_fast.back());
  }
  r.sealopen_fast = spread(so_fast);
  r.sealopen_slow = spread(so_slow);
  r.crc_fast = spread(crc_fast);
  r.crc_slow = spread(crc_slow);
  r.sealopen_ratio = spread(so_ratio).median;
  r.crc_ratio = spread(crc_ratio).median;
  return r;
}

// ------------------------------------------------------------ sharded arm

pon::GemFrame bench_frame(gc::Rng& rng, std::size_t payload_bytes) {
  pon::GemFrame frame;
  frame.onu_id = static_cast<std::uint16_t>(rng.uniform_range(0, 1023));
  frame.port_id = static_cast<std::uint16_t>(rng.uniform_range(1, 4095));
  frame.superframe = static_cast<std::uint32_t>(rng.uniform_range(0, 1 << 30));
  frame.payload = rng.bytes(payload_bytes);
  return frame;
}

// One link's leaf task: seal every frame in place, one encrypt() each.
void seal_link(const pon::GponCipher& cipher, std::vector<pon::GemFrame>& frames) {
  for (pon::GemFrame& frame : frames) cipher.encrypt(frame);
}

// Open every frame in place, one decrypt() each; false if any fails.
bool open_link(const pon::GponCipher& cipher, std::vector<pon::GemFrame>& frames) {
  bool ok = true;
  for (pon::GemFrame& frame : frames) ok = cipher.decrypt(frame).ok() && ok;
  return ok;
}

struct ShardedResult {
  std::size_t links = 0;
  std::size_t frames_per_link = 0;
  std::size_t payload_bytes = 0;
  std::vector<double> leaf_seconds;           // measured serial per-link time
  std::vector<std::pair<int, double>> modeled;  // workers -> modeled MB/s
  double pool_MBps = 0.0;                     // real pool run (this host)
  bool identity = true;
};

// Per-link sharding: 8 links, independent keys, one seal+open leaf each.
// Leaf times are measured serially (accurate on the 1-core CI host), the
// multi-worker MB/s is LPT-modeled from them, and a real pool run checks
// the parallel path produces the serial bytes.
ShardedResult run_sharded(gc::Rng& rng, bool smoke) {
  ShardedResult r;
  r.links = 8;
  r.frames_per_link = smoke ? 16 : 64;
  r.payload_bytes = 1024;

  std::vector<pon::GponCipher> ciphers;
  std::vector<std::vector<pon::GemFrame>> frames(r.links);
  for (std::size_t l = 0; l < r.links; ++l) {
    ciphers.emplace_back(cr::make_aes_key(rng.bytes(16)));
    // Uneven link loads (x1..x2 frames) so LPT has something to balance.
    const std::size_t n = r.frames_per_link + (l % 4) * (r.frames_per_link / 4);
    for (std::size_t i = 0; i < n; ++i) {
      frames[l].push_back(bench_frame(rng, r.payload_bytes));
    }
  }

  const int iters = smoke ? 10 : 60;
  std::size_t total_bytes = 0;
  for (std::size_t l = 0; l < r.links; ++l) {
    std::vector<pon::GemFrame> work = frames[l];
    r.leaf_seconds.push_back(per_call(iters, [&](int) {
      seal_link(ciphers[l], work);
      if (!open_link(ciphers[l], work)) r.identity = false;
    }));
    total_bytes += frames[l].size() * r.payload_bytes;
  }

  for (const int workers : {1, 2, 4, 8}) {
    const double makespan = lpt_makespan(r.leaf_seconds, workers);
    r.modeled.emplace_back(workers,
                           static_cast<double>(total_bytes) / makespan / 1e6);
  }

  // Real pool run: byte identity vs the serial loop, plus this host's
  // actual multi-worker MB/s (equals the serial number on a 1-core host).
  std::vector<std::vector<pon::GemFrame>> serial_work = frames;
  std::vector<std::vector<pon::GemFrame>> pool_work = frames;
  gc::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  for (std::size_t l = 0; l < r.links; ++l) seal_link(ciphers[l], serial_work[l]);
  pool.parallel_for(r.links, [&](std::size_t l) { seal_link(ciphers[l], pool_work[l]); });
  for (std::size_t l = 0; l < r.links; ++l) {
    for (std::size_t i = 0; i < serial_work[l].size(); ++i) {
      if (serial_work[l][i].payload != pool_work[l][i].payload ||
          serial_work[l][i].fcs != pool_work[l][i].fcs) {
        std::fprintf(stderr, "IDENTITY VIOLATED: sharded seal link %zu frame %zu\n",
                     l, i);
        r.identity = false;
      }
    }
  }
  std::vector<std::uint8_t> pool_opened(r.links, 0);  // one writer per slot
  pool.parallel_for(r.links, [&](std::size_t l) {
    pool_opened[l] = open_link(ciphers[l], pool_work[l]) ? 1 : 0;
  });
  for (std::size_t l = 0; l < r.links; ++l) {
    if (!open_link(ciphers[l], serial_work[l]) || pool_opened[l] == 0 ||
        pool_work[l] != serial_work[l]) {
      std::fprintf(stderr, "IDENTITY VIOLATED: sharded open link %zu\n", l);
      r.identity = false;
    }
  }
  const double t_pool = per_call(iters, [&](int) {
    pool.parallel_for(r.links, [&](std::size_t l) {
      seal_link(ciphers[l], pool_work[l]);
      (void)open_link(ciphers[l], pool_work[l]);
    });
  });
  r.pool_MBps = static_cast<double>(total_bytes) / t_pool / 1e6;
  return r;
}

// ---------------------------------------------------------- baseline gate

// >20% fast-path regression against the committed baseline fails the run
// (uninstrumented builds only; size blocks are matched by payload_bytes so
// smoke's subset sweep compares the shared sizes).
bool within_committed_sizes(const std::string& path, const std::vector<SizeResult>& results) {
  const auto baseline = genio::bench::Baseline::load(path);
  const auto first = baseline.ok() ? baseline->number("sizes[0].payload_bytes") : baseline.error();
  if (!first.ok()) {  // unreadable, or no size blocks
    std::fprintf(stderr, "%s\n", first.error().message().c_str());
    return false;
  }
  bool ok = true;
  for (int i = 0;; ++i) {
    const std::string block = "sizes[" + std::to_string(i) + "]";
    const auto bytes = baseline->number(block + ".payload_bytes");
    if (!bytes.ok()) return ok;
    for (const SizeResult& r : results) {
      if (static_cast<double>(r.payload_bytes) != *bytes) continue;
      const std::string at = " at " + std::to_string(r.payload_bytes) + " B";
      const std::pair<const char*, const PathStats*> paths[] = {
          {"seal", &r.seal_fast}, {"open", &r.open_fast}, {"crc", &r.crc_fast}};
      for (const auto& [name, stats] : paths) {
        ok &= genio::bench::within_baseline(baseline, block + "." + name + ".fast_MBps",
                                            stats->mbps(r.payload_bytes), name + at, "MB/s", 1);
      }
    }
  }
}

void write_json(const genio::bench::Args& args, const std::vector<SizeResult>& results,
                const ShardedResult& sharded, const std::vector<BackendRatio>& ratios,
                double speedup_1k, bool identity_ok, bool invariants_hold) {
  genio::bench::Json json(args.out, "dataplane", args.smoke);
  json.field("round", 4).field("dataplane_kernel", kernel_name(cr::dispatched_dataplane_kernel()));
  json.field("warmup", "~1/10 of timed iterations per section");
  json.array("sizes");
  for (const SizeResult& r : results) {
    const std::size_t bytes = r.payload_bytes;
    json.object().field("payload_bytes", bytes);
    const auto path = [&](const char* name, const PathStats& ref, const PathStats& fast) {
      json.object(name).field("ref_fps", ref.fps(), 1).field("fast_fps", fast.fps(), 1)
          .field("ref_MBps", ref.mbps(bytes), 2).field("fast_MBps", fast.mbps(bytes), 2)
          .field("speedup", fast.fps() / ref.fps(), 2).close();
    };
    path("seal", r.seal_ref, r.seal_fast);
    path("open", r.open_ref, r.open_fast);
    json.object("crc")
        .field("ref_MBps", r.crc_ref.mbps(bytes), 2).field("fast_MBps", r.crc_fast.mbps(bytes), 2)
        .field("speedup", r.crc_fast.fps() / r.crc_ref.fps(), 2).close();
    json.field("sealopen_speedup", r.sealopen_speedup(), 2).close();
  }
  json.close();
  json.object("sharded").field("links", sharded.links).field("payload_bytes", sharded.payload_bytes)
      .field("pool_MBps", sharded.pool_MBps, 2).array("modeled");
  for (const auto& [workers, mbps] : sharded.modeled) {
    json.object().field("workers", workers).field("modeled_MBps", mbps, 2).close();
  }
  json.close().close();
  for (const BackendArm& arm : kArms) {
    const auto ran = std::find_if(ratios.begin(), ratios.end(),
                                  [&](const BackendRatio& r) { return r.arm == &arm; });
    if (ran == ratios.end()) {
      json.null(arm.name);
      continue;
    }
    const BackendRatio& b = *ran;
    const char* fast = kernel_name(arm.fast);
    const char* slow = kernel_name(arm.slow);
    json.object(arm.name).field("payload_bytes", arm.payload_bytes).field("reps", b.reps);
    json.object("sealopen_ns")
        .field(fast, b.sealopen_fast, 1).field(slow, b.sealopen_slow, 1).close();
    json.object("crc_ns").field(fast, b.crc_fast, 1).field(slow, b.crc_slow, 1).close();
    json.field("sealopen_ratio", b.sealopen_ratio, 2)
        .field("sealopen_ratio_floor", arm.sealopen_floor, 1).field("crc_ratio", b.crc_ratio, 2)
        .field("crc_ratio_floor", arm.crc_floor, 1).field("ratio_floors_enforced", !kSanitized)
        .close();
  }
  json.object("summary")
      .field("sealopen_speedup_at_1k", speedup_1k, 2).field("byte_identity", identity_ok)
      .field("speedup_floor_enforced", !kSanitized).close();
  json.field("invariants_hold", invariants_hold);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = genio::bench::parse_args(argc, argv, "BENCH_dataplane.json");
  const bool smoke = args.smoke;

  const unsigned hw = std::thread::hardware_concurrency();
  gc::Rng rng(0x90247);
  const cr::AesKey key = cr::make_aes_key(rng.bytes(16));
  const cr::GcmContext ctx(key);  // built once, as GponCipher holds it
  std::vector<DpKernel> kernels;
  for (const DpKernel kernel :
       {DpKernel::kPortable, DpKernel::kAesPclmul, DpKernel::kVaesAvx512}) {
    if (cr::supports_dataplane_kernel(kernel)) kernels.push_back(kernel);
  }
  std::vector<cr::GcmContext> backends;
  for (const DpKernel kernel : kernels) backends.emplace_back(key, kernel);

  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{64, 1024, 9000}
            : std::vector<std::size_t>{64, 256, 1024, 4096, 9000};
  std::printf("=== data-plane crypto fast path (round 4): %zu payload sizes, "
              "dispatched backend %s, %u hardware threads%s ===\n\n",
              sizes.size(), kernel_name(ctx.kernel()), hw, smoke ? " (smoke)" : "");
  for (const BackendArm& arm : kArms) {
    if (!cr::supports_dataplane_kernel(arm.fast)) {
      std::printf("note: this CPU lacks the %s backend: its identity pass and the %s ratio "
                  "arm are skipped\n\n",
                  kernel_name(arm.fast), arm.name);
    }
  }

  bool identity_ok = crc_lengths_identity(rng, kernels);
  std::vector<SizeResult> results;
  for (const std::size_t bytes : sizes) {
    results.push_back(run_size(rng, key, backends, ctx, bytes, smoke, identity_ok));
  }
  const ShardedResult sharded = run_sharded(rng, smoke);
  identity_ok = identity_ok && sharded.identity;
  std::vector<BackendRatio> ratios;
  for (const BackendArm& arm : kArms) {
    if (cr::supports_dataplane_kernel(arm.fast)) {
      ratios.push_back(run_backends(rng, key, arm, smoke));
    }
  }

  gc::Table table({"payload B", "seal ref f/s", "seal fast f/s", "open ref f/s",
                   "open fast f/s", "fast seal MB/s", "crc speedup",
                   "seal+open speedup"});
  for (const SizeResult& r : results) {
    table.add_row({std::to_string(r.payload_bytes),
                   gc::format_double(r.seal_ref.fps(), 0),
                   gc::format_double(r.seal_fast.fps(), 0),
                   gc::format_double(r.open_ref.fps(), 0),
                   gc::format_double(r.open_fast.fps(), 0),
                   gc::format_double(r.seal_fast.mbps(r.payload_bytes), 1),
                   gc::format_double(r.crc_fast.fps() / r.crc_ref.fps(), 2),
                   gc::format_double(r.sealopen_speedup(), 2)});
  }
  std::printf("%s\n", table.render().c_str());

  std::printf("sharded (8 links, pool run): %.1f MB/s; LPT-modeled:", sharded.pool_MBps);
  for (const auto& [workers, mbps] : sharded.modeled) {
    std::printf(" %dw=%.0f", workers, mbps);
  }
  std::printf(" MB/s\n");

  double speedup_1k = 0.0;
  for (const SizeResult& r : results) {
    if (r.payload_bytes == 1024) speedup_1k = r.sealopen_speedup();
  }
  std::printf("seal+open speedup at 1 KB payloads: %.2fx (target >= 9x)\n",
              speedup_1k);
  for (const BackendRatio& r : ratios) {
    std::printf("%zu B %s over %s, median of %d alternating repetitions: "
                "seal+open %.0f ns vs %.0f ns = %.1fx (floor %.1fx), "
                "crc %.0f ns vs %.0f ns = %.1fx (floor %.1fx)\n",
                r.arm->payload_bytes, kernel_name(r.arm->fast), kernel_name(r.arm->slow), r.reps,
                r.sealopen_fast.median, r.sealopen_slow.median, r.sealopen_ratio,
                r.arm->sealopen_floor, r.crc_fast.median, r.crc_slow.median, r.crc_ratio,
                r.arm->crc_floor);
  }
  std::printf("\n");

  genio::bench::Gate gate({genio::bench::kInvariants});
  gate.check(identity_ok, "every backend byte-identical to reference across corpus");
  if (kSanitized) {
    std::printf("note: speedup floors reported but not enforced — sanitizer "
                "instrumentation distorts relative path costs\n");
  } else {
    gate.check(speedup_1k >= 9.0, "seal+open >= 9x reference at 1 KB payloads");
    for (const BackendRatio& r : ratios) {
      const std::string over = std::string(kernel_name(r.arm->slow)) + " at " +
                               std::to_string(r.arm->payload_bytes) + " B";
      const std::string fast = kernel_name(r.arm->fast);
      gate.check(r.sealopen_ratio >= r.arm->sealopen_floor,
                 fast + " seal+open >= " + gc::format_double(r.arm->sealopen_floor, 1) + "x " +
                     over);
      gate.check(r.crc_ratio >= r.arm->crc_floor,
                 fast + " crc >= " + gc::format_double(r.arm->crc_floor, 1) + "x " + over);
    }
    if (!args.baseline.empty()) {
      gate.check(within_committed_sizes(args.baseline, results),
                 "fast-path MB/s within 20% of committed baseline");
    }
  }

  write_json(args, results, sharded, ratios, speedup_1k, identity_ok, gate.ok());
  return gate.exit_code();
}
