// PON data-plane crypto bench, round 5. A seeded corpus of GEM-shaped
// frames (G.987.3 nonces, 9-byte headers as AAD) from 64 B to 9 KB.
//
// Identity comes first and is always enforced: every data-plane backend the
// CPU has (DataplaneKernel) seals, opens, tampers and CRCs every corpus
// frame, and must match a local bitwise oracle (per-call key expansion,
// single-block CTR, 128-iteration bitwise GHASH) and the gcm_seal free
// function byte for byte, reject the same tampered frames, and match
// crc32_reference; the CRC backends must also match it at every length
// 0..1100.
//
// Then four arms. The ratio arms time their sides alternately in one
// process, one short sample of each side per round, and gate the ratio of
// the sides' fastest samples (alternate_ns, fastest_ratio), so no floor
// moves with the host's speed, and no absolute MB/s is compared against a
// committed file:
//   reference      seal+open of 1 KB frames on the dispatched backend over
//                  the bitwise oracle (>= 9x);
//   over_portable  seal+open and CRC on each hardware backend over
//                  kPortable at every size, with a floor per backend and
//                  size at about 0.8 of the lowest of 50 smoke runs on a
//                  4-vCPU Xeon with both backends; the same samples give
//                  VAES/VPCLMULQDQ over AES-NI/PCLMULQDQ at 4 KB (>= 1.3x
//                  seal+open, >= 1.5x CRC);
//   fused          on each hardware backend at 64 B, 1,500 B, 4 KB and
//                  9 KB, the one-call seal and open against the composed
//                  pieces they replace: ctr_xor_wide over the payload and
//                  over J0, and GcmContext::ghash over an AAD || payload ||
//                  lengths buffer of the same padded length, built outside
//                  the timed loop. The 4 KB and 9 KB floors fail a fused
//                  call 25 % slower, and all but AES-NI's at 9 KB fail the
//                  composed path (kFusedFloors; EXPERIMENTS.md E-GHASH);
//   sharded        8 links with their own keys, one pool task per link,
//                  each sealing and opening its frames one GponCipher call
//                  at a time; per-link leaf times feed an LPT model for
//                  1/2/4/8 workers, and a real pool run must give the
//                  serial loop's bytes (informational apart from identity).
// Floors are enforced only on uninstrumented builds (bench_util.hpp's
// kSanitized); an arm is skipped on a CPU without its backend. Each ratio
// arm runs untimed for a tenth of its window first. Writes
// BENCH_dataplane.json (or --out PATH); `--smoke` gives the over_portable
// and reference arms a shorter window.
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

constexpr DpKernel kHardware[] = {DpKernel::kAesPclmul, DpKernel::kVaesAvx512};

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
// the 128-iteration bitwise GHASH. gcm_seal/gcm_open route through
// GcmContext, so the bench keeps its own oracle.

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

// AAD and ciphertext, each zero-padded to whole blocks, then the length
// block: the GHASH input of a GCM tag.
gc::Bytes ghash_input(gc::BytesView aad, gc::BytesView ciphertext) {
  gc::Bytes gin;
  gin.reserve(aad.size() + ciphertext.size() + 48);
  ref_ghash_pad(gin, aad);
  ref_ghash_pad(gin, ciphertext);
  for (const std::uint64_t bits : {aad.size() * 8, ciphertext.size() * 8}) {
    for (int i = 0; i < 8; ++i) gin.push_back(static_cast<std::uint8_t>(bits >> (56 - 8 * i)));
  }
  return gin;
}

cr::GcmTag ref_tag(const cr::Aes128& aes, const cr::GcmNonce& nonce, gc::BytesView aad,
                   gc::BytesView ciphertext) {
  const cr::AesBlock y = cr::ghash(aes.encrypt_block(cr::AesBlock{}), ghash_input(aad, ciphertext));
  const cr::AesBlock ek_j0 = aes.encrypt_block(ref_j0(nonce));
  cr::GcmTag tag{};
  for (std::size_t i = 0; i < 16; ++i) tag[i] = y[i] ^ ek_j0[i];
  return tag;
}

struct RefSealed {
  gc::Bytes ciphertext;
  cr::GcmTag tag{};
};

RefSealed ref_seal(const cr::AesKey& key, const cr::GcmNonce& nonce, gc::BytesView plaintext,
                   gc::BytesView aad) {
  const cr::Aes128 aes(key);  // per-call expansion, as the seed's gcm_seal did
  RefSealed out;
  out.ciphertext.assign(plaintext.begin(), plaintext.end());
  cr::AesBlock ctr = ref_j0(nonce);
  ctr[15] = 2;
  aes.ctr_xor_in_place(ctr, out.ciphertext);
  out.tag = ref_tag(aes, nonce, aad, out.ciphertext);
  return out;
}

bool ref_open(const cr::AesKey& key, const cr::GcmNonce& nonce, gc::BytesView ciphertext,
              const cr::GcmTag& tag, gc::BytesView aad, gc::Bytes& plaintext_out) {
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
  gc::BytesView aad_view() const { return {aad.data(), aad.size()}; }
};

// GEM-shaped corpus: ids/superframe drive the G.987.3 nonce and the header
// AAD exactly as GponCipher derives them.
std::vector<Sample> make_corpus(gc::Rng& rng, const cr::AesKey& key, std::size_t payload_bytes,
                                int frames) {
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
    const auto sealed = ref_seal(key, s.nonce, s.plaintext, s.aad_view());
    s.ciphertext = sealed.ciphertext;
    s.tag = sealed.tag;
    corpus.push_back(std::move(s));
  }
  return corpus;
}

// Every backend against the bitwise reference on every frame, byte for
// byte, including the rejection of a tampered frame, which must leave the
// buffer holding the ciphertext; the CRC on the backend must equal the
// oracle.
bool verify_identity(const cr::AesKey& key, const std::vector<cr::GcmContext>& backends,
                     const std::vector<Sample>& corpus) {
  bool ok = true;
  for (const cr::GcmContext& ctx : backends) {
    const char* backend = kernel_name(ctx.kernel());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      const Sample& s = corpus[i];
      gc::Bytes buf = s.plaintext;
      const cr::GcmTag tag = ctx.seal_in_place(s.nonce, buf, s.aad_view());
      if (buf != s.ciphertext || tag != s.tag) {
        std::fprintf(stderr, "IDENTITY VIOLATED: %s seal diverged on frame %zu\n", backend, i);
        ok = false;
      }
      if (!ctx.open_in_place(s.nonce, buf, tag, s.aad_view()).ok() || buf != s.plaintext) {
        std::fprintf(stderr, "IDENTITY VIOLATED: %s open failed on frame %zu\n", backend, i);
        ok = false;
      }
      if (!s.ciphertext.empty()) {
        gc::Bytes evil = s.ciphertext;
        evil[i % evil.size()] ^= 0x80;
        const gc::Bytes before = evil;
        gc::Bytes scratch;
        const bool fast_rejects = !ctx.open_in_place(s.nonce, evil, s.tag, s.aad_view()).ok();
        const bool ref_rejects = !ref_open(key, s.nonce, before, s.tag, s.aad_view(), scratch);
        if (!fast_rejects || !ref_rejects || evil != before) {
          std::fprintf(stderr, "IDENTITY VIOLATED: %s tamper verdict frame %zu\n", backend, i);
          ok = false;
        }
      }
      const std::uint32_t crc = cr::crc32_reference(s.plaintext);
      if (cr::crc32_final(cr::crc32_update(cr::crc32_init(), s.plaintext, ctx.kernel())) != crc) {
        std::fprintf(stderr, "IDENTITY VIOLATED: %s crc diverged on frame %zu\n", backend, i);
        ok = false;
      }
    }
  }
  // The one-shot free function routes through a stack context on the
  // dispatched backend; it must still produce the seed's bytes.
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    const Sample& s = corpus[i];
    const auto one_shot = cr::gcm_seal(key, s.nonce, s.plaintext, s.aad_view());
    if (one_shot.ciphertext != s.ciphertext || one_shot.tag != s.tag ||
        cr::crc32(s.plaintext) != cr::crc32_reference(s.plaintext)) {
      std::fprintf(stderr, "IDENTITY VIOLATED: gcm_seal or crc32 diverged on frame %zu\n", i);
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

// ----------------------------------------------------------------- timing

// Nanoseconds per call over `iters` timed calls after ~1/10 as many
// warm-up calls. `fn(k)` processes corpus frame k % corpus size.
double ns_per_call(int iters, const std::function<void(int)>& fn) {
  return 1e9 * genio::bench::time_calls(iters / 10 + 1, 1, iters, fn).median;
}

// One side of a ratio arm: `side(k)` processes corpus frame k % corpus size.
using Side = std::function<void(int)>;

// Calls per timed sample that put about `sample_bytes` through it, so the
// clock's own cost stays small against the sample.
int batch_for(std::size_t sample_bytes, std::size_t payload_bytes) {
  return std::max(1, static_cast<int>(sample_bytes / payload_bytes));
}

// Nanoseconds per call of each side, timed alternately: every round times
// one sample of `batch` calls of each side in turn, so all sides see the
// same host state within microseconds. Rounds run untimed for a tenth of
// `seconds`, then timed for `seconds`.
std::vector<Spread> alternate_ns(double seconds, int batch, const std::vector<Side>& sides) {
  std::vector<std::vector<double>> ns(sides.size());
  int k = 0;
  const auto round = [&](bool timed) {
    for (std::size_t s = 0; s < sides.size(); ++s) {
      const auto start = genio::bench::Clock::now();
      for (int c = 0; c < batch; ++c) sides[s](k + c);
      if (timed) ns[s].push_back(1e9 * genio::bench::seconds_since(start) / batch);
    }
    k += batch;
  };
  for (const auto start = genio::bench::Clock::now();
       genio::bench::seconds_since(start) < seconds / 10;) {
    round(false);
  }
  for (const auto start = genio::bench::Clock::now();
       ns[0].empty() || genio::bench::seconds_since(start) < seconds;) {
    round(true);
  }
  std::vector<Spread> out;
  for (const std::vector<double>& side : ns) out.push_back(spread(side));
  return out;
}

// The gated statistic: `slow`'s fastest sample over `fast`'s. The host
// swings between a fast state and a slow one that can last seconds and
// slows the stitched kernels most (EXPERIMENTS.md E-DATAPLANE5), so a
// ratio of medians reads whichever mix of states a run saw; the fastest
// samples compare both sides in the fast state whenever any part of the
// run reached it, and in the slow state otherwise.
double fastest_ratio(const Spread& slow, const Spread& fast) { return slow.min / fast.min; }

// One timed seal+open of a corpus frame in `buf`, as GponCipher runs them.
void seal_open(const cr::GcmContext& ctx, const Sample& f, gc::Bytes& buf) {
  buf.assign(f.plaintext.begin(), f.plaintext.end());
  const cr::GcmTag tag = ctx.seal_in_place(f.nonce, buf, f.aad_view());
  genio::bench::keep(ctx.open_in_place(f.nonce, buf, tag, f.aad_view()).ok());
}

// ------------------------------------------------------------ reference arm

struct ReferenceArm {
  static constexpr std::size_t kPayloadBytes = 1024;
  static constexpr double kFloor = 9.0;
  Spread reference_ns, fast_ns;
  double speedup = 0.0;
};

ReferenceArm run_reference(gc::Rng& rng, const cr::AesKey& key, const cr::GcmContext& ctx,
                           double seconds) {
  const auto corpus = make_corpus(rng, key, ReferenceArm::kPayloadBytes, 8);
  const auto at = [&](int k) -> const Sample& {
    return corpus[static_cast<std::size_t>(k) % corpus.size()];
  };
  const Side reference = [&](int k) {
    const Sample& f = at(k);
    const auto sealed = ref_seal(key, f.nonce, f.plaintext, f.aad_view());
    gc::Bytes opened;
    genio::bench::keep(ref_open(key, f.nonce, sealed.ciphertext, sealed.tag, f.aad_view(), opened));
  };
  gc::Bytes buf;
  const auto ns = alternate_ns(seconds, 1, {reference, [&](int k) { seal_open(ctx, at(k), buf); }});
  return {ns[0], ns[1], fastest_ratio(ns[0], ns[1])};
}

// --------------------------------------------------------- over-portable arm

// Floors of one hardware backend's ratios over kPortable at one size.
struct PortableFloor {
  DpKernel kernel;
  std::size_t payload_bytes;
  double sealopen, crc;
};

constexpr std::size_t kSizes[] = {64, 256, 1024, 4096, 9000};

// About 0.8 of the lowest of 50 smoke runs on a 4-vCPU Xeon (Emerald
// Rapids), where the host's slow state (see fastest_ratio) moves the VAES
// ratios by up to 1.5x and the AES-NI ones by up to 1.3x between runs.
constexpr PortableFloor kPortableFloors[] = {
    {DpKernel::kAesPclmul, 64, 10.5, 1.8},    {DpKernel::kAesPclmul, 256, 11.0, 4.0},
    {DpKernel::kAesPclmul, 1024, 12.5, 6.5},  {DpKernel::kAesPclmul, 4096, 14.0, 8.0},
    {DpKernel::kAesPclmul, 9000, 14.5, 8.0},  {DpKernel::kVaesAvx512, 64, 13.0, 1.7},
    {DpKernel::kVaesAvx512, 256, 16.0, 5.2},  {DpKernel::kVaesAvx512, 1024, 23.0, 13.0},
    {DpKernel::kVaesAvx512, 4096, 33.0, 21.0}, {DpKernel::kVaesAvx512, 9000, 38.0, 26.0},
};

// VAES/VPCLMULQDQ over AES-NI/PCLMULQDQ, from the same samples.
constexpr std::size_t kVaesOverAesBytes = 4096;
constexpr double kVaesOverAesSealOpenFloor = 1.3;
constexpr double kVaesOverAesCrcFloor = 1.5;

const PortableFloor& portable_floor(DpKernel kernel, std::size_t payload_bytes) {
  return *std::find_if(std::begin(kPortableFloors), std::end(kPortableFloors),
                       [&](const PortableFloor& f) {
                         return f.kernel == kernel && f.payload_bytes == payload_bytes;
                       });
}

struct SizeRatios {
  std::size_t payload_bytes = 0;
  std::vector<DpKernel> kernels;            // kPortable first, then the hardware ones
  std::vector<Spread> sealopen_ns, crc_ns;  // per kernel

  double sealopen_ratio(std::size_t slow, std::size_t fast) const {
    return fastest_ratio(sealopen_ns[slow], sealopen_ns[fast]);
  }
  double crc_ratio(std::size_t slow, std::size_t fast) const {
    return fastest_ratio(crc_ns[slow], crc_ns[fast]);
  }
};

// Every backend at one size: seal+open alternately on each backend, then
// CRC alternately on each, on the same frames.
SizeRatios run_size(const std::vector<cr::GcmContext>& backends,
                    const std::vector<Sample>& corpus, std::size_t payload_bytes,
                    double seconds) {
  SizeRatios r;
  r.payload_bytes = payload_bytes;
  gc::Bytes buf;
  const auto at = [&](int k) -> const Sample& {
    return corpus[static_cast<std::size_t>(k) % corpus.size()];
  };
  std::vector<Side> sealopen, crc;
  for (const cr::GcmContext& ctx : backends) {
    const DpKernel kernel = ctx.kernel();
    r.kernels.push_back(kernel);
    sealopen.emplace_back([&](int k) { seal_open(ctx, at(k), buf); });
    crc.emplace_back([&at, kernel](int k) {
      genio::bench::keep(cr::crc32_update(cr::crc32_init(), at(k).plaintext, kernel));
    });
  }
  r.sealopen_ns = alternate_ns(seconds, batch_for(4096, payload_bytes), sealopen);
  r.crc_ns = alternate_ns(seconds, batch_for(32768, payload_bytes), crc);
  return r;
}

// ------------------------------------------------------------- fused arm

struct FusedFloor {
  DpKernel kernel;
  std::size_t payload_bytes;
  double floor;
};

// The composed pieces run without the data dependence between them (the
// GHASH input is built outside the timed loop), so they overlap one another
// in the core, and GcmContext::ghash runs each backend's own pass fold. Over
// 50 smoke runs on the 4-vCPU Xeon the fused call read 0.71-0.84x (AES-NI)
// and 0.94-1.08x (VAES) at 64 B, 0.94-0.99x and 0.92-1.02x at 1,500 B,
// 1.02-1.07x and 1.00-1.23x at 4 KB, and 1.01-1.09x and 1.04-1.27x at 9 KB
// (the VAES lows at 4 KB and 9 KB are one run's; the next lowest of 165 runs
// read 1.07x and 1.10x). A copy whose fused call takes 25 % longer reads at
// most 0.84x (AES-NI) or 0.94x and 1.00x (VAES) at 4 KB and 9 KB over 40
// smoke runs: every 4 KB and 9 KB floor fails it every time. One that
// routes the fused entry points back through the composed path reads at
// most 0.39/0.85/0.94/0.96x (AES-NI) and 0.45/0.70/0.88/0.92x (VAES) over
// 10 runs, under every floor but AES-NI's at 9 KB, where the fused call is
// only 4-9 % faster than the composition.
constexpr FusedFloor kFusedFloors[] = {
    {DpKernel::kAesPclmul, 64, 0.55},    {DpKernel::kAesPclmul, 1500, 0.88},
    {DpKernel::kAesPclmul, 4096, 0.97},  {DpKernel::kAesPclmul, 9000, 0.92},
    {DpKernel::kVaesAvx512, 64, 0.65},   {DpKernel::kVaesAvx512, 1500, 0.80},
    {DpKernel::kVaesAvx512, 4096, 0.97}, {DpKernel::kVaesAvx512, 9000, 1.00},
};

struct FusedRatio {
  const FusedFloor* arm;
  Spread fused_ns, composed_ns;
  double ratio = 0.0;  // composed over fused, fastest samples
};

// One backend at one size: the one-call seal+open alternately with the
// composed pieces it replaced, on the same frames.
FusedRatio run_fused(gc::Rng& rng, const cr::AesKey& key, const FusedFloor& arm, double seconds,
                     bool& identity_ok) {
  const cr::GcmContext ctx(key, arm.kernel);
  const auto corpus = make_corpus(rng, key, arm.payload_bytes, 8);
  identity_ok = verify_identity(key, {ctx}, corpus) && identity_ok;
  std::vector<gc::Bytes> gin;
  std::vector<cr::AesBlock> j0, payload_iv;
  for (const Sample& s : corpus) {
    gin.push_back(ghash_input(s.aad_view(), s.ciphertext));
    j0.push_back(ref_j0(s.nonce));
    payload_iv.push_back(j0.back());
    payload_iv.back()[15] = 2;
  }
  gc::Bytes buf;
  const auto ns = alternate_ns(
      seconds, batch_for(4096, arm.payload_bytes),
      {[&](int k) { seal_open(ctx, corpus[static_cast<std::size_t>(k) % corpus.size()], buf); },
       [&](int k) {
         const auto i = static_cast<std::size_t>(k) % corpus.size();
         buf.assign(corpus[i].plaintext.begin(), corpus[i].plaintext.end());
         cr::AesBlock ek_j0{};
         ctx.cipher().ctr_xor_wide(payload_iv[i], buf);  // seal: CTR, E_K(J0), GHASH
         ctx.cipher().ctr_xor_wide(j0[i], ek_j0);
         genio::bench::keep(ctx.ghash(gin[i]));
         genio::bench::keep(ctx.ghash(gin[i]));  // open: GHASH, E_K(J0), CTR
         ctx.cipher().ctr_xor_wide(j0[i], ek_j0);
         ctx.cipher().ctr_xor_wide(payload_iv[i], buf);
         genio::bench::keep(ek_j0);
       }});
  return {&arm, ns[0], ns[1], fastest_ratio(ns[1], ns[0])};
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
  std::vector<double> leaf_seconds;             // measured serial per-link time
  std::vector<std::pair<int, double>> modeled;  // workers -> modeled MB/s
  double pool_MBps = 0.0;                       // real pool run (this host)
  bool identity = true;
};

// Per-link sharding: 8 links, independent keys, one seal+open leaf each.
// Leaf times are measured serially, the multi-worker MB/s is LPT-modeled
// from them, and a real pool run checks the parallel path produces the
// serial bytes.
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
    r.leaf_seconds.push_back(1e-9 * ns_per_call(iters, [&](int) {
      seal_link(ciphers[l], work);
      if (!open_link(ciphers[l], work)) r.identity = false;
    }));
    total_bytes += frames[l].size() * r.payload_bytes;
  }

  for (const int workers : {1, 2, 4, 8}) {
    const double makespan = lpt_makespan(r.leaf_seconds, workers);
    r.modeled.emplace_back(workers, static_cast<double>(total_bytes) / makespan / 1e6);
  }

  // Real pool run: byte identity vs the serial loop, plus this host's
  // actual multi-worker MB/s.
  std::vector<std::vector<pon::GemFrame>> serial_work = frames;
  std::vector<std::vector<pon::GemFrame>> pool_work = frames;
  gc::ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()));
  for (std::size_t l = 0; l < r.links; ++l) seal_link(ciphers[l], serial_work[l]);
  pool.parallel_for(r.links, [&](std::size_t l) { seal_link(ciphers[l], pool_work[l]); });
  for (std::size_t l = 0; l < r.links; ++l) {
    for (std::size_t i = 0; i < serial_work[l].size(); ++i) {
      if (serial_work[l][i].payload != pool_work[l][i].payload ||
          serial_work[l][i].fcs != pool_work[l][i].fcs) {
        std::fprintf(stderr, "IDENTITY VIOLATED: sharded seal link %zu frame %zu\n", l, i);
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
  const double t_pool = 1e-9 * ns_per_call(iters, [&](int) {
    pool.parallel_for(r.links, [&](std::size_t l) {
      seal_link(ciphers[l], pool_work[l]);
      (void)open_link(ciphers[l], pool_work[l]);
    });
  });
  r.pool_MBps = static_cast<double>(total_bytes) / t_pool / 1e6;
  return r;
}

// ----------------------------------------------------------------- output

// Nanoseconds per call of one side: {"median", "q1", "q3", "fastest"}.
void ns_field(genio::bench::Json& json, std::string_view key, const Spread& s) {
  json.object(key).field("median", s.median, 1).field("q1", s.q1, 1).field("q3", s.q3, 1)
      .field("fastest", s.min, 1).close();
}

void write_json(const genio::bench::Args& args, double arm_seconds, const ReferenceArm& reference,
                const std::vector<SizeRatios>& sizes, const std::vector<FusedRatio>& fused,
                const ShardedResult& sharded, bool identity_ok, bool invariants_hold) {
  genio::bench::Json json(args.out, "dataplane", args.smoke);
  json.field("round", 5).field("dataplane_kernel", kernel_name(cr::dispatched_dataplane_kernel()));
  json.field("arm_seconds", arm_seconds, 2).field("warmup", "a tenth of arm_seconds, untimed");
  json.field("ratios", "fastest sample over fastest sample");
  json.field("ratio_floors_enforced", !kSanitized);
  json.object("reference").field("payload_bytes", ReferenceArm::kPayloadBytes);
  ns_field(json, "reference_ns", reference.reference_ns);
  ns_field(json, "fast_ns", reference.fast_ns);
  json.field("sealopen_speedup", reference.speedup, 2)
      .field("sealopen_speedup_floor", ReferenceArm::kFloor, 1).close();
  json.array("over_portable");
  for (const SizeRatios& s : sizes) {
    json.object().field("payload_bytes", s.payload_bytes);
    for (const char* what : {"sealopen_ns", "crc_ns"}) {
      json.object(what);
      for (std::size_t b = 0; b < s.kernels.size(); ++b) {
        ns_field(json, kernel_name(s.kernels[b]),
                 std::string(what) == "crc_ns" ? s.crc_ns[b] : s.sealopen_ns[b]);
      }
      json.close();
    }
    for (std::size_t b = 1; b < s.kernels.size(); ++b) {
      const PortableFloor& floor = portable_floor(s.kernels[b], s.payload_bytes);
      json.object(kernel_name(s.kernels[b]))
          .field("sealopen_ratio", s.sealopen_ratio(0, b), 2)
          .field("sealopen_ratio_floor", floor.sealopen, 1)
          .field("crc_ratio", s.crc_ratio(0, b), 2).field("crc_ratio_floor", floor.crc, 1)
          .close();
    }
    json.close();
  }
  json.close();
  json.array("fused");
  for (const FusedRatio& f : fused) {
    json.object().field("kernel", kernel_name(f.arm->kernel))
        .field("payload_bytes", f.arm->payload_bytes);
    ns_field(json, "fused_ns", f.fused_ns);
    ns_field(json, "composed_ns", f.composed_ns);
    json.field("ratio", f.ratio, 3).field("ratio_floor", f.arm->floor, 2).close();
  }
  json.close();
  json.object("sharded").field("links", sharded.links).field("payload_bytes", sharded.payload_bytes)
      .field("pool_MBps", sharded.pool_MBps, 2).array("modeled");
  for (const auto& [workers, mbps] : sharded.modeled) {
    json.object().field("workers", workers).field("modeled_MBps", mbps, 2).close();
  }
  json.close().close();
  json.object("summary").field("byte_identity", identity_ok).close();
  json.field("invariants_hold", invariants_hold);
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = genio::bench::parse_args(argc, argv, "BENCH_dataplane.json");
  // Seconds each ratio arm alternates its sides. The fused arms carry the
  // tightest floors and keep the full window in a smoke run too.
  const double arm_seconds = args.smoke ? 0.05 : 0.25;
  constexpr double kFusedSeconds = 0.25;

  gc::Rng rng(0x90247);
  const cr::AesKey key = cr::make_aes_key(rng.bytes(16));
  std::vector<DpKernel> kernels;
  std::vector<cr::GcmContext> backends;
  for (const DpKernel kernel :
       {DpKernel::kPortable, DpKernel::kAesPclmul, DpKernel::kVaesAvx512}) {
    if (!cr::supports_dataplane_kernel(kernel)) continue;
    kernels.push_back(kernel);
    backends.emplace_back(key, kernel);
  }
  std::printf("=== data-plane crypto (round 5): dispatched backend %s, %u hardware threads%s ===\n\n",
              kernel_name(cr::dispatched_dataplane_kernel()),
              std::thread::hardware_concurrency(), args.smoke ? " (smoke)" : "");
  for (const DpKernel kernel : kHardware) {
    if (!cr::supports_dataplane_kernel(kernel)) {
      std::printf("note: this CPU lacks the %s backend: its identity pass and ratio arms are "
                  "skipped\n\n",
                  kernel_name(kernel));
    }
  }

  bool identity_ok = crc_lengths_identity(rng, kernels);
  std::vector<SizeRatios> sizes;
  for (const std::size_t bytes : kSizes) {
    const auto corpus = make_corpus(rng, key, bytes, args.smoke ? 8 : 16);
    identity_ok = verify_identity(key, backends, corpus) && identity_ok;
    sizes.push_back(run_size(backends, corpus, bytes, arm_seconds));
  }
  const ReferenceArm reference = run_reference(rng, key, backends.back(), arm_seconds);
  std::vector<FusedRatio> fused;
  for (const FusedFloor& arm : kFusedFloors) {
    if (cr::supports_dataplane_kernel(arm.kernel)) {
      fused.push_back(run_fused(rng, key, arm, kFusedSeconds, identity_ok));
    }
  }
  const ShardedResult sharded = run_sharded(rng, args.smoke);
  identity_ok = identity_ok && sharded.identity;

  std::vector<std::string> header = {"payload B"};
  for (const DpKernel kernel : kernels) header.push_back(std::string(kernel_name(kernel)) + " ns");
  for (std::size_t b = 1; b < kernels.size(); ++b) {
    header.push_back(std::string(kernel_name(kernels[b])) + " x");
    header.push_back("crc x");
  }
  gc::Table table(header);
  for (const SizeRatios& s : sizes) {
    std::vector<std::string> row = {std::to_string(s.payload_bytes)};
    for (const Spread& ns : s.sealopen_ns) row.push_back(gc::format_double(ns.median, 0));
    for (std::size_t b = 1; b < s.kernels.size(); ++b) {
      row.push_back(gc::format_double(s.sealopen_ratio(0, b), 1));
      row.push_back(gc::format_double(s.crc_ratio(0, b), 1));
    }
    table.add_row(row);
  }
  std::printf("median seal+open ns per frame, and each hardware backend over portable "
              "(seal+open, crc), fastest samples of %.2f s alternating:\n%s\n",
              arm_seconds, table.render().c_str());
  std::printf("%zu B seal+open, %s over the bitwise oracle: fastest %.0f ns vs %.0f ns = %.1fx\n",
              ReferenceArm::kPayloadBytes, kernel_name(backends.back().kernel()),
              reference.fast_ns.min, reference.reference_ns.min, reference.speedup);
  for (const FusedRatio& f : fused) {
    std::printf("%zu B %s fused seal+open fastest %.0f ns (median %.0f) vs composed pieces "
                "%.0f ns (%.0f) = %.3fx (floor %.2fx)\n",
                f.arm->payload_bytes, kernel_name(f.arm->kernel), f.fused_ns.min,
                f.fused_ns.median, f.composed_ns.min, f.composed_ns.median, f.ratio,
                f.arm->floor);
  }
  std::printf("sharded (8 links, pool run): %.1f MB/s; LPT-modeled:", sharded.pool_MBps);
  for (const auto& [workers, mbps] : sharded.modeled) std::printf(" %dw=%.0f", workers, mbps);
  std::printf(" MB/s\n\n");

  genio::bench::Gate gate({genio::bench::kInvariants});
  gate.check(identity_ok, "every backend byte-identical to reference across corpus");
  if (kSanitized) {
    std::printf("note: ratio floors reported but not enforced — sanitizer instrumentation "
                "distorts relative path costs\n");
  } else {
    gate.check(reference.speedup >= ReferenceArm::kFloor,
               "seal+open >= 9x the bitwise oracle at 1 KB payloads");
    for (const SizeRatios& s : sizes) {
      const std::string at = " at " + std::to_string(s.payload_bytes) + " B";
      for (std::size_t b = 1; b < s.kernels.size(); ++b) {
        const PortableFloor& floor = portable_floor(s.kernels[b], s.payload_bytes);
        const std::string name = kernel_name(s.kernels[b]);
        gate.check(s.sealopen_ratio(0, b) >= floor.sealopen,
                   name + " seal+open >= " + gc::format_double(floor.sealopen, 1) +
                       "x portable" + at);
        gate.check(s.crc_ratio(0, b) >= floor.crc,
                   name + " crc >= " + gc::format_double(floor.crc, 1) + "x portable" + at);
      }
      if (s.payload_bytes == kVaesOverAesBytes && s.kernels.size() == 3) {
        gate.check(s.sealopen_ratio(1, 2) >= kVaesOverAesSealOpenFloor,
                   "vaes_avx512 seal+open >= 1.3x aes_pclmul" + at);
        gate.check(s.crc_ratio(1, 2) >= kVaesOverAesCrcFloor,
                   "vaes_avx512 crc >= 1.5x aes_pclmul" + at);
      }
    }
    for (const FusedRatio& f : fused) {
      gate.check(f.ratio >= f.arm->floor,
                 std::string(kernel_name(f.arm->kernel)) + " fused seal+open >= " +
                     gc::format_double(f.arm->floor, 2) + "x the composed pieces at " +
                     std::to_string(f.arm->payload_bytes) + " B");
    }
  }

  write_json(args, arm_seconds, reference, sizes, fused, sharded, identity_ok, gate.ok());
  return gate.exit_code();
}
