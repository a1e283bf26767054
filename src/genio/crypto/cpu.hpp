// Runtime CPU feature detection for the crypto kernels. A fast kernel is
// compiled with a GCC target attribute (no global -march), and the portable
// kernel stays the fallback and the test oracle. Selection is by CPUID
// only: there is no build option, config field or environment knob.
#pragma once

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace genio::crypto::cpu {

/// AES-NI (CPUID leaf 1 ECX bit 25) and PCLMULQDQ (bit 1), plus the SSSE3
/// (bit 9) shuffle and the SSE4.1 (bit 19) inserts and extracts the AES-CTR,
/// GHASH and CRC-32 kernels also use. All are XMM instructions, whose state
/// every x86-64 OS saves, so no XCR0 check is needed.
inline bool has_aes_pclmul() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kNeeded = (1u << 25) | (1u << 1) | (1u << 9) | (1u << 19);
  return (ecx & kNeeded) == kNeeded;
#else
  return false;
#endif
}

/// SHA extensions (CPUID leaf 7 EBX bit 29) plus the SSSE3 and SSE4.1
/// shuffles and blends the SHA-NI SHA-256 kernel also uses.
inline bool has_sha_ni() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool ssse3 = (ecx & (1u << 9)) != 0;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sha && ssse3 && sse41;
#else
  return false;
#endif
}

/// AVX-512F (CPUID leaf 7 EBX bit 16), usable only if the OS saves the
/// state: OSXSAVE (leaf 1 ECX bit 27) and XCR0 bits 1, 2 (SSE, AVX) and
/// 5, 6, 7 (opmask, ZMM0-15 upper halves, ZMM16-31). This is the check
/// `__builtin_cpu_supports("avx512f")` makes.
inline bool has_avx512f() {
#if defined(__x86_64__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  if ((ecx & (1u << 27)) == 0) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  __asm__("xgetbv" : "=a"(xcr0_lo), "=d"(xcr0_hi) : "c"(0));
  constexpr unsigned kZmmState = (1u << 1) | (1u << 2) | (1u << 5) | (1u << 6) | (1u << 7);
  if ((xcr0_lo & kZmmState) != kZmmState) return false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  return (ebx & (1u << 16)) != 0;
#else
  return false;
#endif
}

/// VAES (CPUID leaf 7 ECX bit 9) and VPCLMULQDQ (ECX bit 10) on ZMM
/// registers, with AVX-512F (EBX bit 16) and the AVX-512BW (EBX bit 30)
/// byte shuffles and masked byte loads and stores. Needs the XCR0 state
/// has_avx512f checks and everything has_aes_pclmul checks, since the
/// kernels finish on the XMM code.
inline bool has_vaes_avx512() {
#if defined(__x86_64__)
  if (!has_aes_pclmul() || !has_avx512f()) return false;
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) return false;
  constexpr unsigned kEbx = (1u << 16) | (1u << 30);
  constexpr unsigned kEcx = (1u << 9) | (1u << 10);
  return (ebx & kEbx) == kEbx && (ecx & kEcx) == kEcx;
#else
  return false;
#endif
}

}  // namespace genio::crypto::cpu

namespace genio::crypto {

/// Backends of the data-plane kernels: AES-CTR (Aes128::ctr_xor_wide),
/// GHASH (GcmContext) and CRC-32 (crc32_update). Every backend yields the
/// same bytes. kPortable (T-table AES, Shoup-table GHASH, slicing-by-8
/// CRC) runs anywhere and is the oracle; kAesPclmul runs on AES-NI and
/// PCLMULQDQ; kVaesAvx512 runs AES-CTR and GHASH sixteen blocks per pass
/// in ZMM registers on VAES and VPCLMULQDQ, tails included, and folds the
/// CRC 256 bytes per pass, leaving shorter inputs and the fold's last steps
/// to kAesPclmul's code. Each backend needs everything the ones before it
/// need.
enum class DataplaneKernel { kPortable, kAesPclmul, kVaesAvx512 };

/// The last backend CPUID reports. Resolved on first call and shared by
/// all three kernels.
inline DataplaneKernel dispatched_dataplane_kernel() {
  static const DataplaneKernel kernel = cpu::has_vaes_avx512() ? DataplaneKernel::kVaesAvx512
                                        : cpu::has_aes_pclmul() ? DataplaneKernel::kAesPclmul
                                                                : DataplaneKernel::kPortable;
  return kernel;
}

/// Whether `kernel` can run on this CPU: it is at or below the dispatched
/// backend (kPortable always can).
inline bool supports_dataplane_kernel(DataplaneKernel kernel) {
  return kernel <= dispatched_dataplane_kernel();
}

}  // namespace genio::crypto
