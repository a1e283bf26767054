// Runtime CPU feature detection for the crypto kernels. A fast kernel is
// compiled with a GCC target attribute (no global -march), and the portable
// kernel stays the fallback and the test oracle. Selection is by CPUID
// only: there is no build option, config field or environment knob.
#pragma once

#if defined(__x86_64__)
#include <cpuid.h>
#endif

namespace genio::crypto::cpu {

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

}  // namespace genio::crypto::cpu
