// CRC-32 (IEEE 802.3 polynomial) — the frame check sequence on simulated
// Ethernet/GEM frames. Detects accidental corruption only; the attack
// scenarios demonstrate that CRC alone does NOT stop deliberate tampering,
// which is exactly why MACsec (M3) is needed.
//
// Four implementations are compiled in:
//   * crc32_update() on kVaesAvx512 — inputs of 256 bytes or more fold their
//                         16-byte-multiple bulk with VPCLMULQDQ (four ZMM
//                         accumulators over 256-byte strides), then finish
//                         as kAesPclmul does; shorter inputs run kAesPclmul;
//   * crc32_update() on kAesPclmul — inputs of 64 bytes or more fold their
//                         16-byte-multiple bulk with PCLMULQDQ (four 128-bit
//                         accumulators over 64-byte strides, then Barrett
//                         reduction); the tail goes through slicing-by-8;
//   * crc32_update() on kPortable — slicing-by-8 over a lazily built 8x256
//                         table, consuming 8 bytes per step;
//   * crc32_reference() — the original single-table byte-at-a-time loop,
//                         kept as the correctness oracle for tests and the
//                         data-plane bench.
// crc32() and the default crc32_update() run on the backend CPUID selects
// (DataplaneKernel in cpu.hpp). The streaming form (crc32_init/update/final)
// lets frame FCS cover header+payload without concatenating them into a
// scratch buffer.
#pragma once

#include <cstdint>

#include "genio/common/bytes.hpp"
#include "genio/crypto/cpu.hpp"

namespace genio::crypto {

/// One-shot CRC-32 on the dispatched backend.
std::uint32_t crc32(common::BytesView data);

/// One-shot CRC-32, original byte-at-a-time implementation (oracle).
std::uint32_t crc32_reference(common::BytesView data);

/// Streaming API: state = crc32_init(); state = crc32_update(state, chunk)
/// per chunk; crc32_final(state) yields the same value as the one-shot
/// calls over the concatenated chunks. `kernel` lets tests run the backends
/// side by side; it throws std::invalid_argument if the CPU lacks it.
constexpr std::uint32_t crc32_init() { return 0xffffffffu; }
std::uint32_t crc32_update(std::uint32_t state, common::BytesView data,
                           DataplaneKernel kernel = dispatched_dataplane_kernel());
constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xffffffffu;
}

}  // namespace genio::crypto
