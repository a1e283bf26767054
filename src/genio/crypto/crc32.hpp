// CRC-32 (IEEE 802.3 polynomial) — the frame check sequence on simulated
// Ethernet/GEM frames. Detects accidental corruption only; the attack
// scenarios demonstrate that CRC alone does NOT stop deliberate tampering,
// which is exactly why MACsec (M3) is needed.
//
// Two implementations are compiled in:
//   * crc32()           — slicing-by-8 over a lazily built 8x256 table,
//                         consuming 8 bytes per step (the data-plane path);
//   * crc32_reference() — the original single-table byte-at-a-time loop,
//                         kept as the correctness oracle for tests and the
//                         data-plane bench.
// The streaming form (crc32_init/update/final) lets frame FCS cover
// header+payload without concatenating them into a scratch buffer.
#pragma once

#include <cstdint>

#include "genio/common/bytes.hpp"

namespace genio::crypto {

/// One-shot CRC-32 (slicing-by-8 fast path).
std::uint32_t crc32(common::BytesView data);

/// One-shot CRC-32, original byte-at-a-time implementation (oracle).
std::uint32_t crc32_reference(common::BytesView data);

/// Streaming API: state = crc32_init(); state = crc32_update(state, chunk)
/// per chunk; crc32_final(state) yields the same value as the one-shot
/// calls over the concatenated chunks.
constexpr std::uint32_t crc32_init() { return 0xffffffffu; }
std::uint32_t crc32_update(std::uint32_t state, common::BytesView data);
constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xffffffffu;
}

}  // namespace genio::crypto
