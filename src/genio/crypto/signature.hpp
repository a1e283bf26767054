// Hash-based digital signatures: WOTS+ one-time signatures combined into a
// Merkle tree (an XMSS-style scheme, simplified). This is the repo's
// substitute for X.509/RSA/GPG signing in the paper (M4, M5, M9): the
// issuance / verification / chain-of-trust semantics are identical, only
// the underlying algorithm differs, and it is implementable from scratch
// with nothing but SHA-256.
//
// Parameters: n = 32 bytes (SHA-256), Winternitz w = 16, so a message
// digest is signed as 64 base-16 digits plus a 3-digit checksum (67 chain
// values). A key pair of height h can sign 2^h messages; signing is
// stateful (leaf index advances).
#pragma once

#include <cstdint>
#include <vector>

#include "genio/common/result.hpp"
#include "genio/crypto/sha256.hpp"

namespace genio::crypto {

using common::Result;
using common::Status;

/// A signature: leaf index, the WOTS+ chain values, and the Merkle
/// authentication path from that leaf to the root.
struct Signature {
  std::uint32_t leaf_index = 0;
  std::vector<Digest> wots_chains;  // 67 values
  std::vector<Digest> auth_path;    // `height` values

  /// Serialized wire form (for embedding in update images / certificates).
  Bytes serialize() const;
  static Result<Signature> deserialize(BytesView data);
};

/// Public key = Merkle root (32 bytes) + tree height.
struct PublicKey {
  Digest root{};
  std::uint8_t height = 0;

  std::string fingerprint() const;  // hex of SHA-256(root || height)
  bool operator==(const PublicKey& other) const {
    return root == other.root && height == other.height;
  }
};

/// Stateful signing key. Generated deterministically from a 32-byte seed.
class SigningKey {
 public:
  /// `height` in [1, 20]; the key can produce 2^height signatures.
  /// `kernel` lets tests build a key on each SHA-256 lane backend; the
  /// key's sign() runs on the same one.
  static SigningKey generate(BytesView seed, std::uint8_t height,
                             Sha256Lanes::Kernel kernel = Sha256Lanes::dispatched_kernel());

  const PublicKey& public_key() const { return public_key_; }

  /// Sign a message; consumes the next leaf. Fails with kResourceExhausted
  /// once all 2^height one-time keys are used.
  Result<Signature> sign(BytesView message);
  Result<Signature> sign(std::string_view message);

  /// Take the next leaf now for one later sign_reserved(). It counts as
  /// used from here on, so no other signature can take it. Fails with
  /// kResourceExhausted as sign() does.
  Result<std::uint32_t> reserve_leaf();
  /// Sign at a leaf reserve_leaf() returned. A reserved leaf signs once;
  /// any other leaf, a used one included, fails with kInvalidArgument.
  Result<Signature> sign_reserved(std::uint32_t leaf, BytesView message);

  /// Both count a reserved leaf as used.
  std::uint32_t signatures_remaining() const;
  std::uint32_t signatures_used() const { return next_leaf_; }

 private:
  SigningKey() = default;
  Signature sign_at(std::uint32_t leaf, BytesView message) const;

  Bytes seed_;
  std::uint8_t height_ = 0;
  std::uint32_t next_leaf_ = 0;
  std::vector<std::uint32_t> reserved_;  // reserved and not yet signed with
  Sha256Lanes::Kernel kernel_ = Sha256Lanes::Kernel::kScalar;
  PublicKey public_key_;
  std::vector<std::vector<Digest>> tree_;  // tree_[level][i]; level 0 = leaves
};

/// Verify `signature` over `message` against `public_key`. `kernel` lets
/// tests verify on each SHA-256 lane backend.
Status verify(const PublicKey& public_key, BytesView message, const Signature& signature,
              Sha256Lanes::Kernel kernel = Sha256Lanes::dispatched_kernel());
Status verify(const PublicKey& public_key, std::string_view message,
              const Signature& signature);

}  // namespace genio::crypto
