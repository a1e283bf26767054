#include "genio/crypto/signature.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>

#include "genio/crypto/hmac.hpp"

namespace genio::crypto {

namespace {

constexpr int kWinternitz = 16;   // w
constexpr int kLen1 = 64;         // 256 bits / 4 bits-per-digit
constexpr int kLen2 = 3;          // checksum digits: max 64*15=960 < 16^3
constexpr int kLen = kLen1 + kLen2;
constexpr std::uint8_t kMaxHeight = 20;

void store_u32_be(std::uint8_t* out, std::uint32_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 24);
  out[1] = static_cast<std::uint8_t>(v >> 16);
  out[2] = static_cast<std::uint8_t>(v >> 8);
  out[3] = static_cast<std::uint8_t>(v);
}

// Map a message digest to 67 base-16 digits (64 message + 3 checksum).
std::array<int, kLen> message_digits(BytesView message) {
  const Digest digest = Sha256::hash(message);
  std::array<int, kLen> digits{};
  for (int i = 0; i < 32; ++i) {
    digits[static_cast<std::size_t>(2 * i)] = digest[static_cast<std::size_t>(i)] >> 4;
    digits[static_cast<std::size_t>(2 * i + 1)] = digest[static_cast<std::size_t>(i)] & 0x0f;
  }
  int checksum = 0;
  for (int i = 0; i < kLen1; ++i) checksum += (kWinternitz - 1) - digits[static_cast<std::size_t>(i)];
  for (int i = 0; i < kLen2; ++i) {
    digits[static_cast<std::size_t>(kLen1 + i)] = (checksum >> (4 * (kLen2 - 1 - i))) & 0x0f;
  }
  return digits;
}

// Compress the 67 chain-top values into the WOTS public key hash (a leaf).
Digest compress_pk(const std::array<Digest, kLen>& tops) {
  Sha256 h;
  for (const auto& t : tops) h.update(BytesView(t.data(), t.size()));
  return h.finish();
}

Digest hash_pair(const Digest& left, const Digest& right) {
  Sha256 h;
  h.update(BytesView(left.data(), left.size()));
  h.update(BytesView(right.data(), right.size()));
  return h.finish();
}

using Lanes = Sha256Lanes;

constexpr std::uint32_t kPad = 0x80000000;  // the 0x80 byte that opens the padding

void broadcast(Lanes::State& state, const Sha256::Midstate& words) {
  for (std::size_t i = 0; i < words.size(); ++i) state[i].fill(words[i]);
}

// Lays `state` into rows first_row .. first_row+7 of `block`.
void put_state(Lanes::Block& block, std::size_t first_row, const Lanes::State& state) {
  std::copy(state.begin(), state.end(), block.begin() + static_cast<std::ptrdiff_t>(first_row));
}

Digest lane_digest(const Lanes::State& state, std::size_t lane) {
  Digest d;
  for (std::size_t i = 0; i < 8; ++i) store_u32_be(d.data() + 4 * i, state[i][lane]);
  return d;
}

void load_lane(Lanes::State& state, std::size_t lane, const Digest& d) {
  for (std::size_t i = 0; i < 8; ++i) {
    state[i][lane] = common::get_u32_be(BytesView(d.data(), d.size()), 4 * i);
  }
}

// The two hashes of a WOTS+ chain, as the lane-sliced blocks they compress
// (bit lengths count the pad block an HMAC midstate absorbed):
//   seed  HMAC(key seed, leaf || chain), the chain's secret start value:
//         [leaf, chain, pad, 0..., 576] from the ipad midstate, then
//         [inner, pad, 0..., 768] from the opad midstate;
//   step  H(value || chain || step), domain-separated by position:
//         [value, chain, step, pad, 0..., 320] from the IV, each step's
//         state the next step's message words.
// Callers set the per-lane rows: seed_block[0..1] and step_block[8..9].
struct ChainBlocks {
  const Sha256::Midstate iv = Sha256().midstate();
  alignas(64) Lanes::Block seed_block{};
  alignas(64) Lanes::Block outer_block{};
  alignas(64) Lanes::Block step_block{};

  ChainBlocks() {
    seed_block[2].fill(kPad);
    seed_block[15].fill((64 + 8) * 8);
    outer_block[8].fill(kPad);
    outer_block[15].fill((64 + 32) * 8);
    step_block[10].fill(kPad);
    step_block[15].fill(40 * 8);
  }

  void seed(const HmacSha256& prf, const Lanes& lanes, Lanes::State& value) {
    broadcast(value, prf.inner_midstate());
    lanes.compress(value, seed_block);
    put_state(outer_block, 0, value);
    broadcast(value, prf.outer_midstate());
    lanes.compress(value, outer_block);
  }

  void step(const Lanes& lanes, Lanes::State& value) {
    put_state(step_block, 0, value);
    broadcast(value, iv);
    lanes.compress(value, step_block);
  }
};

// The WOTS+ leaves (compress_pk of the 67 chain tops) of leaves base ..
// base+15, one leaf per lane: each chain c runs in lockstep across the
// lanes, seed then 15 steps, and compress_pk takes the tops two per
// block, [top 2k, top 2k+1], and last [top 66, pad, 0..., 17152].
std::array<Digest, Lanes::kLanes> wots_leaf_batch(const HmacSha256& prf, const Lanes& lanes,
                                                  std::uint32_t base) {
  static_assert(kLen % 2 == 1, "the last chain top shares its block with the padding");
  ChainBlocks chain;
  alignas(64) Lanes::Block pk_block{};
  alignas(64) Lanes::State value{};
  alignas(64) Lanes::State pk{};
  for (std::uint32_t lane = 0; lane < Lanes::kLanes; ++lane) chain.seed_block[0][lane] = base + lane;
  broadcast(pk, chain.iv);

  for (int c = 0; c < kLen; ++c) {
    chain.seed_block[1].fill(static_cast<std::uint32_t>(c));
    chain.step_block[8].fill(static_cast<std::uint32_t>(c));
    chain.seed(prf, lanes, value);
    for (int step = 0; step < kWinternitz - 1; ++step) {
      chain.step_block[9].fill(static_cast<std::uint32_t>(step));
      chain.step(lanes, value);
    }
    put_state(pk_block, 8 * static_cast<std::size_t>(c % 2), value);
    if (c % 2 == 1) lanes.compress(pk, pk_block);
  }
  pk_block[8].fill(kPad);
  for (std::size_t row = 9; row < 15; ++row) pk_block[row].fill(0);
  pk_block[15].fill(kLen * 32 * 8);
  lanes.compress(pk, pk_block);

  std::array<Digest, Lanes::kLanes> leaves;
  for (std::size_t lane = 0; lane < Lanes::kLanes; ++lane) leaves[lane] = lane_digest(pk, lane);
  return leaves;
}

// The 67 chains of one leaf on the lanes: chain c takes steps[c] steps,
// numbered from[c] onward, from the start value `start(blocks, chains,
// value)` puts in each lane, and its value after the last step is tops[c].
// Chains run 16 at a time, longest first, so the lanes of a batch finish
// close together and the short last batch (67 = 4 * 16 + 3) holds the
// shortest chains; its spare lanes repeat its last chain and are never
// stored.
template <typename Start>
std::array<Digest, kLen> run_chains(const Lanes& lanes, const std::array<int, kLen>& from,
                                    const std::array<int, kLen>& steps, Start&& start) {
  std::array<std::uint32_t, kLen> order;
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) { return steps[a] > steps[b]; });

  ChainBlocks blocks;
  alignas(64) Lanes::State value{};
  std::array<Digest, kLen> tops;
  for (std::size_t first = 0; first < kLen; first += Lanes::kLanes) {
    const std::size_t count = std::min<std::size_t>(Lanes::kLanes, kLen - first);
    std::array<std::uint32_t, Lanes::kLanes> chains;
    for (std::size_t lane = 0; lane < Lanes::kLanes; ++lane) {
      chains[lane] = order[first + std::min(lane, count - 1)];
    }
    blocks.step_block[8] = chains;
    start(blocks, chains, value);
    for (int j = 0;; ++j) {
      for (std::size_t lane = 0; lane < count; ++lane) {
        if (steps[chains[lane]] == j) tops[chains[lane]] = lane_digest(value, lane);
      }
      if (j == steps[chains[0]]) break;
      for (std::size_t lane = 0; lane < Lanes::kLanes; ++lane) {
        blocks.step_block[9][lane] = static_cast<std::uint32_t>(from[chains[lane]] + j);
      }
      blocks.step(lanes, value);
    }
  }
  return tops;
}

}  // namespace

Bytes Signature::serialize() const {
  Bytes out;
  common::put_u32_be(out, leaf_index);
  common::put_u32_be(out, static_cast<std::uint32_t>(wots_chains.size()));
  common::put_u32_be(out, static_cast<std::uint32_t>(auth_path.size()));
  for (const auto& d : wots_chains) out.insert(out.end(), d.begin(), d.end());
  for (const auto& d : auth_path) out.insert(out.end(), d.begin(), d.end());
  return out;
}

Result<Signature> Signature::deserialize(BytesView data) {
  if (data.size() < 12) return common::parse_error("signature too short");
  Signature sig;
  sig.leaf_index = common::get_u32_be(data, 0);
  const std::uint32_t n_chains = common::get_u32_be(data, 4);
  const std::uint32_t n_path = common::get_u32_be(data, 8);
  if (n_chains != kLen || n_path > kMaxHeight) {
    return common::parse_error("signature has invalid structure");
  }
  const std::size_t expect = 12 + 32ull * (n_chains + n_path);
  if (data.size() != expect) return common::parse_error("signature length mismatch");
  std::size_t offset = 12;
  auto read_digest = [&] {
    Digest d;
    std::memcpy(d.data(), data.data() + offset, 32);
    offset += 32;
    return d;
  };
  sig.wots_chains.reserve(n_chains);
  for (std::uint32_t i = 0; i < n_chains; ++i) sig.wots_chains.push_back(read_digest());
  sig.auth_path.reserve(n_path);
  for (std::uint32_t i = 0; i < n_path; ++i) sig.auth_path.push_back(read_digest());
  return sig;
}

std::string PublicKey::fingerprint() const {
  Bytes data(root.begin(), root.end());
  data.push_back(height);
  return digest_hex(Sha256::hash(data)).substr(0, 16);
}

SigningKey SigningKey::generate(BytesView seed, std::uint8_t height,
                                Sha256Lanes::Kernel kernel) {
  if (height < 1 || height > kMaxHeight) {
    throw std::invalid_argument("SigningKey height must be in [1, 20]");
  }
  SigningKey key;
  key.seed_.assign(seed.begin(), seed.end());
  key.height_ = height;
  key.kernel_ = kernel;

  const HmacSha256 prf(key.seed_);
  const Lanes lanes(kernel);
  const std::uint32_t n_leaves = 1u << height;
  std::vector<Digest> leaves;
  leaves.reserve(n_leaves);
  // Below height 4 the spare lanes compute leaf indices past 2^height,
  // whose results are dropped.
  for (std::uint32_t base = 0; base < n_leaves; base += Lanes::kLanes) {
    const auto batch = wots_leaf_batch(prf, lanes, base);
    const std::size_t count = std::min<std::size_t>(Lanes::kLanes, n_leaves - base);
    leaves.insert(leaves.end(), batch.begin(),
                  batch.begin() + static_cast<std::ptrdiff_t>(count));
  }

  key.tree_.push_back(std::move(leaves));
  while (key.tree_.back().size() > 1) {
    const auto& below = key.tree_.back();
    std::vector<Digest> level;
    level.reserve(below.size() / 2);
    for (std::size_t i = 0; i < below.size(); i += 2) {
      level.push_back(hash_pair(below[i], below[i + 1]));
    }
    key.tree_.push_back(std::move(level));
  }
  key.public_key_.root = key.tree_.back()[0];
  key.public_key_.height = height;
  return key;
}

std::uint32_t SigningKey::signatures_remaining() const {
  return (1u << height_) - next_leaf_;
}

Result<Signature> SigningKey::sign(BytesView message) {
  if (signatures_remaining() == 0) {
    return common::resource_exhausted("one-time signature leaves exhausted");
  }
  return sign_at(next_leaf_++, message);
}

Result<std::uint32_t> SigningKey::reserve_leaf() {
  if (signatures_remaining() == 0) {
    return common::resource_exhausted("one-time signature leaves exhausted");
  }
  reserved_.push_back(next_leaf_);
  return next_leaf_++;
}

Result<Signature> SigningKey::sign_reserved(std::uint32_t leaf, BytesView message) {
  const auto it = std::find(reserved_.begin(), reserved_.end(), leaf);
  if (it == reserved_.end()) {
    return common::invalid_argument("leaf " + std::to_string(leaf) + " is not reserved");
  }
  reserved_.erase(it);
  return sign_at(leaf, message);
}

Signature SigningKey::sign_at(std::uint32_t leaf, BytesView message) const {
  const HmacSha256 prf(seed_);
  const Lanes lanes(kernel_);
  const auto tops = run_chains(lanes, {}, message_digits(message),
                               [&](ChainBlocks& blocks, const auto& chains, Lanes::State& value) {
                                 blocks.seed_block[0].fill(leaf);
                                 blocks.seed_block[1] = chains;
                                 blocks.seed(prf, lanes, value);
                               });
  Signature sig;
  sig.leaf_index = leaf;
  sig.wots_chains.assign(tops.begin(), tops.end());

  std::uint32_t index = leaf;
  for (std::uint8_t level = 0; level < height_; ++level) {
    const std::uint32_t sibling = index ^ 1u;
    sig.auth_path.push_back(tree_[level][sibling]);
    index >>= 1;
  }
  return sig;
}

Result<Signature> SigningKey::sign(std::string_view message) {
  return sign(BytesView(reinterpret_cast<const std::uint8_t*>(message.data()),
                        message.size()));
}

Status verify(const PublicKey& public_key, BytesView message, const Signature& signature,
              Sha256Lanes::Kernel kernel) {
  if (signature.wots_chains.size() != kLen) {
    return common::signature_invalid("wrong WOTS chain count");
  }
  if (public_key.height > kMaxHeight) {
    return common::signature_invalid("key height above the maximum");
  }
  if (signature.auth_path.size() != public_key.height) {
    return common::signature_invalid("auth path length does not match key height");
  }
  if (signature.leaf_index >= (1u << public_key.height)) {
    return common::signature_invalid("leaf index out of range");
  }

  const auto digits = message_digits(message);
  std::array<int, kLen> remaining;
  for (std::size_t c = 0; c < kLen; ++c) remaining[c] = (kWinternitz - 1) - digits[c];
  const auto tops = run_chains(Lanes(kernel), digits, remaining,
                               [&](ChainBlocks&, const auto& chains, Lanes::State& value) {
                                 for (std::size_t lane = 0; lane < Lanes::kLanes; ++lane) {
                                   load_lane(value, lane, signature.wots_chains[chains[lane]]);
                                 }
                               });
  Digest node = compress_pk(tops);

  std::uint32_t index = signature.leaf_index;
  for (std::uint8_t level = 0; level < public_key.height; ++level) {
    const Digest& sibling = signature.auth_path[level];
    node = (index & 1u) ? hash_pair(sibling, node) : hash_pair(node, sibling);
    index >>= 1;
  }

  if (!common::constant_time_equal(BytesView(node.data(), node.size()),
                                   BytesView(public_key.root.data(), public_key.root.size()))) {
    return common::signature_invalid("Merkle root mismatch");
  }
  return Status::success();
}

Status verify(const PublicKey& public_key, std::string_view message,
              const Signature& signature) {
  return verify(public_key,
                BytesView(reinterpret_cast<const std::uint8_t*>(message.data()),
                          message.size()),
                signature);
}

}  // namespace genio::crypto
