// Container images and the GENIO public registry. Images carry layered
// filesystems (Crane-style extraction gives the flattened view scanners
// use), a package manifest for SCA, and optional publisher signatures.
#pragma once

#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "genio/common/version.hpp"
#include "genio/crypto/signature.hpp"

namespace genio::appsec {

using common::Bytes;
using common::BytesView;
using common::Version;

struct ImagePackage {
  std::string name;
  Version version;
  std::string ecosystem;  // "debian", "pypi", "maven", "npm"
};

/// One filesystem layer: path -> content.
using ImageLayer = std::map<std::string, Bytes>;

class ContainerImage {
 public:
  ContainerImage(std::string name, std::string tag)
      : name_(std::move(name)), tag_(std::move(tag)) {}
  // Copy/move are explicit because the digest memo's mutex is neither
  // copyable nor movable; the memo itself transfers (same content).
  ContainerImage(const ContainerImage& other);
  ContainerImage(ContainerImage&& other) noexcept;
  ContainerImage& operator=(const ContainerImage& other);
  ContainerImage& operator=(ContainerImage&& other) noexcept;

  const std::string& name() const { return name_; }
  const std::string& tag() const { return tag_; }
  std::string reference() const { return name_ + ":" + tag_; }

  void add_layer(ImageLayer layer) {
    invalidate_digest();
    layers_.push_back(std::move(layer));
  }
  void add_package(ImagePackage package) {
    invalidate_digest();
    manifest_.push_back(std::move(package));
  }
  void set_entrypoint(std::string entrypoint) {
    invalidate_digest();
    entrypoint_ = std::move(entrypoint);
  }
  const std::string& entrypoint() const { return entrypoint_; }

  const std::vector<ImagePackage>& manifest() const { return manifest_; }

  /// Flattened filesystem (later layers shadow earlier ones) — what Crane
  /// extraction produces for the SAST/YARA scanners.
  std::map<std::string, Bytes> flatten() const;

  /// Content-addressed digest over layers + manifest + entrypoint.
  /// Memoized: registry pull, signature verify, and the admission-scan
  /// cache key all hash the same image, so only the first call pays for
  /// the rehash. Safe to call from concurrent scan workers; mutators
  /// (add_layer etc.) invalidate the memo and must not race with readers.
  crypto::Digest digest() const;

 private:
  void invalidate_digest() {
    std::lock_guard<std::mutex> lk(digest_mu_);
    digest_memo_.reset();
  }

  std::string name_;
  std::string tag_;
  std::vector<ImageLayer> layers_;
  std::vector<ImagePackage> manifest_;
  std::string entrypoint_;
  mutable std::mutex digest_mu_;
  mutable std::optional<crypto::Digest> digest_memo_;
};

/// A registry entry: the image plus (optionally) a publisher signature over
/// its digest.
struct RegistryEntry {
  ContainerImage image;
  std::optional<crypto::Signature> signature;
  std::string publisher;  // business-user identity
};

class ImageRegistry {
 public:
  /// Push unsigned (the paper's "reuse of images from external repos").
  void push(ContainerImage image, std::string publisher);
  /// Push with a publisher signature over the image digest.
  common::Status push_signed(ContainerImage image, std::string publisher,
                             crypto::SigningKey& key);

  common::Result<const RegistryEntry*> pull(const std::string& reference) const;
  std::vector<std::string> references() const;

  /// Chaos hook: while unavailable, pulls fail kUnavailable (the registry
  /// endpoint is down; its contents are intact and return on recovery).
  void set_available(bool available) { available_ = available; }
  bool available() const { return available_; }

 private:
  std::map<std::string, RegistryEntry> entries_;
  bool available_ = true;
};

/// Verify a registry entry's signature against a publisher key.
common::Status verify_image(const RegistryEntry& entry, const crypto::PublicKey& key);

}  // namespace genio::appsec
