// Certificates and PKI (M4 "Authentication of Nodes", M9 "Signed Updates").
// Mirrors the X.509 trust model the paper relies on — subjects, issuers,
// validity windows, key usages, chains to a trusted root, and revocation —
// on top of the hash-based signature scheme.
#pragma once

#include <cstdint>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "genio/common/sim_clock.hpp"
#include "genio/crypto/signature.hpp"

namespace genio::crypto {

using common::SimTime;

/// Key usages appearing on GENIO certificates.
enum class KeyUsage {
  kNodeAuth,     // ONU/OLT mutual authentication (M4)
  kCodeSigning,  // update images, custom binaries (M9)
  kRepoSigning,  // APT-like repository metadata (M9)
  kCaSigning,    // may issue further certificates
};

std::string to_string(KeyUsage usage);

struct Certificate {
  std::uint64_t serial = 0;
  std::string subject;  // "onu-0042", "genio-release-key"
  std::string issuer;   // subject of the issuing CA
  PublicKey subject_key;
  SimTime not_before;
  SimTime not_after;
  std::vector<KeyUsage> usages;
  Signature signature;  // by the issuer over tbs_bytes()

  /// Deterministic serialization of everything except the signature.
  Bytes tbs_bytes() const;

  bool has_usage(KeyUsage usage) const;
};

/// A certificate authority: wraps a signing key and issues certificates.
/// The CA's own certificate is self-signed for roots, or issued by a parent
/// CA for intermediates.
class CertificateAuthority {
 public:
  /// Create a root CA (self-signed certificate with kCaSigning).
  static CertificateAuthority create_root(const std::string& name, BytesView seed,
                                          SimTime not_before, SimTime not_after,
                                          std::uint8_t key_height = 8);

  /// Create an intermediate CA whose certificate is issued by `parent`.
  static common::Result<CertificateAuthority> create_intermediate(
      const std::string& name, BytesView seed, CertificateAuthority& parent,
      SimTime not_before, SimTime not_after, std::uint8_t key_height = 8);

  const Certificate& certificate() const { return certificate_; }
  const std::string& name() const { return name_; }

  /// A serial and a key leaf that reserve() set aside for one certificate.
  class Reservation {
   public:
    std::uint64_t serial() const { return serial_; }

   private:
    friend class CertificateAuthority;
    Reservation(std::uint64_t serial, std::uint32_t leaf) : serial_(serial), leaf_(leaf) {}
    std::uint64_t serial_;
    std::uint32_t leaf_;
  };

  /// Take the serial and key leaf the next issue() would take, for a
  /// certificate issued later at the reservation. Certificates issued in
  /// between keep the serials and leaves they would have had.
  common::Result<Reservation> reserve();

  /// Issue an end-entity certificate at the next serial and leaf.
  common::Result<Certificate> issue(const std::string& subject, const PublicKey& key,
                                    SimTime not_before, SimTime not_after,
                                    std::vector<KeyUsage> usages);
  /// Issue at a reservation. Each reservation issues once; a second
  /// attempt fails with kInvalidArgument.
  common::Result<Certificate> issue(const Reservation& at, const std::string& subject,
                                    const PublicKey& key, SimTime not_before,
                                    SimTime not_after, std::vector<KeyUsage> usages);

  /// Revoke a previously issued certificate by serial.
  void revoke(std::uint64_t serial) { revoked_.insert(serial); }
  bool is_revoked(std::uint64_t serial) const { return revoked_.contains(serial); }
  const std::set<std::uint64_t>& crl() const { return revoked_; }

  /// Signatures the CA key can still produce (hash-based keys are finite);
  /// a reservation counts as produced.
  std::uint32_t signatures_remaining() const { return key_.signatures_remaining(); }

 private:
  CertificateAuthority(std::string name, SigningKey key)
      : name_(std::move(name)), key_(std::move(key)) {}

  std::string name_;
  SigningKey key_;
  Certificate certificate_;
  std::set<std::uint64_t> revoked_;
  std::uint64_t next_serial_ = 1;
};

/// Verifies chains against pinned roots and registered CRLs.
class TrustStore {
 public:
  void add_root(const Certificate& root);
  /// Register a CA's revocation list (issuer name -> revoked serials).
  void add_crl(const std::string& issuer, const std::set<std::uint64_t>& serials);

  /// Verify `chain` (leaf first, root last): each certificate is signed by
  /// the next, validity covers `now`, nothing is revoked, intermediates
  /// carry kCaSigning, the leaf carries `required_usage`, and the final
  /// certificate is a pinned root.
  common::Status verify_chain(std::span<const Certificate> chain, SimTime now,
                              KeyUsage required_usage) const;

 private:
  std::vector<Certificate> roots_;
  std::vector<std::pair<std::string, std::set<std::uint64_t>>> crls_;

  bool is_revoked(const std::string& issuer, std::uint64_t serial) const;
};

}  // namespace genio::crypto
