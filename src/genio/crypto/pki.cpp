#include "genio/crypto/pki.hpp"

#include <algorithm>

namespace genio::crypto {

std::string to_string(KeyUsage usage) {
  switch (usage) {
    case KeyUsage::kNodeAuth: return "node-auth";
    case KeyUsage::kCodeSigning: return "code-signing";
    case KeyUsage::kRepoSigning: return "repo-signing";
    case KeyUsage::kCaSigning: return "ca-signing";
  }
  return "unknown";
}

Bytes Certificate::tbs_bytes() const {
  Bytes out;
  common::put_u64_be(out, serial);
  auto put_string = [&out](const std::string& s) {
    common::put_u32_be(out, static_cast<std::uint32_t>(s.size()));
    out.insert(out.end(), s.begin(), s.end());
  };
  put_string(subject);
  put_string(issuer);
  out.insert(out.end(), subject_key.root.begin(), subject_key.root.end());
  out.push_back(subject_key.height);
  common::put_u64_be(out, static_cast<std::uint64_t>(not_before.nanos()));
  common::put_u64_be(out, static_cast<std::uint64_t>(not_after.nanos()));
  common::put_u32_be(out, static_cast<std::uint32_t>(usages.size()));
  for (const auto usage : usages) {
    out.push_back(static_cast<std::uint8_t>(usage));
  }
  return out;
}

bool Certificate::has_usage(KeyUsage usage) const {
  return std::find(usages.begin(), usages.end(), usage) != usages.end();
}

CertificateAuthority CertificateAuthority::create_root(const std::string& name,
                                                       BytesView seed,
                                                       SimTime not_before,
                                                       SimTime not_after,
                                                       std::uint8_t key_height) {
  CertificateAuthority ca(name, SigningKey::generate(seed, key_height));
  Certificate cert;
  cert.serial = 0;
  cert.subject = name;
  cert.issuer = name;
  cert.subject_key = ca.key_.public_key();
  cert.not_before = not_before;
  cert.not_after = not_after;
  cert.usages = {KeyUsage::kCaSigning};
  cert.signature = ca.key_.sign(cert.tbs_bytes()).value();
  ca.certificate_ = std::move(cert);
  return ca;
}

common::Result<CertificateAuthority> CertificateAuthority::create_intermediate(
    const std::string& name, BytesView seed, CertificateAuthority& parent,
    SimTime not_before, SimTime not_after, std::uint8_t key_height) {
  CertificateAuthority ca(name, SigningKey::generate(seed, key_height));
  auto cert = parent.issue(name, ca.key_.public_key(), not_before, not_after,
                           {KeyUsage::kCaSigning});
  if (!cert) return cert.error();
  ca.certificate_ = std::move(*cert);
  return ca;
}

common::Result<CertificateAuthority::Reservation> CertificateAuthority::reserve() {
  auto leaf = key_.reserve_leaf();
  if (!leaf) return leaf.error();
  return Reservation(next_serial_++, *leaf);
}

common::Result<Certificate> CertificateAuthority::issue(const std::string& subject,
                                                        const PublicKey& key,
                                                        SimTime not_before,
                                                        SimTime not_after,
                                                        std::vector<KeyUsage> usages) {
  auto at = reserve();
  if (!at) return at.error();
  return issue(*at, subject, key, not_before, not_after, std::move(usages));
}

common::Result<Certificate> CertificateAuthority::issue(const Reservation& at,
                                                        const std::string& subject,
                                                        const PublicKey& key,
                                                        SimTime not_before,
                                                        SimTime not_after,
                                                        std::vector<KeyUsage> usages) {
  Certificate cert;
  cert.serial = at.serial_;
  cert.subject = subject;
  cert.issuer = name_;
  cert.subject_key = key;
  cert.not_before = not_before;
  cert.not_after = not_after;
  cert.usages = std::move(usages);
  auto sig = key_.sign_reserved(at.leaf_, cert.tbs_bytes());
  if (!sig) return sig.error();
  cert.signature = std::move(*sig);
  return cert;
}

void TrustStore::add_root(const Certificate& root) { roots_.push_back(root); }

void TrustStore::add_crl(const std::string& issuer,
                         const std::set<std::uint64_t>& serials) {
  crls_.emplace_back(issuer, serials);
}

bool TrustStore::is_revoked(const std::string& issuer, std::uint64_t serial) const {
  for (const auto& [name, serials] : crls_) {
    if (name == issuer && serials.contains(serial)) return true;
  }
  return false;
}

common::Status TrustStore::verify_chain(std::span<const Certificate> chain, SimTime now,
                                        KeyUsage required_usage) const {
  if (chain.empty()) return common::invalid_argument("empty certificate chain");

  // The last certificate must be a pinned root (compare by key + subject).
  const Certificate& top = chain.back();
  const bool pinned = std::any_of(roots_.begin(), roots_.end(), [&](const Certificate& r) {
    return r.subject == top.subject && r.subject_key == top.subject_key;
  });
  if (!pinned) {
    return common::authentication_failed("chain does not terminate at a trusted root: '" +
                                         top.subject + "'");
  }

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Certificate& cert = chain[i];
    if (now < cert.not_before || now > cert.not_after) {
      return common::authentication_failed("certificate '" + cert.subject +
                                           "' outside validity window");
    }
    if (is_revoked(cert.issuer, cert.serial)) {
      return common::authentication_failed("certificate '" + cert.subject + "' is revoked");
    }
    // Leaf must carry the required usage; every issuer must carry CA usage.
    if (i == 0 && !cert.has_usage(required_usage)) {
      return common::permission_denied("certificate '" + cert.subject +
                                       "' lacks usage " + to_string(required_usage));
    }
    const Certificate& issuer = (i + 1 < chain.size()) ? chain[i + 1] : chain[i];
    if (i + 1 < chain.size()) {
      if (!issuer.has_usage(KeyUsage::kCaSigning)) {
        return common::permission_denied("issuer '" + issuer.subject + "' is not a CA");
      }
      if (cert.issuer != issuer.subject) {
        return common::authentication_failed("issuer name mismatch in chain at '" +
                                             cert.subject + "'");
      }
    }
    if (auto st = verify(issuer.subject_key, BytesView(cert.tbs_bytes()), cert.signature);
        !st.ok()) {
      return common::signature_invalid("certificate '" + cert.subject +
                                       "' signature invalid: " + st.error().message());
    }
  }
  return common::Status::success();
}

}  // namespace genio::crypto
