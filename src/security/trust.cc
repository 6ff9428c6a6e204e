#include "security/trust.h"

namespace vdg {

std::string Certificate::CanonicalText() const {
  return "cert:" + subject.name + ":" + PublicKeyToHex(subject.public_key) +
         ":issued-by:" + issuer;
}

Certificate IssueCertificate(const Identity& subject,
                             std::string issuer_name,
                             const KeyPair& issuer_keys) {
  Certificate cert;
  cert.subject = subject;
  cert.issuer = std::move(issuer_name);
  cert.signature = Sign(issuer_keys, cert.CanonicalText());
  return cert;
}

void TrustStore::AddRoot(Identity root) {
  roots_.insert_or_assign(root.name, std::move(root));
}

void TrustStore::Revoke(std::string_view name) {
  revoked_.insert(std::string(name));
}

bool TrustStore::IsRevoked(std::string_view name) const {
  return revoked_.find(name) != revoked_.end();
}

Result<Identity> TrustStore::ValidateChain(
    const std::vector<Certificate>& chain) const {
  if (chain.empty()) {
    return Status::InvalidArgument("empty certificate chain");
  }
  // The first link must be issued by a trusted root.
  auto root = roots_.find(chain.front().issuer);
  if (root == roots_.end()) {
    return Status::PermissionDenied("chain anchor " + chain.front().issuer +
                                    " is not a trusted root");
  }
  if (IsRevoked(root->second.name)) {
    return Status::PermissionDenied("root " + root->second.name +
                                    " is revoked");
  }
  uint64_t issuer_key = root->second.public_key;
  std::string issuer_name = root->second.name;
  for (const Certificate& cert : chain) {
    if (cert.issuer != issuer_name) {
      return Status::PermissionDenied("broken chain: certificate for " +
                                      cert.subject.name + " issued by " +
                                      cert.issuer + ", expected " +
                                      issuer_name);
    }
    if (IsRevoked(cert.subject.name)) {
      return Status::PermissionDenied("identity " + cert.subject.name +
                                      " is revoked");
    }
    if (!Verify(issuer_key, cert.CanonicalText(), cert.signature)) {
      return Status::PermissionDenied("bad signature on certificate for " +
                                      cert.subject.name);
    }
    issuer_key = cert.subject.public_key;
    issuer_name = cert.subject.name;
  }
  return chain.back().subject;
}

Status TrustStore::VerifySigned(const std::vector<Certificate>& chain,
                                std::string_view message,
                                const Signature& signature) const {
  VDG_ASSIGN_OR_RETURN(Identity leaf, ValidateChain(chain));
  if (!Verify(leaf.public_key, message, signature)) {
    return Status::PermissionDenied("signature by " + leaf.name +
                                    " does not verify");
  }
  return Status::OK();
}

}  // namespace vdg
