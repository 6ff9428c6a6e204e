#ifndef VDG_SECURITY_TRUST_H_
#define VDG_SECURITY_TRUST_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "security/crypto.h"

namespace vdg {

/// A named principal: a person, group, or service that can sign VDC
/// entries and issue certificates for others.
struct Identity {
  std::string name;        // e.g. "alice@uchicago", "cms-production"
  uint64_t public_key = 0;

  bool operator==(const Identity& other) const {
    return name == other.name && public_key == other.public_key;
  }
};

/// A certificate binds a subject identity to its public key, vouched
/// for by an issuer's signature. Chains of certificates implement the
/// paper's requirement that trust be established without direct
/// relationships among individuals (Section 4.2).
struct Certificate {
  Identity subject;
  std::string issuer;  // issuer identity name
  Signature signature; // issuer's signature over CanonicalText()

  /// The byte string the issuer signs.
  std::string CanonicalText() const;
};

/// Issues a certificate for `subject` signed by `issuer_keys`.
Certificate IssueCertificate(const Identity& subject,
                             std::string issuer_name,
                             const KeyPair& issuer_keys);

/// Holds trusted root authorities and validates certificate chains.
/// A chain [c0, c1, ..., cn] is valid when c0's issuer is a trusted
/// root, each ci is signed by the subject key of c(i-1) (or the root
/// key for c0), and no certificate is revoked.
class TrustStore {
 public:
  /// Registers a trusted root authority (self-certifying).
  void AddRoot(Identity root);

  /// Marks a subject name revoked; chains through it fail.
  void Revoke(std::string_view name);
  bool IsRevoked(std::string_view name) const;

  /// Validates a chain and returns the terminal (leaf) identity.
  Result<Identity> ValidateChain(
      const std::vector<Certificate>& chain) const;

  /// Convenience: validate a chain, then verify `signature` over
  /// `message` with the leaf's key.
  Status VerifySigned(const std::vector<Certificate>& chain,
                      std::string_view message,
                      const Signature& signature) const;

  size_t root_count() const { return roots_.size(); }

 private:
  std::map<std::string, Identity, std::less<>> roots_;
  std::set<std::string, std::less<>> revoked_;
};

}  // namespace vdg

#endif  // VDG_SECURITY_TRUST_H_
