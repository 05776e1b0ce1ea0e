#ifndef TRANSEDGE_CRYPTO_SIGNER_H_
#define TRANSEDGE_CRYPTO_SIGNER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace transedge::crypto {

/// Globally unique node identifier. Clients also receive NodeIds from a
/// disjoint range so they can authenticate requests and responses.
using NodeId = uint32_t;

/// A signature attributable to one node over a byte string.
struct Signature {
  NodeId signer = 0;
  Digest mac;

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.signer, self.mac);
  }

  bool operator==(const Signature& other) const {
    return signer == other.signer && mac == other.mac;
  }
};

/// Signs messages as one particular node.
///
/// Every replica and client holds exactly one Signer for its own id; the
/// byzantine behaviours in tests and fault-injection are built on top of
/// this interface and therefore cannot sign as anybody else. The default
/// implementation is HMAC-based (see ARCHITECTURE.md, "Hashing fast path",
/// for the substitution rationale and the cached per-key HMAC state); a
/// real asymmetric scheme would implement the same interface.
class Signer {
 public:
  virtual ~Signer() = default;

  virtual NodeId id() const = 0;
  virtual Signature Sign(const Bytes& message) const = 0;
};

/// Verifies signatures from any node. Verifiers are handed out freely —
/// holding one does not grant signing capability (enforced by API
/// structure in the HMAC scheme, by mathematics in an asymmetric one).
class Verifier {
 public:
  virtual ~Verifier() = default;

  /// True iff `sig` is a valid signature by `sig.signer` over `message`.
  virtual bool Verify(const Bytes& message, const Signature& sig) const = 0;
};

/// Trusted-setup factory for the HMAC signature scheme: derives per-node
/// signing keys from a master seed and hands out Signers (one id each)
/// and a shared Verifier. The verifier derives every principal's key
/// state once, at construction.
class HmacSignatureScheme {
 public:
  HmacSignatureScheme(uint32_t num_principals, uint64_t master_seed);
  ~HmacSignatureScheme();

  std::unique_ptr<Signer> MakeSigner(NodeId id) const;

  /// Shared verifier; remains valid for the lifetime of the scheme.
  const Verifier& verifier() const { return *verifier_; }

  uint32_t num_principals() const { return num_principals_; }

 private:
  uint32_t num_principals_;
  uint64_t master_seed_;
  std::unique_ptr<Verifier> verifier_;
};

/// A certificate: `quorum` signatures from distinct nodes over the same
/// message. TransEdge attaches f+1-signature certificates to every batch
/// so that a client can trust a single node's response (§4.1).
struct SignatureSet {
  std::vector<Signature> signatures;

  void Add(Signature sig) { signatures.push_back(std::move(sig)); }
  size_t size() const { return signatures.size(); }

  template <class Self, class V>
  static void Fields(Self& self, V& v) {
    v(self.signatures);
  }
  bool operator==(const SignatureSet&) const = default;

  /// OK iff the set holds at least `required` valid signatures over
  /// `message` from distinct signers whose ids satisfy `is_member`.
  Status VerifyQuorum(const Verifier& verifier, const Bytes& message,
                      size_t required,
                      const std::vector<NodeId>& member_ids) const;
};

}  // namespace transedge::crypto

#endif  // TRANSEDGE_CRYPTO_SIGNER_H_
