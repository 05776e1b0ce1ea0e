#include "wire/message.h"

#include <cassert>

namespace transedge::wire {

Status VerifyReads(const std::vector<AuthenticatedRead>& reads,
                   const crypto::Digest& root,
                   const std::vector<crypto::Digest>* key_digests) {
  assert(key_digests == nullptr || key_digests->size() == reads.size());
  std::vector<merkle::MerkleTree::Claim> claims;
  claims.reserve(reads.size());
  for (size_t i = 0; i < reads.size(); ++i) {
    const AuthenticatedRead& read = reads[i];
    claims.push_back({&read.proof, &read.key,
                      read.found ? &read.value : nullptr, read.version,
                      key_digests ? &(*key_digests)[i] : nullptr});
  }
  return merkle::MerkleTree::VerifyProofs(claims, root);
}

const std::shared_ptr<const WatchDeltaBody>& WatchDeltaBody::Empty() {
  static const std::shared_ptr<const WatchDeltaBody> empty =
      std::make_shared<const WatchDeltaBody>();
  return empty;
}

const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kClientRead:
      return "ClientRead";
    case MessageType::kClientReadReply:
      return "ClientReadReply";
    case MessageType::kCommitRequest:
      return "CommitRequest";
    case MessageType::kCommitReply:
      return "CommitReply";
    case MessageType::kRoRequest:
      return "RoRequest";
    case MessageType::kRoReply:
      return "RoReply";
    case MessageType::kRoBatchRequest:
      return "RoBatchRequest";
    case MessageType::kPrePrepare:
      return "PrePrepare";
    case MessageType::kPrepare:
      return "Prepare";
    case MessageType::kCommit:
      return "Commit";
    case MessageType::kLinearPropose:
      return "LinearPropose";
    case MessageType::kLinearVote:
      return "LinearVote";
    case MessageType::kLinearQc:
      return "LinearQc";
    case MessageType::kLinearViewChange:
      return "LinearViewChange";
    case MessageType::kLinearNewView:
      return "LinearNewView";
    case MessageType::kLinearCatchUp:
      return "LinearCatchUp";
    case MessageType::kCoordPrepare:
      return "CoordPrepare";
    case MessageType::kPrepared:
      return "Prepared";
    case MessageType::kCommitRecord:
      return "CommitRecord";
    case MessageType::kAugustusRoRequest:
      return "AugustusRoRequest";
    case MessageType::kAugustusVoteRequest:
      return "AugustusVoteRequest";
    case MessageType::kAugustusVoteReply:
      return "AugustusVoteReply";
    case MessageType::kAugustusRoReply:
      return "AugustusRoReply";
    case MessageType::kAugustusRelease:
      return "AugustusRelease";
    case MessageType::kWatchSubscribe:
      return "WatchSubscribe";
    case MessageType::kWatchDelta:
      return "WatchDelta";
    case MessageType::kWatchUnsubscribe:
      return "WatchUnsubscribe";
    case MessageType::kWatchResubscribe:
      return "WatchResubscribeRequired";
  }
  return "Unknown";
}

}  // namespace transedge::wire
