#include "wire/serialize.h"

#include <memory>
#include <type_traits>

#include "common/codec.h"

namespace transedge::wire {

namespace {

template <class... M>
struct TypeList {
  template <class F>
  static void ForEach(F&& f) {
    (f(std::type_identity<M>{}), ...);
  }
};

/// Every message that crosses the wire: EncodeMessage and DecodeMessage
/// both dispatch over this one list.
using WireMessages =
    TypeList<ClientReadRequest, ClientReadReply, CommitRequest, CommitReply,
             RoRequest, RoReply, RoBatchRequest, PrePrepareMsg, PrepareMsg,
             CommitMsg, LinearProposeMsg, LinearVoteMsg, LinearQcMsg,
             LinearViewChangeMsg, LinearNewViewMsg, LinearCatchUpMsg,
             CoordPrepareMsg, PreparedMsg, CommitRecordMsg,
             AugustusRoRequest, AugustusVoteRequest, AugustusVoteReply,
             AugustusRoReply, AugustusRelease, WatchSubscribeRequest,
             WatchDeltaMsg, WatchUnsubscribe, WatchResubscribeRequired>;

}  // namespace

Bytes EncodeMessage(const sim::Message& msg) {
  Encoder enc;
  enc.PutU32(msg.type());
  WireMessages::ForEach([&](auto tag) {
    using M = typename decltype(tag)::type;
    if (msg.type() == static_cast<uint32_t>(M::kMessageType)) {
      Encode(static_cast<const M&>(msg), &enc);
    }
  });
  return enc.Take();
}

Result<sim::MessagePtr> DecodeMessage(const Bytes& buffer) {
  Decoder dec(buffer);
  TE_ASSIGN_OR_RETURN(uint32_t raw_type, dec.GetU32());
  Result<sim::MessagePtr> decoded = Status::Corruption(
      "unknown message type " + std::to_string(raw_type));
  WireMessages::ForEach([&](auto tag) {
    using M = typename decltype(tag)::type;
    if (raw_type != static_cast<uint32_t>(M::kMessageType)) return;
    Result<M> msg = Decode<M>(&dec);
    if (!msg.ok()) {
      decoded = msg.status();
    } else if (!dec.exhausted()) {
      decoded = Status::Corruption("trailing bytes after message body");
    } else {
      decoded = sim::MessagePtr(std::make_shared<M>(std::move(msg).value()));
    }
  });
  return decoded;
}

}  // namespace transedge::wire
