#ifndef TRANSEDGE_WIRE_SERIALIZE_H_
#define TRANSEDGE_WIRE_SERIALIZE_H_

#include "wire/message.h"

namespace transedge::wire {

/// Binary serialization for every protocol message.
///
/// The simulator delivers typed message objects (no marshalling cost on
/// the host), but the wire format is fully defined so that (a) the
/// crypto layer signs exactly the bytes that would travel, (b) a socket
/// transport can be swapped in behind `sim::Network`, and (c) fuzz tests
/// can hammer the decoders. Each message encodes as:
///
///     u32 message-type | body
///
/// where the body is the message's `Fields` list (common/codec.h).
/// `EncodeMessage` dispatches on the runtime type; `DecodeMessage`
/// reconstructs the typed object.
Bytes EncodeMessage(const sim::Message& msg);

/// Decodes a message produced by EncodeMessage. Corruption on any
/// truncated or malformed input, never undefined behaviour.
Result<sim::MessagePtr> DecodeMessage(const Bytes& buffer);

}  // namespace transedge::wire

#endif  // TRANSEDGE_WIRE_SERIALIZE_H_
