#ifndef TRANSEDGE_SIM_ACTOR_H_
#define TRANSEDGE_SIM_ACTOR_H_

#include <cstdint>
#include <memory>

namespace transedge::sim {

/// Identifier of a simulated process (replica or client). Matches
/// crypto::NodeId numerically; redeclared here so the sim layer stays
/// independent of the crypto layer.
using ActorId = uint32_t;

/// Base class for anything deliverable through the simulated network.
/// Protocol messages in src/wire derive from this.
struct Message {
  virtual ~Message() = default;

  /// Discriminator; values are defined by the wire layer.
  virtual uint32_t type() const = 0;

  bool operator==(const Message&) const = default;
};

using MessagePtr = std::shared_ptr<const Message>;

/// A simulated process: receives messages and timer callbacks.
///
/// Actors never share state; everything flows through the network, which
/// is what lets the fault injectors (drops, partitions, byzantine
/// wrappers) interpose on all communication.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Called once when the simulation starts.
  virtual void OnStart() {}

  /// Delivery of a message sent by `from`.
  virtual void OnMessage(ActorId from, const MessagePtr& msg) = 0;
};

}  // namespace transedge::sim

#endif  // TRANSEDGE_SIM_ACTOR_H_
