#include "common/status.h"

namespace transedge {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "InvalidArgument";
    case StatusCode::kNotFound:
      return "NotFound";
    case StatusCode::kAlreadyExists:
      return "AlreadyExists";
    case StatusCode::kCorruption:
      return "Corruption";
    case StatusCode::kFailedPrecondition:
      return "FailedPrecondition";
    case StatusCode::kAborted:
      return "Aborted";
    case StatusCode::kConflict:
      return "Conflict";
    case StatusCode::kTimeout:
      return "Timeout";
    case StatusCode::kVerificationFailed:
      return "VerificationFailed";
    case StatusCode::kInternal:
      return "Internal";
  }
  return "Unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace transedge
