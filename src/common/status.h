#ifndef TRANSEDGE_COMMON_STATUS_H_
#define TRANSEDGE_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace transedge {

/// Coarse classification of an error, modeled after the Arrow/RocksDB
/// status idiom. Library code never throws on expected failure paths;
/// instead every fallible operation returns a `Status` or a `Result<T>`.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kCorruption,
  kFailedPrecondition,
  kAborted,
  kConflict,
  kTimeout,
  kVerificationFailed,
  kInternal,
};

/// Returns a stable human-readable name for `code` (e.g. "Conflict").
const char* StatusCodeToString(StatusCode code);

/// The outcome of a fallible operation: a code plus an optional message.
///
/// An OK status carries no allocation. Statuses are cheap to copy and
/// compare by code. Typical use:
///
///     Status s = store.Put(key, value);
///     if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }
  static Status Conflict(std::string msg) {
    return Status(StatusCode::kConflict, std::move(msg));
  }
  static Status Timeout(std::string msg) {
    return Status(StatusCode::kTimeout, std::move(msg));
  }
  static Status VerificationFailed(std::string msg) {
    return Status(StatusCode::kVerificationFailed, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsConflict() const { return code_ == StatusCode::kConflict; }
  bool IsAborted() const { return code_ == StatusCode::kAborted; }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsVerificationFailed() const {
    return code_ == StatusCode::kVerificationFailed;
  }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Propagates a non-OK status to the caller.
#define TE_RETURN_IF_ERROR(expr)                    \
  do {                                              \
    ::transedge::Status _te_status = (expr);        \
    if (!_te_status.ok()) return _te_status;        \
  } while (false)

}  // namespace transedge

#endif  // TRANSEDGE_COMMON_STATUS_H_
