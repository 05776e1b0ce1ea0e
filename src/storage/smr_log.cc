#include "storage/smr_log.h"

namespace transedge::storage {

Status SmrLog::Append(LogEntry entry) {
  BatchId expected = base_ + static_cast<BatchId>(entries_.size());
  if (entry.batch.id != expected) {
    return Status::FailedPrecondition(
        "SMR log append out of order: got batch " +
        std::to_string(entry.batch.id) + ", expected " +
        std::to_string(expected));
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

Result<const LogEntry*> SmrLog::Get(BatchId id) const {
  if (id < base_ || static_cast<size_t>(id - base_) >= entries_.size()) {
    return Status::NotFound("no batch with id " + std::to_string(id));
  }
  return &entries_[static_cast<size_t>(id - base_)];
}

size_t SmrLog::TruncateTo(BatchId horizon) {
  if (horizon <= base_) return 0;
  size_t drop = std::min(static_cast<size_t>(horizon - base_), entries_.size());
  entries_.erase(entries_.begin(),
                 entries_.begin() + static_cast<ptrdiff_t>(drop));
  base_ += static_cast<BatchId>(drop);
  return drop;
}

Status SmrLog::SetBase(BatchId base) {
  if (!entries_.empty()) {
    return Status::FailedPrecondition("SetBase on a non-empty log");
  }
  if (base < 0) {
    return Status::InvalidArgument("negative log base");
  }
  base_ = base;
  return Status::OK();
}

}  // namespace transedge::storage
