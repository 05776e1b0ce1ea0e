#include "storage/storage_backend.h"

#include <cassert>

#include "storage/paged/paged_backend.h"

namespace transedge::storage {

void InMemoryBackend::Preload(const VersionedStore& store,
                              const crypto::Digest& root) {
  (void)root;  // Nothing durable to anchor it to.
  store_ = store;
}

void InMemoryBackend::TruncateHistory(BatchId horizon) {
  store_.TruncateHistory(horizon);
  log_.TruncateTo(horizon);
}

Result<RecoveredState> InMemoryBackend::Recover(const RecoverOptions& opts) {
  (void)opts;
  return Status::FailedPrecondition(
      "in-memory backend has no durable state to recover");
}

std::unique_ptr<StorageBackend> MakeStorageBackend(StorageKind kind,
                                                   const StorageTuning& tuning,
                                                   paged::SimDisk* disk) {
  switch (kind) {
    case StorageKind::kInMemory:
      return std::make_unique<InMemoryBackend>();
    case StorageKind::kPaged:
      assert(disk != nullptr);
      return std::make_unique<paged::PagedBackend>(tuning, disk);
  }
  return nullptr;
}

}  // namespace transedge::storage
