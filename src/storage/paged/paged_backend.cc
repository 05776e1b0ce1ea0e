#include "storage/paged/paged_backend.h"

#include <cassert>
#include <utility>

namespace transedge::storage::paged {

uint32_t PagedBackend::BucketOf(const Key& key, uint32_t num_buckets) {
  // FNV-1a, 64-bit.
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : key) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return static_cast<uint32_t>(h % num_buckets);
}

PagedBackend::PagedBackend(const StorageTuning& tuning, SimDisk* disk)
    : tuning_(tuning),
      disk_(disk),
      pages_(disk, tuning.page_size, &stats_),
      wal_(disk, tuning.wal_group_commit, &stats_),
      bucket_heads_(tuning.num_buckets, kNoPage),
      bucket_pages_(tuning.num_buckets) {
  assert(disk_ != nullptr);
  assert(tuning_.num_buckets > 0);
}

void PagedBackend::Preload(const VersionedStore& store,
                           const crypto::Digest& root) {
  store_ = store;
  pages_.InitEmpty();
  for (uint32_t b = 0; b < tuning_.num_buckets; ++b) dirty_buckets_.insert(b);
  Status st = DoCheckpoint(kNoBatch, root);
  assert(st.ok());
  (void)st;
  // The preload handoff happens before the sim starts; it must not show
  // up in the I/O counters.
  stats_ = StorageIoStats{};
}

void PagedBackend::Put(const Key& key, const Value& value, BatchId version) {
  store_.Put(key, value, version);
  dirty_buckets_.insert(BucketOf(key, tuning_.num_buckets));
}

void PagedBackend::OnDecided() {
  assert(!log_.empty());
  const LogEntry& entry = log_.back();
  Encoder enc;
  Encode(entry.batch, &enc);
  Encode(entry.certificate, &enc);
  uint64_t offset = wal_.Append(static_cast<uint64_t>(entry.batch.id),
                                enc.buffer());
  wal_offset_of_[entry.batch.id] = offset;
  if (++batches_since_checkpoint_ >= tuning_.checkpoint_interval) {
    Status cp = DoCheckpoint(entry.batch.id, entry.certificate.merkle_root);
    assert(cp.ok());
    (void)cp;
  }
}

void PagedBackend::TruncateHistory(BatchId horizon) {
  store_.TruncateHistory(horizon);
  log_.TruncateTo(horizon);
  // WAL offsets below the retained range only matter until the next
  // checkpoint publishes the new wal_start_offset.
  wal_offset_of_.erase(wal_offset_of_.begin(),
                       wal_offset_of_.lower_bound(log_.FirstBatchId()));
}

Status PagedBackend::Checkpoint() {
  // The store holds every logged batch, so the log tail is its state.
  if (log_.empty() ||
      (log_.LastBatchId() == checkpoint_applied_ && dirty_buckets_.empty())) {
    return Status::OK();
  }
  return DoCheckpoint(log_.LastBatchId(), log_.back().certificate.merkle_root);
}

Status PagedBackend::DoCheckpoint(BatchId last_applied,
                                  const crypto::Digest& root) {
  // Log barrier: a store at `last_applied` beside a log that ends
  // earlier would match no certified root.
  wal_.Sync();

  // One store pass collects the latest version of every key in a dirty
  // bucket (sorted key order — the format is canonical across replicas).
  std::map<uint32_t, std::vector<BucketRecord>> rewrite;
  for (uint32_t b : dirty_buckets_) rewrite[b];
  store_.ForEachLatest(
      [&](const Key& key, const Value& value, BatchId version) {
        rewrite[BucketOf(key, tuning_.num_buckets)].push_back(
            BucketRecord{key, value, version});
      },
      [&](const Key& key) {
        return dirty_buckets_.count(BucketOf(key, tuning_.num_buckets)) > 0;
      });

  // Copy-on-write: new chains go to pages the previous checkpoint does
  // not reference; the old pages are freed only after the meta flip is
  // durable, so a crash anywhere in between leaves the old checkpoint
  // fully intact.
  std::vector<uint32_t> old_pages;
  for (auto& [b, entries] : rewrite) {
    old_pages.insert(old_pages.end(), bucket_pages_[b].begin(),
                     bucket_pages_[b].end());
    if (entries.empty()) {
      bucket_heads_[b] = kNoPage;
      bucket_pages_[b].clear();
      continue;
    }
    Encoder payload;
    Encode(entries, &payload);
    std::vector<uint32_t> chain;
    TE_ASSIGN_OR_RETURN(
        bucket_heads_[b],
        pages_.WriteChain(static_cast<uint64_t>(last_applied + 1),
                          payload.buffer(), &chain));
    bucket_pages_[b] = std::move(chain);
  }
  pages_.Sync();  // Data barrier: chains are durable before the flip.

  MetaSlot meta;
  meta.generation = generation_ + 1;
  meta.page_size = tuning_.page_size;
  meta.num_buckets = tuning_.num_buckets;
  meta.num_pages = pages_.num_pages();
  meta.last_applied = last_applied;
  meta.root = root;
  meta.log_start = log_.FirstBatchId();
  auto first_live = wal_offset_of_.lower_bound(meta.log_start);
  meta.wal_start_offset =
      first_live != wal_offset_of_.end() ? first_live->second
                                         : wal_.end_offset();
  meta.bucket_heads = bucket_heads_;
  TE_RETURN_IF_ERROR(pages_.WriteMeta(meta));
  pages_.Sync();  // Meta barrier: the new checkpoint is now the truth.

  pages_.FreePages(old_pages);
  ++generation_;
  checkpoint_applied_ = last_applied;
  dirty_buckets_.clear();
  batches_since_checkpoint_ = 0;
  ++stats_.checkpoints;
  return Status::OK();
}

Result<RecoveredState> PagedBackend::Recover(const RecoverOptions& opts) {
  if (generation_ > 0 || !log_.empty() || store_.key_count() > 0) {
    return Status::FailedPrecondition(
        "Recover on a backend that already holds state");
  }
  TE_ASSIGN_OR_RETURN(MetaSlot meta, pages_.ReadBestMeta());
  if (meta.page_size != tuning_.page_size ||
      meta.num_buckets != tuning_.num_buckets) {
    return Status::Corruption(
        "storage geometry mismatch: disk has page_size " +
        std::to_string(meta.page_size) + " / " +
        std::to_string(meta.num_buckets) + " buckets");
  }
  if (meta.bucket_heads.size() != tuning_.num_buckets) {
    return Status::Corruption("meta bucket_heads count mismatch");
  }

  // Load the checkpointed store, bucket by bucket.
  pages_.SetFrontier(meta.num_pages);
  bucket_heads_ = meta.bucket_heads;
  for (uint32_t b = 0; b < tuning_.num_buckets; ++b) {
    bucket_pages_[b].clear();
    if (bucket_heads_[b] == kNoPage) continue;
    TE_ASSIGN_OR_RETURN(Bytes payload,
                        pages_.ReadChain(bucket_heads_[b], &bucket_pages_[b]));
    for (uint32_t p : bucket_pages_[b]) pages_.MarkUsed(p);
    Decoder dec(payload);
    TE_ASSIGN_OR_RETURN(std::vector<BucketRecord> entries,
                        Decode<std::vector<BucketRecord>>(&dec));
    for (BucketRecord& e : entries) {
      store_.Put(e.key, std::move(e.value), e.version);
    }
    if (!dec.exhausted()) {
      return Status::Corruption("trailing bytes in bucket " +
                                std::to_string(b));
    }
  }
  pages_.DeriveFreeList();

  TE_RETURN_IF_ERROR(log_.SetBase(meta.log_start));
  generation_ = meta.generation;
  checkpoint_applied_ = meta.last_applied;

  // Replay the WAL into the log; the node puts the writes of the
  // records beyond the checkpoint, which count toward the next one.
  TE_ASSIGN_OR_RETURN(std::vector<WalFile::ReplayRecord> records,
                      wal_.Replay(meta.wal_start_offset));
  for (WalFile::ReplayRecord& rec : records) {
    Decoder dec(rec.payload);
    TE_ASSIGN_OR_RETURN(Batch batch, Decode<Batch>(&dec));
    TE_ASSIGN_OR_RETURN(BatchCertificate cert, Decode<BatchCertificate>(&dec));
    if (!dec.exhausted()) {
      return Status::Corruption("trailing bytes in WAL record for batch " +
                                std::to_string(batch.id));
    }
    if (static_cast<uint64_t>(batch.id) != rec.lsn) {
      return Status::Corruption("WAL record lsn does not match its batch");
    }
    BatchId expected = log_.LastBatchId() + 1;
    if (batch.id != expected) {
      return Status::Corruption("WAL not contiguous: got batch " +
                                std::to_string(batch.id) + ", expected " +
                                std::to_string(expected));
    }
    if (opts.verifier != nullptr) {
      TE_RETURN_IF_ERROR(cert.Verify(*opts.verifier, opts.required_signatures,
                                     opts.member_ids));
    }
    wal_offset_of_[batch.id] = rec.start_offset;
    if (batch.id > meta.last_applied) ++batches_since_checkpoint_;
    TE_RETURN_IF_ERROR(log_.Append({std::move(batch), std::move(cert)}));
  }

  RecoveredState out;
  out.checkpoint_applied = meta.last_applied;
  out.checkpoint_root = meta.root;
  return out;
}

}  // namespace transedge::storage::paged
