#include "storage/paged/paged_backend.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace transedge::storage::paged {

Status ForEachAppliedWrite(
    const SmrLog& log, const Batch& batch, const PartitionMap& pmap,
    PartitionId self,
    const std::function<void(const Key&, const Value&)>& fn) {
  for (const Transaction& t : batch.local) {
    for (const WriteOp& w : pmap.WritesFor(t, self)) fn(w.key, w.value);
  }
  for (const CommitRecord& rec : batch.committed) {
    if (!rec.committed) continue;
    Result<const LogEntry*> prepared = log.Get(rec.prepared_in_batch);
    if (!prepared.ok()) {
      return Status::Corruption(
          "commit record for txn " + std::to_string(rec.txn_id) +
          " references truncated batch " +
          std::to_string(rec.prepared_in_batch));
    }
    const std::vector<Transaction>& txns = prepared.value()->batch.prepared;
    auto it = std::find_if(txns.begin(), txns.end(), [&](const Transaction& t) {
      return t.id == rec.txn_id;
    });
    if (it == txns.end()) {
      return Status::Corruption("commit record for txn " +
                                std::to_string(rec.txn_id) +
                                " has no prepared txn in batch " +
                                std::to_string(rec.prepared_in_batch));
    }
    for (const WriteOp& w : pmap.WritesFor(*it, self)) fn(w.key, w.value);
  }
  return Status::OK();
}

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
      pmap_(tuning.num_partitions),
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
  // up on the I/O meter.
  stats_ = StorageIoStats{};
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
}

void PagedBackend::OnApplied(BatchId last_applied,
                             const crypto::Digest& root) {
  last_applied_ = last_applied;
  last_applied_root_ = root;
  Result<const LogEntry*> entry = log_.Get(last_applied);
  assert(entry.ok());
  Status st = ForEachAppliedWrite(
      log_, entry.value()->batch, pmap_, tuning_.partition,
      [&](const Key& key, const Value& value) {
        (void)value;
        dirty_buckets_.insert(BucketOf(key, tuning_.num_buckets));
      });
  assert(st.ok());
  (void)st;
  if (++applies_since_checkpoint_ >= tuning_.checkpoint_interval) {
    Status cp = DoCheckpoint(last_applied, root);
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
  if (last_applied_ == checkpoint_applied_ && dirty_buckets_.empty()) {
    return Status::OK();
  }
  return DoCheckpoint(last_applied_, last_applied_root_);
}

Status PagedBackend::DoCheckpoint(BatchId last_applied,
                                  const crypto::Digest& root) {
  // One store pass collects the latest version of every key in a dirty
  // bucket (sorted key order — the format is canonical across replicas).
  std::map<uint32_t, std::vector<BucketRecord>> rewrite;
  for (uint32_t b : dirty_buckets_) rewrite[b];
  store_.ForEachLatest([&](const Key& key, const Value& value,
                           BatchId version) {
    auto it = rewrite.find(BucketOf(key, tuning_.num_buckets));
    if (it == rewrite.end()) return;
    it->second.push_back(BucketRecord{key, value, version});
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
  checkpoint_root_ = root;
  dirty_buckets_.clear();
  applies_since_checkpoint_ = 0;
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
  checkpoint_root_ = meta.root;
  last_applied_ = meta.last_applied;
  last_applied_root_ = meta.root;

  // Replay the WAL: every surviving record rebuilds the log; records
  // beyond the checkpoint also re-apply their writes, re-derived from
  // the log itself (prepared segments named by the commit records).
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
    crypto::Digest batch_root = cert.merkle_root;
    wal_offset_of_[batch.id] = rec.start_offset;
    TE_RETURN_IF_ERROR(log_.Append({std::move(batch), std::move(cert)}));
    const Batch& appended = log_.back().batch;
    if (appended.id > meta.last_applied) {
      TE_RETURN_IF_ERROR(ForEachAppliedWrite(
          log_, appended, pmap_, tuning_.partition,
          [&](const Key& key, const Value& value) {
            store_.Put(key, value, appended.id);
            dirty_buckets_.insert(BucketOf(key, tuning_.num_buckets));
          }));
      ++applies_since_checkpoint_;
      last_applied_ = appended.id;
      last_applied_root_ = batch_root;
    }
  }

  RecoveredState out;
  out.checkpoint_applied = meta.last_applied;
  out.checkpoint_root = meta.root;
  return out;
}

}  // namespace transedge::storage::paged
