#include "storage/paged/page_file.h"

#include <algorithm>
#include <cassert>

namespace transedge::storage::paged {

namespace {

/// CRC of a header struct (crc field zeroed) chained over the payload —
/// the one formula every checksummed structure in the format uses.
template <typename H>
uint32_t HeaderPayloadCrc(H header, const uint8_t* payload, size_t len) {
  header.crc = 0;
  Encoder enc;
  Encode(header, &enc);
  return Crc32(payload, len, Crc32(enc.buffer()));
}

}  // namespace

PageFile::PageFile(SimDisk* disk, uint32_t page_size, StorageIoStats* stats)
    : disk_(disk), page_size_(page_size), stats_(stats) {
  assert(page_size_ > kPageHeaderSize);
}

void PageFile::InitEmpty() {
  frontier_ = kFirstDataPage;
  free_.clear();
  used_.clear();
}

void PageFile::SetFrontier(uint32_t num_pages) {
  frontier_ = std::max(num_pages, kFirstDataPage);
  free_.clear();
  used_.clear();
}

void PageFile::MarkUsed(uint32_t page_id) { used_.insert(page_id); }

void PageFile::DeriveFreeList() {
  free_.clear();
  for (uint32_t p = kFirstDataPage; p < frontier_; ++p) {
    if (used_.count(p) == 0) free_.insert(p);
  }
  used_.clear();
}

uint32_t PageFile::AllocatePage() {
  if (!free_.empty()) {
    uint32_t p = *free_.begin();
    free_.erase(free_.begin());
    return p;
  }
  return frontier_++;
}

void PageFile::FreePages(const std::vector<uint32_t>& pages) {
  for (uint32_t p : pages) {
    assert(p >= kFirstDataPage && p < frontier_);
    free_.insert(p);
  }
}

void PageFile::WritePage(const PageHeader& header, const uint8_t* payload) {
  Encoder enc;
  Encode(header, &enc);
  Bytes buf = enc.Take();
  buf.insert(buf.end(), payload, payload + header.payload_len);
  // One disk op per page: header + payload land (or tear) together.
  disk_->WriteAt(kPagesFileId,
                 static_cast<uint64_t>(header.page_id) * page_size_, buf);
  ++stats_->pages_written;
  stats_->page_bytes_written += buf.size();
}

Result<uint32_t> PageFile::WriteChain(uint64_t lsn, const Bytes& payload,
                                      std::vector<uint32_t>* pages_out) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty chain payload");
  }
  const size_t chunk = page_size_ - kPageHeaderSize;
  const size_t n = (payload.size() + chunk - 1) / chunk;
  // Allocate the whole chain first so every header knows its successor.
  std::vector<uint32_t> pages(n);
  for (size_t i = 0; i < n; ++i) pages[i] = AllocatePage();
  for (size_t i = 0; i < n; ++i) {
    size_t off = i * chunk;
    size_t len = std::min(chunk, payload.size() - off);
    PageHeader h;
    h.page_id = pages[i];
    h.lsn = lsn;
    h.payload_len = static_cast<uint32_t>(len);
    h.next_page = (i + 1 < n) ? pages[i + 1] : kNoPage;
    h.crc = HeaderPayloadCrc(h, payload.data() + off, len);
    WritePage(h, payload.data() + off);
  }
  if (pages_out != nullptr) *pages_out = pages;
  return pages[0];
}

Result<Bytes> PageFile::ReadPage(uint32_t page_id, PageHeader* header_out) {
  Bytes raw = disk_->ReadAt(
      kPagesFileId, static_cast<uint64_t>(page_id) * page_size_, page_size_);
  ++stats_->pages_read;
  Decoder dec(raw.data(), kPageHeaderSize);
  TE_ASSIGN_OR_RETURN(PageHeader h, Decode<PageHeader>(&dec));
  if (h.magic != kPageMagic || h.version != kFormatVersion) {
    return Status::Corruption("bad page magic/version at page " +
                              std::to_string(page_id));
  }
  if (h.page_id != page_id) {
    return Status::Corruption("page id mismatch: header says " +
                              std::to_string(h.page_id) + " at page " +
                              std::to_string(page_id));
  }
  if (h.payload_len > page_size_ - kPageHeaderSize) {
    return Status::Corruption("page payload overruns page size");
  }
  if (h.crc != HeaderPayloadCrc(h, raw.data() + kPageHeaderSize,
                                h.payload_len)) {
    return Status::Corruption("page CRC mismatch at page " +
                              std::to_string(page_id));
  }
  *header_out = h;
  return Bytes(raw.begin() + kPageHeaderSize,
               raw.begin() + kPageHeaderSize + h.payload_len);
}

Result<Bytes> PageFile::ReadChain(uint32_t head,
                                  std::vector<uint32_t>* pages_out) {
  Bytes payload;
  std::vector<uint32_t> pages;
  uint32_t p = head;
  while (p != kNoPage) {
    if (pages.size() > frontier_) {
      return Status::Corruption("page chain cycle from head " +
                                std::to_string(head));
    }
    PageHeader h;
    TE_ASSIGN_OR_RETURN(Bytes chunk, ReadPage(p, &h));
    payload.insert(payload.end(), chunk.begin(), chunk.end());
    pages.push_back(p);
    p = h.next_page;
  }
  if (pages_out != nullptr) *pages_out = std::move(pages);
  return payload;
}

Status PageFile::WriteMeta(MetaSlot meta) {
  meta.crc = 0;
  Encoder enc;
  Encode(meta, &enc);
  Bytes buf = enc.Take();
  if (buf.size() > page_size_) {
    return Status::InvalidArgument(
        "meta slot does not fit in a page: " + std::to_string(buf.size()) +
        " > " + std::to_string(page_size_) + " (too many buckets?)");
  }
  uint32_t crc = Crc32(buf);
  // The crc is the final u32 of the encoding; patch it in place.
  for (int i = 0; i < 4; ++i) {
    buf[buf.size() - 4 + static_cast<size_t>(i)] =
        static_cast<uint8_t>(crc >> (8 * i));
  }
  uint64_t slot = meta.generation % 2;
  disk_->WriteAt(kPagesFileId, slot * page_size_, buf);
  ++stats_->pages_written;
  stats_->page_bytes_written += buf.size();
  return Status::OK();
}

Result<MetaSlot> PageFile::ReadBestMeta() const {
  Result<MetaSlot> best = Status::NotFound("no valid meta slot");
  for (uint64_t slot = 0; slot < 2; ++slot) {
    Bytes raw = disk_->ReadAt(kPagesFileId, slot * page_size_, page_size_);
    ++stats_->pages_read;
    Decoder dec(raw);
    Result<MetaSlot> m = Decode<MetaSlot>(&dec);
    if (!m.ok()) continue;
    if (m.value().magic != kMetaMagic ||
        m.value().version != kFormatVersion) {
      continue;
    }
    MetaSlot zeroed = m.value();
    zeroed.crc = 0;
    Encoder enc;
    Encode(zeroed, &enc);
    if (Crc32(enc.buffer()) != m.value().crc) continue;
    if (!best.ok() || m.value().generation > best.value().generation) {
      best = std::move(m);
    }
  }
  return best;
}

void PageFile::Sync() {
  disk_->Sync(kPagesFileId);
  ++stats_->file_syncs;
}

}  // namespace transedge::storage::paged
