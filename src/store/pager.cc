#include "store/pager.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/crc32.h"
#include "common/status.h"
#include "store/record.h"

namespace wfrm::store {

namespace {

// 16 bytes, NUL-padded. Doubles as the file-type sniff for replication
// catch-up (a shipped image starts with this magic).
constexpr char kPagesMagic[16] = {'w', 'f', 'r', 'm', '-', 'p', 'a', 'g',
                                  'e', 's', '-', 'v', '1', 0, 0, 0};

Status Errno(const std::string& what, const std::string& path) {
  return Status::ExecutionError(what + " " + path + ": " +
                                std::strerror(errno));
}

Status PwriteAll(int fd, const uint8_t* data, size_t len, uint64_t offset,
                 const std::string& path) {
  while (len > 0) {
    ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Errno("cannot write page file", path);
    data += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return Status::OK();
}

}  // namespace

bool LooksLikePagesFile(std::string_view bytes) {
  return bytes.size() >= sizeof(kPagesMagic) &&
         std::memcmp(bytes.data(), kPagesMagic, sizeof(kPagesMagic)) == 0;
}

PageRef& PageRef::operator=(PageRef&& other) noexcept {
  if (this != &other) {
    if (pager_ != nullptr) pager_->Unpin(pid_);
    pager_ = other.pager_;
    pid_ = other.pid_;
    data_ = other.data_;
    other.pager_ = nullptr;
    other.data_ = nullptr;
  }
  return *this;
}

PageRef::~PageRef() {
  if (pager_ != nullptr) pager_->Unpin(pid_);
}

void PageRef::MarkDirty() {
  if (pager_ == nullptr) return;
  auto it = pager_->frame_of_page_.find(pid_);
  if (it != pager_->frame_of_page_.end()) {
    pager_->frames_[it->second].dirty = true;
  }
}

Pager::~Pager() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<Pager>> Pager::Open(const std::string& path,
                                           const PagerOptions& options) {
  if (options.page_size < 512 || options.pool_pages < 8) {
    return Status::InvalidArgument("pager page_size/pool_pages too small");
  }
  std::unique_ptr<Pager> pager(new Pager(path, options));
  pager->fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (pager->fd_ < 0) return Errno("cannot open page file", path);
  pager->frames_.resize(options.pool_pages);

  struct stat st;
  if (::fstat(pager->fd_, &st) != 0) return Errno("cannot stat", path);
  if (st.st_size == 0) {
    // Fresh file: lay down generation 0 in slot 0 so a reopen before the
    // first commit still finds a valid (empty) store.
    pager->created_ = true;
    pager->page_count_ = 2;
    WFRM_RETURN_NOT_OK(pager->WriteMetaSlot(0, 2, 0, ""));
    if (::fsync(pager->fd_) != 0) return Errno("cannot sync", path);
    return pager;
  }
  WFRM_RETURN_NOT_OK(pager->LoadMeta());
  return pager;
}

Status Pager::LoadMeta() {
  const uint32_t ps = options_.page_size;
  std::vector<uint8_t> slot(ps);
  bool have = false;
  uint64_t best_generation = 0;
  uint64_t best_page_count = 0;
  uint64_t best_free_head = 0;
  std::string best_app_meta;
  for (int i = 0; i < 2; ++i) {
    ssize_t n = ::pread(fd_, slot.data(), ps, static_cast<off_t>(i) * ps);
    if (n < 0) return Errno("cannot read page file meta of", path_);
    if (static_cast<size_t>(n) < ps) continue;
    if (std::memcmp(slot.data(), kPagesMagic, sizeof(kPagesMagic)) != 0) {
      continue;
    }
    std::string_view in(reinterpret_cast<const char*>(slot.data()) +
                            sizeof(kPagesMagic),
                        ps - sizeof(kPagesMagic));
    uint32_t page_size = 0;
    uint64_t generation = 0;
    uint64_t page_count = 0;
    uint64_t free_head = 0;
    std::string app_meta;
    if (!ReadU32(&in, &page_size) || page_size != ps ||
        !ReadU64(&in, &generation) || !ReadU64(&in, &page_count) ||
        !ReadU64(&in, &free_head)) {
      continue;
    }
    std::string_view before_crc = in;
    if (!ReadString(&in, &app_meta)) continue;
    uint32_t crc = 0;
    if (!ReadU32(&in, &crc)) continue;
    std::string crc_input(reinterpret_cast<const char*>(slot.data()),
                          ps - in.size() - 4);
    (void)before_crc;
    if (Crc32(crc_input) != crc) continue;
    if (!have || generation > best_generation) {
      have = true;
      best_generation = generation;
      best_page_count = page_count;
      best_free_head = free_head;
      best_app_meta = std::move(app_meta);
    }
  }
  if (!have) {
    return Status::ExecutionError(
        "page file " + path_ +
        " has no valid meta slot (not a page store, or both slots corrupt)");
  }
  if (best_page_count < 2) {
    return Status::ExecutionError("page file " + path_ +
                                  " meta has impossible page count");
  }
  durable_generation_ = best_generation;
  page_count_ = best_page_count;
  app_meta_ = std::move(best_app_meta);
  return LoadFreeList(best_free_head);
}

Status Pager::LoadFreeList(uint64_t head) {
  free_pages_.clear();
  free_chain_pages_.clear();
  std::unordered_set<uint64_t> seen;
  std::vector<uint8_t> buf(options_.page_size);
  uint64_t pid = head;
  while (pid != 0) {
    if (pid < 2 || pid >= page_count_ || !seen.insert(pid).second) {
      return Status::ExecutionError("page file " + path_ +
                                    " free list chain is corrupt");
    }
    WFRM_RETURN_NOT_OK(ReadPageFromDisk(pid, buf.data()));
    free_chain_pages_.push_back(pid);
    std::string_view in(reinterpret_cast<const char*>(buf.data()),
                        options_.page_size);
    uint64_t next = 0;
    uint32_t count = 0;
    if (!ReadU64(&in, &next) || !ReadU32(&in, &count) ||
        count > (options_.page_size - 12) / 8) {
      return Status::ExecutionError("page file " + path_ +
                                    " free list page is corrupt");
    }
    for (uint32_t i = 0; i < count; ++i) {
      uint64_t free_pid = 0;
      if (!ReadU64(&in, &free_pid) || free_pid < 2 ||
          free_pid >= page_count_) {
        return Status::ExecutionError("page file " + path_ +
                                      " free list entry is corrupt");
      }
      free_pages_.push_back(free_pid);
    }
    pid = next;
  }
  return Status::OK();
}

Status Pager::WriteMetaSlot(uint64_t generation, uint64_t page_count,
                            uint64_t free_head, std::string_view app_meta) {
  const uint32_t ps = options_.page_size;
  if (app_meta.size() + 64 > ps) {
    return Status::InvalidArgument("pager app meta does not fit in one page");
  }
  std::string slot(kPagesMagic, sizeof(kPagesMagic));
  AppendU32(&slot, ps);
  AppendU64(&slot, generation);
  AppendU64(&slot, page_count);
  AppendU64(&slot, free_head);
  AppendString(&slot, app_meta);
  AppendU32(&slot, Crc32(slot));
  slot.resize(ps, '\0');
  const uint64_t slot_index = generation % 2;
  return PwriteAll(fd_, reinterpret_cast<const uint8_t*>(slot.data()), ps,
                   slot_index * ps, path_);
}

Status Pager::ReadPageFromDisk(uint64_t pid, uint8_t* out) {
  const uint32_t ps = options_.page_size;
  size_t got = 0;
  while (got < ps) {
    ssize_t n = ::pread(fd_, out + got, ps - got,
                        static_cast<off_t>(pid * ps + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return Errno("cannot read page file", path_);
    if (n == 0) break;  // Hole from a crashed generation: zero-fill below.
    got += static_cast<size_t>(n);
  }
  if (got < ps) std::memset(out + got, 0, ps - got);
  ++stats_.disk_reads;
  return Status::OK();
}

Status Pager::WriteFrame(const Frame& frame) {
  ++stats_.disk_writes;
  return PwriteAll(fd_, frame.bytes.data(), options_.page_size,
                   frame.pid * options_.page_size, path_);
}

Status Pager::EvictOne() {
  const size_t n = frames_.size();
  for (size_t step = 0; step < 2 * n; ++step) {
    Frame& f = frames_[clock_hand_];
    clock_hand_ = (clock_hand_ + 1) % n;
    if (!f.in_use || f.pins > 0) continue;
    if (f.referenced) {
      f.referenced = false;
      continue;
    }
    if (f.dirty) {
      WFRM_RETURN_NOT_OK(WriteFrame(f));
      f.dirty = false;
    }
    frame_of_page_.erase(f.pid);
    f.in_use = false;
    ++stats_.evictions;
    return Status::OK();
  }
  return Status::ExecutionError(
      "buffer pool exhausted: every frame is pinned");
}

Result<Pager::Frame*> Pager::PinFrame(uint64_t pid, bool fetch_from_disk) {
  auto it = frame_of_page_.find(pid);
  if (it != frame_of_page_.end()) {
    Frame& f = frames_[it->second];
    ++f.pins;
    f.referenced = true;
    return &f;
  }
  // Find a free frame, evicting if the pool is full.
  size_t free_index = frames_.size();
  for (size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i].in_use) {
      free_index = i;
      break;
    }
  }
  if (free_index == frames_.size()) {
    WFRM_RETURN_NOT_OK(EvictOne());
    for (size_t i = 0; i < frames_.size(); ++i) {
      if (!frames_[i].in_use) {
        free_index = i;
        break;
      }
    }
    if (free_index == frames_.size()) {
      return Status::Internal("eviction did not free a frame");
    }
  }
  Frame& f = frames_[free_index];
  f.bytes.resize(options_.page_size);
  f.pid = pid;
  f.pins = 1;
  f.dirty = false;
  f.referenced = true;
  f.in_use = true;
  if (fetch_from_disk) {
    Status st = ReadPageFromDisk(pid, f.bytes.data());
    if (!st.ok()) {
      f.in_use = false;
      f.pins = 0;
      return st;
    }
  } else {
    std::fill(f.bytes.begin(), f.bytes.end(), 0);
  }
  frame_of_page_[pid] = free_index;
  return &f;
}

void Pager::Unpin(uint64_t pid) {
  auto it = frame_of_page_.find(pid);
  if (it != frame_of_page_.end() && frames_[it->second].pins > 0) {
    --frames_[it->second].pins;
  }
}

Result<PageRef> Pager::Read(uint64_t pid) {
  if (pid < 2 || pid >= page_count_) {
    return Status::ExecutionError("page id " + std::to_string(pid) +
                                  " out of range in " + path_);
  }
  WFRM_ASSIGN_OR_RETURN(Frame * frame, PinFrame(pid, /*fetch=*/true));
  return PageRef(this, pid, frame->bytes.data());
}

Result<PageRef> Pager::Alloc() {
  uint64_t pid;
  if (!free_pages_.empty()) {
    pid = free_pages_.back();
    free_pages_.pop_back();
  } else {
    pid = page_count_++;
  }
  allocated_this_generation_.insert(pid);
  WFRM_ASSIGN_OR_RETURN(Frame * frame, PinFrame(pid, /*fetch=*/false));
  frame->dirty = true;
  return PageRef(this, pid, frame->bytes.data());
}

void Pager::Free(uint64_t pid) {
  if (pid < 2) return;
  auto it = frame_of_page_.find(pid);
  if (it != frame_of_page_.end()) {
    // Contents are dead; dropping the frame avoids a pointless write-out.
    frames_[it->second].in_use = false;
    frames_[it->second].dirty = false;
    frames_[it->second].pins = 0;
    frame_of_page_.erase(it);
  }
  if (allocated_this_generation_.erase(pid) > 0) {
    free_pages_.push_back(pid);  // Never durable: reusable immediately.
  } else {
    pending_free_.push_back(pid);  // Durable meta still references it.
  }
}

Status Pager::FlushDirtyLocked(uint64_t* flushed) {
  uint64_t count = 0;
  for (Frame& f : frames_) {
    if (!f.in_use || !f.dirty) continue;
    WFRM_RETURN_NOT_OK(WriteFrame(f));
    f.dirty = false;
    ++count;
  }
  if (flushed != nullptr) *flushed = count;
  if (::fsync(fd_) != 0) return Errno("cannot sync page file", path_);
  return Status::OK();
}

Status Pager::FlushWithoutCommit() { return FlushDirtyLocked(nullptr); }

Status Pager::Commit(std::string_view app_meta) {
  // Next generation's free set: what is still unallocated, what this
  // generation shadowed out, and the previous free-list chain pages
  // themselves (the new meta stops referencing them).
  std::vector<uint64_t> next_free = free_pages_;
  next_free.insert(next_free.end(), pending_free_.begin(),
                   pending_free_.end());
  next_free.insert(next_free.end(), free_chain_pages_.begin(),
                   free_chain_pages_.end());
  std::sort(next_free.begin(), next_free.end());
  next_free.erase(std::unique(next_free.begin(), next_free.end()),
                  next_free.end());

  // Serialize the list into chain pages taken from free_pages_, which
  // the previous meta does not reference (durably free, or allocated and
  // freed in this generation), so a torn write here cannot damage the
  // committed state; the file grows only once they run out. Pending and
  // live-chain pages are still referenced and never serve. A chain page
  // leaves the list it stores, and the next commit frees it again.
  const uint32_t ps = options_.page_size;
  const size_t per_page = (ps - 12) / 8;
  std::vector<uint64_t> reusable = free_pages_;
  std::vector<uint64_t> chain_pids;
  while (chain_pids.size() * per_page < next_free.size()) {
    if (reusable.empty()) {
      chain_pids.push_back(page_count_++);
      continue;
    }
    const uint64_t pid = reusable.back();
    reusable.pop_back();
    auto it = std::lower_bound(next_free.begin(), next_free.end(), pid);
    if (it == next_free.end() || *it != pid) continue;  // Taken already.
    next_free.erase(it);
    chain_pids.push_back(pid);
  }
  const size_t chain_len = chain_pids.size();
  for (size_t i = 0; i < chain_len; ++i) {
    std::string page;
    page.reserve(ps);
    AppendU64(&page, i + 1 < chain_len ? chain_pids[i + 1] : 0);
    const size_t begin = i * per_page;
    const size_t end = std::min(begin + per_page, next_free.size());
    AppendU32(&page, static_cast<uint32_t>(end - begin));
    for (size_t j = begin; j < end; ++j) AppendU64(&page, next_free[j]);
    page.resize(ps, '\0');
    WFRM_RETURN_NOT_OK(PwriteAll(fd_,
                                 reinterpret_cast<const uint8_t*>(page.data()),
                                 ps, chain_pids[i] * ps, path_));
    ++stats_.disk_writes;
  }

  uint64_t flushed = 0;
  WFRM_RETURN_NOT_OK(FlushDirtyLocked(&flushed));
  stats_.pages_flushed_last_commit = flushed + chain_len;

  const uint64_t next_generation = durable_generation_ + 1;
  WFRM_RETURN_NOT_OK(WriteMetaSlot(next_generation, page_count_,
                                   chain_len == 0 ? 0 : chain_pids[0],
                                   app_meta));
  if (::fsync(fd_) != 0) return Errno("cannot sync page file", path_);

  durable_generation_ = next_generation;
  app_meta_.assign(app_meta.data(), app_meta.size());
  free_pages_ = std::move(next_free);
  pending_free_.clear();
  allocated_this_generation_.clear();
  free_chain_pages_ = std::move(chain_pids);
  ++stats_.commits;
  return Status::OK();
}

}  // namespace wfrm::store
