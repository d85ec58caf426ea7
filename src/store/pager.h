#ifndef WFRM_STORE_PAGER_H_
#define WFRM_STORE_PAGER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"

namespace wfrm::store {

struct PagerOptions {
  uint32_t page_size = 4096;
  /// Buffer pool capacity in pages; dirty pages evicted under pressure
  /// are written out early, which is safe because copy-on-write means a
  /// not-yet-committed page is never referenced by the durable meta.
  size_t pool_pages = 256;
};

/// True when `bytes` begin with the pages-file magic. Open() uses it to
/// adopt a marker-less home and InstallPagedImage to reject a shipped
/// catch-up image that is not a pages.db.
bool LooksLikePagesFile(std::string_view bytes);

struct PagerStats {
  uint64_t disk_reads = 0;
  uint64_t disk_writes = 0;
  uint64_t evictions = 0;
  uint64_t pages_flushed_last_commit = 0;
  uint64_t commits = 0;
};

class Pager;

/// Pinned view of one page in the buffer pool. The frame cannot be
/// evicted while a PageRef to it is alive; MarkDirty() schedules the
/// page for write-out at the next flush/commit.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& other) noexcept { *this = std::move(other); }
  PageRef& operator=(PageRef&& other) noexcept;
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef();

  uint64_t id() const { return pid_; }
  uint8_t* data() const { return data_; }
  void MarkDirty();
  bool valid() const { return pager_ != nullptr; }

 private:
  friend class Pager;
  PageRef(Pager* pager, uint64_t pid, uint8_t* data)
      : pager_(pager), pid_(pid), data_(data) {}

  Pager* pager_ = nullptr;
  uint64_t pid_ = 0;
  uint8_t* data_ = nullptr;
};

/// Copy-on-write page file with dual meta slots.
///
/// Layout: pages 0 and 1 are alternating meta slots (magic, generation,
/// page count, free-list chain head, an opaque application meta blob,
/// CRC); every other page is application data. A commit flushes all
/// dirty pages, fsyncs, then writes the *other* meta slot with a higher
/// generation and fsyncs again — the last valid slot with the highest
/// generation always describes a consistent tree, so a crash at any
/// byte boundary falls back to the previous committed state.
///
/// Crash-safety invariant: a page reachable from the last durable meta
/// (data or free-list chain) is never written in the following
/// generation. AllocPage hands out only pages from the durable free
/// list or fresh file extension; FreePage on a previously-durable page
/// parks it on a pending list that becomes allocatable only after the
/// next commit. Commit writes the new free-list chain into pages of
/// that same allocatable list and extends the file only when it is
/// empty, so the list and the file stay bounded across commits. Torn
/// data-page writes therefore only ever corrupt pages the durable meta
/// does not reference.
class Pager {
 public:
  static Result<std::unique_ptr<Pager>> Open(const std::string& path,
                                             const PagerOptions& options = {});
  ~Pager();
  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  /// True when Open created a fresh file (no valid meta slot existed).
  bool created() const { return created_; }
  uint64_t generation() const { return durable_generation_; }
  /// Application meta blob from the last committed generation.
  const std::string& app_meta() const { return app_meta_; }

  uint32_t page_size() const { return options_.page_size; }
  uint64_t page_count() const { return page_count_; }
  PagerStats stats() const { return stats_; }

  /// Pins an existing page into the pool.
  Result<PageRef> Read(uint64_t pid);
  /// Allocates a fresh zeroed page (from the durable free list or file
  /// extension), pinned and already marked dirty.
  Result<PageRef> Alloc();
  /// Releases a page. Pages allocated since the last commit return to
  /// the allocatable pool immediately; previously-durable pages are
  /// parked until the next commit makes their release durable.
  void Free(uint64_t pid);
  /// True when `pid` was allocated since the last commit, i.e. the page
  /// is not referenced by any durable meta and may be updated in place.
  bool WritableInPlace(uint64_t pid) const {
    return allocated_this_generation_.count(pid) > 0;
  }

  /// Flushes dirty pages and fsyncs the file, without committing a
  /// meta slot. Used by crash-injection tests to model a crash between
  /// page flush and meta write; production code uses Commit().
  Status FlushWithoutCommit();

  /// Flushes dirty pages, serializes the new free list, and commits a
  /// new generation carrying `app_meta` (must fit in one meta page,
  /// roughly page_size - 128 bytes).
  Status Commit(std::string_view app_meta);

  /// Number of pages on the allocatable free list (excludes pending).
  size_t free_page_count() const { return free_pages_.size(); }

 private:
  struct Frame {
    std::vector<uint8_t> bytes;
    uint64_t pid = 0;
    int pins = 0;
    bool dirty = false;
    bool referenced = false;
    bool in_use = false;
  };

  Pager(std::string path, const PagerOptions& options)
      : path_(std::move(path)), options_(options) {}

  friend class PageRef;
  void Unpin(uint64_t pid);

  Status LoadMeta();
  Status LoadFreeList(uint64_t head);
  Status WriteMetaSlot(uint64_t generation, uint64_t page_count,
                       uint64_t free_head, std::string_view app_meta);
  Result<Frame*> PinFrame(uint64_t pid, bool fetch_from_disk);
  Status EvictOne();
  Status WriteFrame(const Frame& frame);
  Status ReadPageFromDisk(uint64_t pid, uint8_t* out);
  Status FlushDirtyLocked(uint64_t* flushed);

  std::string path_;
  PagerOptions options_;
  int fd_ = -1;
  bool created_ = false;

  uint64_t durable_generation_ = 0;
  uint64_t page_count_ = 2;  // Pages 0/1 are the meta slots.
  std::string app_meta_;

  std::vector<uint64_t> free_pages_;          // Allocatable now.
  std::vector<uint64_t> pending_free_;        // Allocatable after commit.
  std::vector<uint64_t> free_chain_pages_;    // Durable free-list chain.
  std::unordered_set<uint64_t> allocated_this_generation_;

  std::vector<Frame> frames_;
  std::unordered_map<uint64_t, size_t> frame_of_page_;
  size_t clock_hand_ = 0;

  PagerStats stats_;
};

}  // namespace wfrm::store

#endif  // WFRM_STORE_PAGER_H_
