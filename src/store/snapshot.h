#ifndef WFRM_STORE_SNAPSHOT_H_
#define WFRM_STORE_SNAPSHOT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/resource_manager.h"
#include "policy/policy_store.h"

namespace wfrm::store {

/// The legacy snapshot.dat image, kept only as a read-only import:
/// Open() folds a home's snapshot.dat into pages.db and removes it. The
/// org model is RDL text (the paper's own serialization of
/// hierarchies/resources, §7), the policy base a raw relational image
/// (PIDs/epoch preserved — see PolicyStore::Image), and the live leases
/// come with their id high-water mark. `last_seq` is the WAL sequence
/// number of the last mutation the image includes; replay skips records
/// at or below it.
///
/// Lease deadlines here are in durable form — *remaining lifetimes*,
/// not clock timestamps (the manager's monotonic clock epoch does not
/// survive a restart). DurableResourceManager converts at the
/// capture/restore boundary; see durable_rm.cc.
struct SnapshotData {
  uint64_t last_seq = 0;
  uint64_t next_lease_id = 1;
  std::string rdl_text;
  policy::PolicyStore::Image policy_image;
  std::vector<core::Lease> leases;
};

/// Serializes `data` into the frozen snapshot.dat byte format (a burst
/// of WAL-framed sections). The store no longer writes this format; the
/// encoder stays as its one definition, the inverse of DecodeSnapshot
/// (tests build legacy homes with it).
std::string EncodeSnapshot(const SnapshotData& data);

/// Inverse of EncodeSnapshot. `origin` only labels error messages.
/// Fails with ExecutionError on any truncation or corruption — a
/// snapshot image is complete by construction, so a damaged one must
/// never half-restore.
Result<SnapshotData> DecodeSnapshot(std::string_view bytes,
                                    const std::string& origin);

/// Test-only fault hook consulted by WriteFileDurable before each of
/// its two fallible commit steps (`op` is "rename" or "dirsync");
/// returning true makes the step fail as if the syscall had failed with
/// EIO. Tests wire this to a core::FaultInjector::SampleStorageFault
/// draw to cover the error-unwind branches. Pass nullptr to clear. Not
/// synchronized against concurrent WriteFileDurable calls — set it
/// before the store under test starts committing files.
void SetCommitSnapshotFaultHook(std::function<bool(std::string_view)> hook);

/// Reads a legacy snapshot.dat. NotFound when `path` does not exist;
/// ExecutionError when the file exists but is corrupt (a committed
/// snapshot is complete by construction, so corruption means storage
/// damage and recovery must not guess).
Result<SnapshotData> ReadSnapshot(const std::string& path);

/// Writes raw `bytes` durably to `path` via tmp + fsync + atomic rename
/// + directory fsync — the file commit used for pages.db catch-up
/// images and the metadata markers (store.meta, replica.meta). A failed
/// tmp write or rename removes the tmp and leaves `path` as it was; a
/// failed directory fsync comes after the rename, so `path` already
/// names the new bytes but may not survive a crash.
Status WriteFileDurable(const std::string& path, std::string_view bytes);

/// Reads a whole file. NotFound when `path` does not exist.
Result<std::string> ReadFileBytes(const std::string& path);

}  // namespace wfrm::store

#endif  // WFRM_STORE_SNAPSHOT_H_
