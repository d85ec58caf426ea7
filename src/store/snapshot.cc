#include "store/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "store/record.h"
#include "store/wal.h"

namespace wfrm::store {

namespace {

/// Section tags: the snapshot is a short log of sections, each one
/// framed record. Unknown sections fail the read — the format is
/// versioned by the magic string.
// v2: lease deadlines are remaining lifetimes, not clock timestamps
// (monotonic epochs do not survive a restart; see durable_rm.cc).
constexpr char kMagic[] = "wfrm-snapshot-v2";
constexpr uint8_t kSectionHeader = 1;
constexpr uint8_t kSectionRdl = 2;
constexpr uint8_t kSectionTable = 3;
constexpr uint8_t kSectionLeases = 4;
constexpr uint8_t kSectionEnd = 5;

void AppendTableSection(std::string* out, std::string_view name,
                        const std::vector<rel::Row>& rows) {
  out->push_back(static_cast<char>(kSectionTable));
  AppendString(out, name);
  AppendU32(out, static_cast<uint32_t>(rows.size()));
  for (const rel::Row& row : rows) AppendRow(out, row);
}

Status Corrupt(const std::string& path, const char* what) {
  return Status::ExecutionError("snapshot " + path + " is corrupt: " + what);
}

}  // namespace

std::string EncodeSnapshot(const SnapshotData& data) {
  std::string out;

  std::string header;
  header.push_back(static_cast<char>(kSectionHeader));
  AppendString(&header, kMagic);
  AppendU64(&header, data.last_seq);
  AppendU64(&header, data.next_lease_id);
  AppendI64(&header, data.policy_image.next_pid);
  AppendI64(&header, data.policy_image.next_group);
  AppendU64(&header, data.policy_image.epoch);
  AppendWalFrame(&out, header);

  std::string rdl;
  rdl.push_back(static_cast<char>(kSectionRdl));
  AppendString(&rdl, data.rdl_text);
  AppendWalFrame(&out, rdl);

  const auto& img = data.policy_image;
  std::string tables;
  AppendTableSection(&tables, "Qualifications", img.qualifications);
  AppendWalFrame(&out, tables);
  tables.clear();
  AppendTableSection(&tables, "Policies", img.policies);
  AppendWalFrame(&out, tables);
  tables.clear();
  AppendTableSection(&tables, "Filter", img.filter);
  AppendWalFrame(&out, tables);
  tables.clear();
  AppendTableSection(&tables, "SubstPolicies", img.subst_policies);
  AppendWalFrame(&out, tables);
  tables.clear();
  AppendTableSection(&tables, "SubstFilter", img.subst_filter);
  AppendWalFrame(&out, tables);

  std::string leases;
  leases.push_back(static_cast<char>(kSectionLeases));
  AppendU32(&leases, static_cast<uint32_t>(data.leases.size()));
  for (const core::Lease& lease : data.leases) {
    AppendString(&leases, lease.resource.type);
    AppendString(&leases, lease.resource.id);
    AppendU64(&leases, lease.id);
    AppendI64(&leases, lease.deadline_micros);
  }
  AppendWalFrame(&out, leases);

  std::string end(1, static_cast<char>(kSectionEnd));
  AppendWalFrame(&out, end);
  return out;
}

namespace {

Status WriteFileRaw(const std::string& path, std::string_view bytes) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::ExecutionError("cannot write " + path + ": " +
                                  std::strerror(errno));
  }
  const char* p = bytes.data();
  size_t left = bytes.size();
  while (left > 0) {
    ssize_t n = ::write(fd, p, left);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Status st = Status::ExecutionError(
          "cannot write " + path + ": " +
          (n < 0 ? std::strerror(errno) : "short write"));
      ::close(fd);
      return st;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }
  // The contents must be durable before a rename commits them.
  if (::fsync(fd) != 0) {
    Status st = Status::ExecutionError("cannot sync " + path + ": " +
                                       std::strerror(errno));
    ::close(fd);
    return st;
  }
  ::close(fd);
  return Status::OK();
}

std::function<bool(std::string_view)>& CommitFaultHook() {
  static std::function<bool(std::string_view)> hook;
  return hook;
}

/// True when the test hook fails `op`; errno then reads as the EIO the
/// hook stands in for.
bool InjectCommitFault(std::string_view op) {
  const auto& hook = CommitFaultHook();
  if (!hook || !hook(op)) return false;
  errno = EIO;
  return true;
}

}  // namespace

void SetCommitSnapshotFaultHook(std::function<bool(std::string_view)> hook) {
  CommitFaultHook() = std::move(hook);
}

Status WriteFileDurable(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  Status written = WriteFileRaw(tmp, bytes);
  if (written.ok() &&
      (InjectCommitFault("rename") ||
       std::rename(tmp.c_str(), path.c_str()) != 0)) {
    written = Status::ExecutionError("cannot commit " + path + ": " +
                                     std::strerror(errno));
  }
  if (!written.ok()) {
    // The tmp file is ours and was never committed — remove it so a
    // failed write does not strand half-written files in the home
    // (best effort: open-time reaping catches anything left behind).
    std::remove(tmp.c_str());
    return written;
  }
  // Make the rename itself durable (directory entry update). A failure
  // here must propagate: a caller that truncates the WAL on success
  // would lose history if the rename did not survive a crash.
  const size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : path.substr(0, slash);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dfd < 0) {
    return Status::ExecutionError("cannot open " + dir + " to sync the "
                                  "commit of " + path + ": " +
                                  std::strerror(errno));
  }
  if (InjectCommitFault("dirsync") || ::fsync(dfd) != 0) {
    Status st = Status::ExecutionError("cannot sync " + dir +
                                       " after committing " + path + ": " +
                                       std::strerror(errno));
    ::close(dfd);
    return st;
  }
  ::close(dfd);
  return Status::OK();
}

Result<SnapshotData> DecodeSnapshot(std::string_view bytes,
                                    const std::string& origin) {
  WalScan scan = ScanWalBuffer(bytes);
  if (scan.torn_tail) return Corrupt(origin, "torn record");

  SnapshotData data;
  bool saw_header = false;
  bool saw_end = false;
  for (const std::string& payload : scan.payloads) {
    std::string_view in = payload;
    if (in.empty()) return Corrupt(origin, "empty section");
    uint8_t section = static_cast<uint8_t>(in.front());
    in.remove_prefix(1);
    switch (section) {
      case kSectionHeader: {
        std::string magic;
        if (!ReadString(&in, &magic) || magic != kMagic) {
          return Corrupt(origin, "bad magic");
        }
        if (!ReadU64(&in, &data.last_seq) ||
            !ReadU64(&in, &data.next_lease_id) ||
            !ReadI64(&in, &data.policy_image.next_pid) ||
            !ReadI64(&in, &data.policy_image.next_group) ||
            !ReadU64(&in, &data.policy_image.epoch)) {
          return Corrupt(origin, "short header");
        }
        saw_header = true;
        break;
      }
      case kSectionRdl:
        if (!ReadString(&in, &data.rdl_text)) {
          return Corrupt(origin, "short RDL section");
        }
        break;
      case kSectionTable: {
        std::string name;
        uint32_t count = 0;
        if (!ReadString(&in, &name) || !ReadU32(&in, &count)) {
          return Corrupt(origin, "short table section");
        }
        std::vector<rel::Row>* rows = nullptr;
        auto& img = data.policy_image;
        if (name == "Qualifications") rows = &img.qualifications;
        else if (name == "Policies") rows = &img.policies;
        else if (name == "Filter") rows = &img.filter;
        else if (name == "SubstPolicies") rows = &img.subst_policies;
        else if (name == "SubstFilter") rows = &img.subst_filter;
        else return Corrupt(origin, "unknown table section");
        rows->reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          rel::Row row;
          if (!ReadRow(&in, &row)) return Corrupt(origin, "short table row");
          rows->push_back(std::move(row));
        }
        break;
      }
      case kSectionLeases: {
        uint32_t count = 0;
        if (!ReadU32(&in, &count)) {
          return Corrupt(origin, "short lease section");
        }
        data.leases.reserve(count);
        for (uint32_t i = 0; i < count; ++i) {
          core::Lease lease;
          if (!ReadString(&in, &lease.resource.type) ||
              !ReadString(&in, &lease.resource.id) ||
              !ReadU64(&in, &lease.id) ||
              !ReadI64(&in, &lease.deadline_micros)) {
            return Corrupt(origin, "short lease row");
          }
          data.leases.push_back(std::move(lease));
        }
        break;
      }
      case kSectionEnd:
        saw_end = true;
        break;
      default:
        return Corrupt(origin, "unknown section");
    }
  }
  if (!saw_header || !saw_end) return Corrupt(origin, "incomplete");
  return data;
}

Result<std::string> ReadFileBytes(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at " + path);
    return Status::ExecutionError("cannot read " + path + ": " +
                                  std::strerror(errno));
  }
  std::string contents;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = Status::ExecutionError("cannot read " + path + ": " +
                                         std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (n == 0) break;
    contents.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return contents;
}

Result<SnapshotData> ReadSnapshot(const std::string& path) {
  Result<std::string> contents = ReadFileBytes(path);
  if (!contents.ok()) {
    if (contents.status().code() == StatusCode::kNotFound) {
      return Status::NotFound("no snapshot at " + path);
    }
    return contents.status();
  }
  return DecodeSnapshot(*contents, path);
}

}  // namespace wfrm::store
