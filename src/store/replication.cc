#include "store/replication.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "store/wal.h"

namespace wfrm::store {

namespace {

constexpr char kReplicaMetaMagic[] = "wfrm-replica-v1";

std::string ReplicaMetaPath(const std::string& dir) {
  return dir + "/replica.meta";
}

}  // namespace

// ---- Wire frames ------------------------------------------------------------

std::string EncodeFrame(const ReplicationFrame& frame) {
  std::string payload;
  payload.push_back(static_cast<char>(frame.type));
  AppendU64(&payload, frame.epoch);
  AppendU64(&payload, frame.seq);
  AppendString(&payload, frame.body);
  std::string out;
  AppendWalFrame(&out, payload);
  return out;
}

Result<ReplicationFrame> DecodeFrame(std::string_view bytes) {
  WalScan scan = ScanWalBuffer(bytes);
  if (scan.torn_tail || scan.payloads.size() != 1) {
    return Status::ExecutionError("replication frame is damaged");
  }
  std::string_view in = scan.payloads.front();
  if (in.empty()) return Status::ExecutionError("replication frame is empty");
  const uint8_t type = static_cast<uint8_t>(in.front());
  in.remove_prefix(1);
  if (type < static_cast<uint8_t>(FrameType::kRecord) ||
      type > static_cast<uint8_t>(FrameType::kCheckpointMark)) {
    return Status::ExecutionError("replication frame has unknown type " +
                                  std::to_string(type));
  }
  ReplicationFrame frame;
  frame.type = static_cast<FrameType>(type);
  if (!ReadU64(&in, &frame.epoch) || !ReadU64(&in, &frame.seq) ||
      !ReadString(&in, &frame.body)) {
    return Status::ExecutionError("replication frame is truncated");
  }
  return frame;
}

// ---- Transport --------------------------------------------------------------

Result<ShipAck> InProcessTransport::Send(const ReplicationFrame& frame) {
  // Round-trip through the wire codec so every delivery exercises the
  // exact byte format a real link would carry.
  WFRM_ASSIGN_OR_RETURN(ReplicationFrame decoded,
                        DecodeFrame(EncodeFrame(frame)));
  return sink_->Deliver(decoded);
}

Result<ShipAck> FaultInjectingTransport::Send(const ReplicationFrame& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (partitioned_) {
    return Status::ResourceUnavailable("replication link partitioned");
  }
  core::MessageFault fault = faults_ != nullptr
                                 ? faults_->SampleMessageFault()
                                 : core::MessageFault::kNone;
  switch (fault) {
    case core::MessageFault::kDrop:
      ++dropped_;
      return Status::ResourceUnavailable("replication frame dropped "
                                         "(injected)");
    case core::MessageFault::kDuplicate: {
      ++duplicated_;
      Result<ShipAck> first = next_->Send(frame);
      if (!first.ok()) return first;
      // The second copy's ack is what the sender sees — models an ack
      // lost after a successful delivery, forcing a resend of something
      // already applied.
      return next_->Send(frame);
    }
    case core::MessageFault::kReorder:
      if (!held_) {
        ++reordered_;
        held_ = frame;
        // The sender sees a loss now; the held frame lands late, after
        // the next frame through, and its stale ack is discarded.
        return Status::ResourceUnavailable("replication frame held for "
                                           "reorder (injected)");
      }
      [[fallthrough]];
    case core::MessageFault::kNone:
      break;
  }
  Result<ShipAck> ack = next_->Send(frame);
  if (held_) {
    ReplicationFrame late = std::move(*held_);
    held_.reset();
    (void)next_->Send(late);  // Late delivery; ack discarded.
  }
  return ack;
}

void FaultInjectingTransport::SetPartitioned(bool partitioned) {
  std::lock_guard<std::mutex> lock(mu_);
  partitioned_ = partitioned;
}

bool FaultInjectingTransport::partitioned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitioned_;
}

size_t FaultInjectingTransport::frames_dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

size_t FaultInjectingTransport::frames_duplicated() const {
  std::lock_guard<std::mutex> lock(mu_);
  return duplicated_;
}

size_t FaultInjectingTransport::frames_reordered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reordered_;
}

// ---- WalShipper -------------------------------------------------------------

WalShipper::WalShipper(DurableResourceManager* primary,
                       ReplicationTransport* transport, uint64_t epoch,
                       WalShipperOptions options)
    : primary_(primary),
      transport_(transport),
      options_(std::move(options)),
      wal_path_(primary->dir() + "/wal.log"),
      epoch_(epoch) {
  if (options_.metrics != nullptr) {
    lag_records_gauge_ = options_.metrics->GetGauge(
        "wfrm_store_replication_lag_records", {},
        "Records journaled on the primary but not yet acked by the "
        "follower.");
    lag_bytes_gauge_ = options_.metrics->GetGauge(
        "wfrm_store_replication_lag_bytes", {},
        "Framed WAL bytes pending shipment to the follower.");
    epoch_gauge_ = options_.metrics->GetGauge(
        "wfrm_store_replication_epoch", {},
        "This primary's fencing epoch.");
    epoch_gauge_->Set(static_cast<int64_t>(epoch_));
  }
}

Status WalShipper::Pump() {
  std::lock_guard<std::mutex> lock(mu_);
  if (fenced_) {
    return Status::Degraded("shipper fenced at epoch " +
                            std::to_string(epoch_) +
                            ": a newer primary exists");
  }
  Status st = PumpLocked();
  UpdateGaugesLocked();
  return st;
}

Status WalShipper::PumpLocked() {
  size_t shipped = 0;
  if (catchup_) {
    WFRM_RETURN_NOT_OK(CatchupLocked(&shipped));
    if (catchup_) return Status::OK();  // Mid-stream; resume next pump.
  }

  if (!basis_probed_) {
    // First contact: a follower reporting a blank history cannot be
    // assumed to share this primary's seq-0 basis. A home written by
    // SaveWorld (or seeded by an earlier catch-up install) holds its
    // whole state in pages.db at seq 0 that no WAL record reproduces;
    // shipping records onto a blank follower would silently fork the
    // pair. Probe the follower's position and seed it via catch-up when
    // it has no history of its own.
    ReplicationFrame probe;
    probe.type = FrameType::kHeartbeat;
    probe.epoch = epoch_;
    probe.seq = acked_;
    ShipAck ack;
    WFRM_RETURN_NOT_OK(SendFrameLocked(probe, &ack));
    if (ack.last_applied == 0) {
      WFRM_RETURN_NOT_OK(StartCatchupLocked());
      WFRM_RETURN_NOT_OK(CatchupLocked(&shipped));
      if (catchup_) return Status::OK();
    } else {
      acked_ = std::max(acked_, ack.last_applied);
      basis_probed_ = true;
    }
  }

  WFRM_RETURN_NOT_OK(RefreshLocked());
  uint64_t target = primary_->last_seq();
  if (acked_ < target && pending_.find(acked_ + 1) == pending_.end()) {
    // The record the follower needs next is not in our window — either
    // we attached late or a checkpoint truncated it away. One full
    // rescan settles which.
    file_pos_ = 0;
    pending_.clear();
    WFRM_RETURN_NOT_OK(RefreshLocked());
    if (pending_.find(acked_ + 1) == pending_.end()) {
      WFRM_RETURN_NOT_OK(StartCatchupLocked());
      WFRM_RETURN_NOT_OK(CatchupLocked(&shipped));
      if (catchup_) return Status::OK();
      target = primary_->last_seq();
    }
  }

  while (acked_ < target) {
    auto it = pending_.find(acked_ + 1);
    if (it == pending_.end()) break;  // Sealed later; next pump ships it.
    if (options_.max_frames_per_pump != 0 &&
        shipped >= options_.max_frames_per_pump) {
      break;
    }
    ReplicationFrame frame;
    frame.type = FrameType::kRecord;
    frame.epoch = epoch_;
    frame.seq = it->first;
    frame.body = it->second.payload;
    ShipAck ack;
    WFRM_RETURN_NOT_OK(SendFrameLocked(frame, &ack));
    ++shipped;
    ++records_shipped_;
    if (ack.gap) {
      acked_ = ack.expected_seq == 0 ? 0 : ack.expected_seq - 1;
    } else {
      acked_ = std::max(acked_, ack.last_applied);
    }
    pending_.erase(pending_.begin(), pending_.upper_bound(acked_));
  }

  if (shipped == 0) {
    ReplicationFrame beat;
    beat.type = FrameType::kHeartbeat;
    beat.epoch = epoch_;
    beat.seq = acked_;
    ShipAck ack;
    WFRM_RETURN_NOT_OK(SendFrameLocked(beat, &ack));
    acked_ = std::max(acked_, ack.last_applied);
    pending_.erase(pending_.begin(), pending_.upper_bound(acked_));
  }

  // Fully caught up: probe for divergence at this checkpoint boundary.
  if (acked_ == primary_->last_seq() && acked_ != 0 &&
      acked_ != last_mark_seq_) {
    ReplicationFrame mark;
    mark.type = FrameType::kCheckpointMark;
    mark.epoch = epoch_;
    mark.seq = acked_;
    mark.body = primary_->StateFingerprint(/*include_deadlines=*/false);
    ShipAck ack;
    WFRM_RETURN_NOT_OK(SendFrameLocked(mark, &ack));
    last_mark_seq_ = acked_;
  }
  return Status::OK();
}

Status WalShipper::RefreshLocked() {
  int fd = ::open(wal_path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) return Status::OK();  // Nothing journaled yet.
    return Status::ExecutionError("cannot read " + wal_path_ + ": " +
                                  std::strerror(errno));
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    Status st = Status::ExecutionError("cannot seek " + wal_path_ + ": " +
                                       std::strerror(errno));
    ::close(fd);
    return st;
  }
  if (static_cast<uint64_t>(end) < file_pos_) {
    // A checkpoint truncated the log. Already-read records in pending_
    // stay valid (they were sealed before the snapshot); the cursor
    // restarts at the head.
    file_pos_ = 0;
  }
  std::string fresh;
  fresh.resize(static_cast<size_t>(end) - file_pos_);
  size_t got = 0;
  while (got < fresh.size()) {
    ssize_t n = ::pread(fd, fresh.data() + got, fresh.size() - got,
                        static_cast<off_t>(file_pos_ + got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      Status st = Status::ExecutionError("cannot read " + wal_path_ + ": " +
                                         std::strerror(errno));
      ::close(fd);
      return st;
    }
    if (n == 0) break;  // Racing a truncation; the scan handles the rest.
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  fresh.resize(got);

  WalScan scan = ScanWalBuffer(fresh);
  for (const std::string& payload : scan.payloads) {
    Result<Record> record = DecodeRecord(payload);
    if (!record.ok()) break;  // Treat like a torn tail: stop before it.
    if (record->seq > acked_) {
      PendingRecord pending;
      pending.payload = payload;
      pending.frame_bytes = payload.size() + 8;
      pending_[record->seq] = std::move(pending);
    }
    file_pos_ += payload.size() + 8;
  }
  return Status::OK();
}

Status WalShipper::StartCatchupLocked() {
  // The image is the primary's raw pages.db (the follower installs the
  // file directly); the chunked transfer below just ships bytes.
  WFRM_ASSIGN_OR_RETURN(DurableResourceManager::CatchupImage image,
                        primary_->CaptureCatchupImage());
  CatchupState state;
  state.last_seq = image.last_seq;
  state.bytes = std::move(image.bytes);
  catchup_ = std::move(state);
  return Status::OK();
}

Status WalShipper::CatchupLocked(size_t* shipped) {
  CatchupState& c = *catchup_;
  const size_t chunk_bytes = std::max<size_t>(1, options_.snapshot_chunk_bytes);
  const uint64_t chunk_count =
      (c.bytes.size() + chunk_bytes - 1) / chunk_bytes;

  ShipAck ack;
  if (!c.begun) {
    ReplicationFrame begin;
    begin.type = FrameType::kSnapshotBegin;
    begin.epoch = epoch_;
    begin.seq = c.last_seq;
    AppendU64(&begin.body, chunk_count);
    AppendU64(&begin.body, c.bytes.size());
    WFRM_RETURN_NOT_OK(SendFrameLocked(begin, &ack));
    c.begun = true;
    c.next_chunk = 0;
  }

  while (c.next_chunk < chunk_count) {
    ReplicationFrame chunk;
    chunk.type = FrameType::kSnapshotChunk;
    chunk.epoch = epoch_;
    chunk.seq = c.next_chunk;
    const size_t offset = c.next_chunk * chunk_bytes;
    chunk.body = c.bytes.substr(offset,
                                std::min(chunk_bytes, c.bytes.size() - offset));
    WFRM_RETURN_NOT_OK(SendFrameLocked(chunk, &ack));
    ++*shipped;
    ++snapshot_chunks_shipped_;
    if (ack.gap) {
      c.next_chunk = ack.expected_seq;
      if (ack.expected_seq == 0) {
        // The follower lost the stream entirely; reopen it next pump.
        c.begun = false;
        return Status::OK();
      }
    } else {
      c.next_chunk = ack.last_applied;
    }
  }

  ReplicationFrame end;
  end.type = FrameType::kSnapshotEnd;
  end.epoch = epoch_;
  end.seq = c.last_seq;
  WFRM_RETURN_NOT_OK(SendFrameLocked(end, &ack));
  if (ack.gap) {
    c.next_chunk = ack.expected_seq;
    if (ack.expected_seq == 0) c.begun = false;
    return Status::OK();
  }
  acked_ = std::max(acked_, ack.last_applied);
  pending_.erase(pending_.begin(), pending_.upper_bound(acked_));
  catchup_.reset();
  // A completed install means the follower now holds this primary's
  // exact state at the snapshot's seq — its basis is settled.
  basis_probed_ = true;
  return Status::OK();
}

Status WalShipper::SendFrameLocked(const ReplicationFrame& frame,
                                   ShipAck* ack) {
  Result<ShipAck> sent = transport_->Send(frame);
  if (!sent.ok()) {
    ++consecutive_failures_;
    if (!partitioned_ &&
        consecutive_failures_ >= options_.partition_after_failures) {
      partitioned_ = true;
      if (options_.degrade_primary_on_partition) {
        primary_->EnterDegraded(
            "replication link to the follower is partitioned");
      }
    }
    return sent.status();
  }
  consecutive_failures_ = 0;
  if (partitioned_) {
    partitioned_ = false;
    if (options_.degrade_primary_on_partition) primary_->ExitDegraded();
  }
  if (sent->stale_epoch || sent->epoch > epoch_) {
    fenced_ = true;
    return Status::Degraded(
        "shipper fenced: follower is at epoch " + std::to_string(sent->epoch) +
        ", this primary at " + std::to_string(epoch_));
  }
  if (sent->diverged) diverged_ = true;
  *ack = *sent;
  return Status::OK();
}

void WalShipper::UpdateGaugesLocked() {
  const uint64_t target = primary_->last_seq();
  const uint64_t lag = target > acked_ ? target - acked_ : 0;
  uint64_t lag_bytes = 0;
  for (const auto& [seq, rec] : pending_) {
    if (seq > acked_) lag_bytes += rec.frame_bytes;
  }
  if (lag_records_gauge_ != nullptr) {
    lag_records_gauge_->Set(static_cast<int64_t>(lag));
  }
  if (lag_bytes_gauge_ != nullptr) {
    lag_bytes_gauge_->Set(static_cast<int64_t>(lag_bytes));
  }
  if (epoch_gauge_ != nullptr) {
    epoch_gauge_->Set(static_cast<int64_t>(epoch_));
  }
}

uint64_t WalShipper::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

uint64_t WalShipper::acked_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return acked_;
}

uint64_t WalShipper::lag_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t target = primary_->last_seq();
  return target > acked_ ? target - acked_ : 0;
}

uint64_t WalShipper::lag_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [seq, rec] : pending_) {
    if (seq > acked_) total += rec.frame_bytes;
  }
  return total;
}

uint64_t WalShipper::records_shipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_shipped_;
}

uint64_t WalShipper::snapshot_chunks_shipped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_chunks_shipped_;
}

bool WalShipper::fenced() const {
  std::lock_guard<std::mutex> lock(mu_);
  return fenced_;
}

bool WalShipper::partitioned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitioned_;
}

bool WalShipper::divergence_detected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return diverged_;
}

// ---- ReplicaApplier ---------------------------------------------------------

ReplicaApplier::ReplicaApplier(DurableResourceManager* standby,
                               ReplicaApplierOptions options)
    : standby_(standby), options_(options) {}

ReplicaApplier::~ReplicaApplier() = default;

Result<std::unique_ptr<ReplicaApplier>> ReplicaApplier::Attach(
    DurableResourceManager* standby, ReplicaApplierOptions options) {
  std::unique_ptr<ReplicaApplier> applier(
      new ReplicaApplier(standby, options));
  Result<std::string> raw = ReadFileBytes(ReplicaMetaPath(standby->dir()));
  if (raw.ok()) {
    WalScan scan = ScanWalBuffer(*raw);
    std::string magic;
    uint64_t epoch = 0;
    std::string_view in =
        scan.payloads.empty() ? std::string_view() : scan.payloads.front();
    if (scan.torn_tail || scan.payloads.size() != 1 ||
        !ReadString(&in, &magic) || magic != kReplicaMetaMagic ||
        !ReadU64(&in, &epoch)) {
      return Status::ExecutionError(standby->dir() +
                                    "/replica.meta is damaged");
    }
    applier->epoch_ = epoch;
  } else if (raw.status().code() != StatusCode::kNotFound) {
    return raw.status();
  }
  standby->EnterStandby();
  return applier;
}

Status ReplicaApplier::PersistEpochLocked() {
  std::string payload;
  AppendString(&payload, kReplicaMetaMagic);
  AppendU64(&payload, epoch_);
  std::string bytes;
  AppendWalFrame(&bytes, payload);
  return WriteFileDurable(ReplicaMetaPath(standby_->dir()), bytes);
}

Result<ShipAck> ReplicaApplier::Deliver(const ReplicationFrame& frame) {
  std::lock_guard<std::mutex> lock(mu_);
  return DeliverLocked(frame);
}

Result<ShipAck> ReplicaApplier::DeliverLocked(const ReplicationFrame& frame) {
  ShipAck ack;
  // Epoch fencing first: a frame from the past must never mutate state,
  // whatever its type. A frame from the future means a newer primary —
  // adopt its epoch (persisting before any of its data applies), and if
  // this node had been promoted, re-subordinate it.
  if (frame.epoch < epoch_ || (promoted_ && frame.epoch == epoch_)) {
    ack.stale_epoch = true;
    ack.epoch = epoch_;
    ack.last_applied = standby_->last_seq();
    return ack;
  }
  if (frame.epoch > epoch_) {
    epoch_ = frame.epoch;
    WFRM_RETURN_NOT_OK(PersistEpochLocked());
    if (promoted_) {
      promoted_ = false;
      standby_->EnterStandby();
    }
  }
  ack.epoch = epoch_;

  switch (frame.type) {
    case FrameType::kHeartbeat:
      ack.last_applied = standby_->last_seq();
      break;
    case FrameType::kRecord: {
      const uint64_t last = standby_->last_seq();
      if (frame.seq <= last) {
        // Duplicate (resend after a lost ack, or a reordered stale
        // frame): already applied, just report the position.
        ack.last_applied = last;
        break;
      }
      if (frame.seq != last + 1) {
        ack.gap = true;
        ack.expected_seq = last + 1;
        ack.last_applied = last;
        break;
      }
      WFRM_ASSIGN_OR_RETURN(Record record, DecodeRecord(frame.body));
      record.seq = frame.seq;
      WFRM_RETURN_NOT_OK(standby_->ApplyReplicated(record));
      ack.last_applied = frame.seq;
      break;
    }
    case FrameType::kSnapshotBegin: {
      std::string_view in = frame.body;
      uint64_t chunk_count = 0;
      uint64_t total_bytes = 0;
      if (!ReadU64(&in, &chunk_count) || !ReadU64(&in, &total_bytes)) {
        return Status::ExecutionError("snapshot-begin frame is malformed");
      }
      snapshot_active_ = true;
      expected_chunks_ = chunk_count;
      chunks_received_ = 0;
      snapshot_bytes_.clear();
      snapshot_bytes_.reserve(total_bytes);
      ack.last_applied = 0;
      break;
    }
    case FrameType::kSnapshotChunk: {
      if (!snapshot_active_) {
        // Stream never opened here (the begin frame was lost): ask for
        // a restart from the top.
        ack.gap = true;
        ack.expected_seq = 0;
        break;
      }
      if (frame.seq != chunks_received_) {
        ack.gap = frame.seq > chunks_received_;
        ack.expected_seq = chunks_received_;
        ack.last_applied = chunks_received_;
        break;  // Duplicate chunk (seq < received) just re-acks position.
      }
      snapshot_bytes_ += frame.body;
      ++chunks_received_;
      ack.last_applied = chunks_received_;
      break;
    }
    case FrameType::kSnapshotEnd: {
      if (!snapshot_active_ || chunks_received_ != expected_chunks_) {
        ack.gap = true;
        ack.expected_seq = snapshot_active_ ? chunks_received_ : 0;
        ack.last_applied = chunks_received_;
        break;
      }
      // The image is the primary's raw pages.db. A failed install keeps
      // the received bytes: the shipper resends this end frame and the
      // install is retried.
      WFRM_RETURN_NOT_OK(standby_->InstallPagedImage(snapshot_bytes_));
      snapshot_active_ = false;
      snapshot_bytes_.clear();
      ack.last_applied = standby_->last_seq();
      break;
    }
    case FrameType::kCheckpointMark: {
      ack.last_applied = standby_->last_seq();
      if (options_.verify_fingerprints && frame.seq == ack.last_applied) {
        if (standby_->StateFingerprint(/*include_deadlines=*/false) !=
            frame.body) {
          diverged_ = true;
          ack.diverged = true;
        }
      }
      break;
    }
  }
  return ack;
}

Result<uint64_t> ReplicaApplier::Promote() {
  std::lock_guard<std::mutex> lock(mu_);
  if (promoted_) return epoch_;
  ++epoch_;
  // Persist the fence BEFORE serving a single write: if this node
  // crashed right after accepting writes at the new epoch but before
  // remembering it, a restart would accept the demoted primary's
  // frames again and fork history.
  WFRM_RETURN_NOT_OK(PersistEpochLocked());
  promoted_ = true;
  standby_->ExitStandby();
  return epoch_;
}

uint64_t ReplicaApplier::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

uint64_t ReplicaApplier::last_applied() const {
  return standby_->last_seq();
}

bool ReplicaApplier::promoted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return promoted_;
}

bool ReplicaApplier::diverged() const {
  std::lock_guard<std::mutex> lock(mu_);
  return diverged_;
}

}  // namespace wfrm::store
