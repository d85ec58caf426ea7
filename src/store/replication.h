#ifndef WFRM_STORE_REPLICATION_H_
#define WFRM_STORE_REPLICATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/result.h"
#include "core/fault_injector.h"
#include "obs/metrics.h"
#include "store/durable_rm.h"
#include "store/record.h"
#include "store/snapshot.h"

namespace wfrm::store {

// ---- Wire frames ------------------------------------------------------------

/// What one replication frame carries (DESIGN.md §11). Every frame is
/// tagged with the sender's (epoch, seq): the epoch fences a demoted
/// primary, the seq drives gap detection and idempotent re-delivery.
enum class FrameType : uint8_t {
  /// One journaled Record; `seq` is the record's WAL sequence number and
  /// `body` its EncodeRecord payload — the exact bytes the primary
  /// journaled, so the follower's log stays byte-compatible.
  kRecord = 1,
  /// Keep-alive when the shipper has nothing to send; lets an idle link
  /// still discover fencing and lets lost acks heal (the ack carries the
  /// follower's last applied seq).
  kHeartbeat = 2,
  /// Snapshot catch-up opener; `seq` is the snapshot's last_seq, `body`
  /// holds (u64 chunk_count, u64 total_bytes).
  kSnapshotBegin = 3,
  /// One snapshot slice; `seq` is the chunk index (its own sequence
  /// space — acks report chunks received, so catch-up resumes mid-
  /// stream after a fault).
  kSnapshotChunk = 4,
  /// Closes the stream: the follower assembles, decodes and installs
  /// the snapshot atomically. `seq` is the snapshot's last_seq.
  kSnapshotEnd = 5,
  /// Divergence probe sent when the follower is fully caught up: `seq`
  /// is the seq both sides should be at, `body` the primary's state
  /// fingerprint (deadline-free; see store/fingerprint.h). A follower at
  /// the same seq with a different fingerprint acks `diverged`.
  kCheckpointMark = 6,
};

struct ReplicationFrame {
  FrameType type = FrameType::kHeartbeat;
  uint64_t epoch = 0;
  uint64_t seq = 0;
  std::string body;
};

/// Serializes a frame as one WAL-framed payload
/// (`u8 type | u64 epoch | u64 seq | string body` inside the standard
/// `[len][crc]` envelope) — what would cross a real wire. The in-process
/// transport round-trips through these bytes so the codec is exercised
/// on every delivery.
std::string EncodeFrame(const ReplicationFrame& frame);
Result<ReplicationFrame> DecodeFrame(std::string_view bytes);

/// The follower's reply to one frame.
struct ShipAck {
  /// The follower's current epoch (highest it has seen or adopted).
  uint64_t epoch = 0;
  /// Record frames: the follower's last applied WAL seq. Snapshot
  /// chunks: chunks received so far. The shipper advances to this.
  uint64_t last_applied = 0;
  /// The sender's epoch is behind the follower's: a newer primary
  /// exists. The sender must stop shipping (fence itself) — its history
  /// has forked.
  bool stale_epoch = false;
  /// Sequencing gap: the frame skipped ahead. `expected_seq` is what the
  /// follower needs next; the shipper rewinds there.
  bool gap = false;
  uint64_t expected_seq = 0;
  /// A checkpoint-mark fingerprint comparison failed: the two nodes hold
  /// different state at the same seq. Unrecoverable by shipping more —
  /// the follower needs a snapshot re-seed (or the bug fixed).
  bool diverged = false;
};

// ---- Transport --------------------------------------------------------------

/// Receiving side of the link (implemented by ReplicaApplier).
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  virtual Result<ShipAck> Deliver(const ReplicationFrame& frame) = 0;
};

/// Sending side. A transport either returns the follower's ack or an
/// error status (link down, frame lost); the shipper treats any error as
/// a retryable send failure.
class ReplicationTransport {
 public:
  virtual ~ReplicationTransport() = default;
  virtual Result<ShipAck> Send(const ReplicationFrame& frame) = 0;
};

/// Loss-free transport delivering straight to a sink in the same
/// process, round-tripping every frame through the wire codec.
class InProcessTransport : public ReplicationTransport {
 public:
  explicit InProcessTransport(FrameSink* sink) : sink_(sink) {}
  Result<ShipAck> Send(const ReplicationFrame& frame) override;

 private:
  FrameSink* sink_;
};

/// Chaos wrapper: seeded drops, duplicates and reorders drawn from a
/// core::FaultInjector (same philosophy as its query/resource faults —
/// one seed replays one fault schedule), plus an explicit partition
/// toggle that fails every send until healed.
class FaultInjectingTransport : public ReplicationTransport {
 public:
  /// `faults` may be null (no sampled faults; only the partition toggle).
  FaultInjectingTransport(ReplicationTransport* next,
                          core::FaultInjector* faults)
      : next_(next), faults_(faults) {}

  Result<ShipAck> Send(const ReplicationFrame& frame) override;

  void SetPartitioned(bool partitioned);
  bool partitioned() const;

  size_t frames_dropped() const;
  size_t frames_duplicated() const;
  size_t frames_reordered() const;

 private:
  mutable std::mutex mu_;
  ReplicationTransport* next_;
  core::FaultInjector* faults_;
  bool partitioned_ = false;
  /// Reorder buffer: a held frame is delivered *after* the next frame
  /// that passes through (its late ack is discarded — the sender already
  /// treated the hold as a loss and will resend, exercising dedup).
  std::optional<ReplicationFrame> held_;
  size_t dropped_ = 0;
  size_t duplicated_ = 0;
  size_t reordered_ = 0;
};

// ---- Primary side: WalShipper ----------------------------------------------

struct WalShipperOptions {
  /// Consecutive send failures before the link counts as partitioned.
  size_t partition_after_failures = 3;
  /// While partitioned, put the primary itself into degraded mode
  /// (mutations fail fast) — the strict setting for deployments that
  /// must never acknowledge a write the follower cannot have.
  bool degrade_primary_on_partition = false;
  /// Snapshot catch-up slice size.
  size_t snapshot_chunk_bytes = 1 << 16;
  /// Cap on record frames shipped per Pump() call; 0 = no cap.
  size_t max_frames_per_pump = 0;
  /// When set, registers wfrm_store_replication_{lag_records,lag_bytes,
  /// epoch} gauges.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Streams the primary's sealed WAL frames to one follower.
///
/// The shipper reads the primary's wal.log from disk (never through the
/// DurableResourceManager's mutation lock — the log file *is* the
/// replication stream), keeps a cursor past the last complete frame,
/// and ships every record above the follower's ack. A WAL truncation
/// (checkpoint) moves the cursor back to zero; records the truncation
/// erased that the follower still needs are shipped as a chunked
/// snapshot instead (resumable across faults). Pump() is incremental
/// and safe to call from a background loop or after each mutation.
class WalShipper {
 public:
  /// `epoch` is this primary's fencing epoch; a shipper for a freshly
  /// promoted node uses the epoch Promote() returned.
  WalShipper(DurableResourceManager* primary, ReplicationTransport* transport,
             uint64_t epoch, WalShipperOptions options = {});

  /// Ships whatever the follower is missing (records, or a snapshot when
  /// the WAL no longer reaches back far enough), then a heartbeat /
  /// checkpoint mark when idle. Returns the first send error (retryable
  /// — state is kept and the next Pump resumes), or kDegraded once
  /// fenced by a higher-epoch follower.
  Status Pump();

  uint64_t epoch() const;
  /// Last seq the follower confirmed applied.
  uint64_t acked_seq() const;
  /// Records journaled on the primary but not yet acked.
  uint64_t lag_records() const;
  uint64_t lag_bytes() const;
  /// Lifetime record frames delivered (acked) to the follower. A shard
  /// rebalance reads this (plus snapshot_chunks_shipped) to report how
  /// much state the catch-up moved.
  uint64_t records_shipped() const;
  /// Lifetime snapshot chunks delivered during catch-up streams.
  uint64_t snapshot_chunks_shipped() const;
  /// Latched after a stale-epoch ack: a newer primary exists and this
  /// node must never ship (or accept) another mutation from its old
  /// life.
  bool fenced() const;
  bool partitioned() const;
  /// A checkpoint mark came back `diverged`.
  bool divergence_detected() const;

 private:
  struct PendingRecord {
    std::string payload;
    size_t frame_bytes = 0;
  };
  struct CatchupState {
    std::string bytes;
    uint64_t last_seq = 0;
    bool begun = false;
    size_t next_chunk = 0;
  };

  Status PumpLocked();
  /// Reads newly sealed frames from wal.log into pending_.
  Status RefreshLocked();
  Status StartCatchupLocked();
  Status CatchupLocked(size_t* shipped);
  /// Sends one frame and folds the ack into shipper state (failure
  /// counting, partition latch, fencing, divergence).
  Status SendFrameLocked(const ReplicationFrame& frame, ShipAck* ack);
  void UpdateGaugesLocked();

  DurableResourceManager* primary_;
  ReplicationTransport* transport_;
  WalShipperOptions options_;
  std::string wal_path_;

  mutable std::mutex mu_;
  uint64_t epoch_;
  uint64_t acked_ = 0;
  uint64_t file_pos_ = 0;
  std::map<uint64_t, PendingRecord> pending_;
  std::optional<CatchupState> catchup_;
  /// First-contact probe done: a blank follower (last applied seq 0)
  /// does not necessarily share this primary's seq-0 basis (SaveWorld
  /// homes carry their whole state in pages.db at seq 0), so until the
  /// follower reports history of its own or completes a catch-up
  /// install, records must not ship.
  bool basis_probed_ = false;
  uint64_t last_mark_seq_ = 0;
  uint64_t records_shipped_ = 0;
  uint64_t snapshot_chunks_shipped_ = 0;
  size_t consecutive_failures_ = 0;
  bool partitioned_ = false;
  bool fenced_ = false;
  bool diverged_ = false;

  obs::Gauge* lag_records_gauge_ = nullptr;
  obs::Gauge* lag_bytes_gauge_ = nullptr;
  obs::Gauge* epoch_gauge_ = nullptr;
};

// ---- Follower side: ReplicaApplier -----------------------------------------

struct ReplicaApplierOptions {
  /// Compare checkpoint-mark fingerprints against local state.
  bool verify_fingerprints = true;
};

/// Feeds shipped frames into a standby DurableResourceManager through
/// the same deterministic replay path as crash recovery.
///
/// Attach() puts the store into standby (direct mutations fail with
/// kDegraded) and loads the persisted epoch from `dir`/replica.meta.
/// Delivery is idempotent: a duplicate record acks the current
/// position, a gap nacks with the expected seq, so the seeded fault
/// transport's drops/dups/reorders all converge. Promote() fences the
/// old primary — it bumps the epoch past everything seen, persists it
/// (tmp + rename + dir fsync) *before* the store accepts writes, and
/// every later frame from a lower epoch is rejected with `stale_epoch`.
class ReplicaApplier : public FrameSink {
 public:
  static Result<std::unique_ptr<ReplicaApplier>> Attach(
      DurableResourceManager* standby, ReplicaApplierOptions options = {});

  ~ReplicaApplier() override;

  Result<ShipAck> Deliver(const ReplicationFrame& frame) override;

  /// Fenced failover: returns the new epoch this node now serves under.
  Result<uint64_t> Promote();

  uint64_t epoch() const;
  uint64_t last_applied() const;
  bool promoted() const;
  /// A checkpoint mark did not match local state.
  bool diverged() const;

 private:
  ReplicaApplier(DurableResourceManager* standby,
                 ReplicaApplierOptions options);

  Status PersistEpochLocked();
  Result<ShipAck> DeliverLocked(const ReplicationFrame& frame);

  DurableResourceManager* standby_;
  ReplicaApplierOptions options_;

  mutable std::mutex mu_;
  uint64_t epoch_ = 0;
  bool promoted_ = false;
  bool diverged_ = false;
  /// Snapshot stream assembly.
  bool snapshot_active_ = false;
  uint64_t expected_chunks_ = 0;
  uint64_t chunks_received_ = 0;
  std::string snapshot_bytes_;
};

}  // namespace wfrm::store

#endif  // WFRM_STORE_REPLICATION_H_
