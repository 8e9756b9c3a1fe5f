// Checkpoint store for horusd: the atomic persistence bundle a crashed or
// SIGKILL'd daemon restarts from.
//
// One checkpoint (an *epoch*) bundles four things that must describe the
// same instant: the graph snapshot (the binary, CRC-framed format of
// graph/graph_io.h), the serialized logical-clock table, every committed
// broker offset, and a copy of the inter stage's pending-pair WAL files. The service writes them while
// holding the pipeline's commit gate (Pipeline::quiesce_commits()), under
// which all four are mutually consistent: workers only mutate the graph,
// the WAL, and the offsets inside the gated flush+commit section.
//
// Atomicity: everything is written into `ckpt-<epoch>.tmp/`, the directory
// is renamed to `ckpt-<epoch>/`, and only then is MANIFEST.json replaced
// (itself via temp + rename) to point at the new epoch. A crash at any
// point leaves the previous manifest/epoch intact — restore never sees a
// torn checkpoint, only the last published one. Old epochs are garbage-
// collected after publish (keep_epochs retained).
//
// Why the WAL copy matters: the WAL file the pipeline keeps rewriting in
// wal_dir moves *forward* between the checkpoint and a crash — a pending
// pair half could be matched (and thus dropped from the live WAL) after the
// checkpointed offsets were taken. Re-feeding that newer WAL on restore
// would lose the pair: its first half is before the checkpointed offsets
// (not replayed) and no longer in the WAL. The copy frozen at gate time is
// the only WAL consistent with the checkpointed offsets.
//
// Segmented graphs: when the graph's store is segmented (graph/segment.h),
// the graph snapshot is written per segment instead of as one monolithic
// file — segments/seg-<id>.hseg for every sealed segment (an evicted
// segment's clean spill file is byte-copied, so cold segments never fault
// in just to checkpoint), segments/tail.hseg for the active tail, and
// graph_meta.json naming the boundaries. Restore streams the files in id
// order through the store's bulk install (GraphStore::Install), the path a
// graph.hgraph restore takes too, so both restore to identical stores, and
// reports the sealed boundaries so the service can re-adopt them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/execution_graph.h"
#include "core/logical_clocks.h"
#include "graph/segment.h"
#include "queue/broker.h"

namespace horus::service {

struct CheckpointOptions {
  std::string dir;      ///< checkpoint root (created on demand)
  int keep_epochs = 2;  ///< published epochs retained after GC
};

struct CheckpointInfo {
  std::uint64_t epoch = 0;
  std::string path;  ///< the published epoch directory
};

class CheckpointStore {
 public:
  explicit CheckpointStore(CheckpointOptions options);

  /// Writes and atomically publishes a new epoch. `clock_record` is the
  /// ClockTable::save() byte stream; `wal_dir` (may be empty/nonexistent)
  /// is scanned for `inter-*.wal` files to freeze into the bundle. Caller
  /// must hold the pipeline commit gate for the inputs to be consistent.
  CheckpointInfo write(const ExecutionGraph& graph,
                       const std::string& clock_record,
                       const std::vector<queue::Broker::CommittedOffset>& offsets,
                       const std::string& wal_dir);

  /// The last published epoch, or nullopt when no checkpoint exists (or the
  /// root does not). Throws HorusError on a corrupt manifest.
  [[nodiscard]] std::optional<CheckpointInfo> latest() const;

  struct Restored {
    std::uint64_t epoch = 0;
    ClockTable clocks;
    std::vector<queue::Broker::CommittedOffset> offsets;
    /// Sealed-segment boundaries (first node id, node count) of a segmented
    /// checkpoint, in id order; empty when the epoch was monolithic. The
    /// service hands these to SegmentManager::adopt_sealed so the restored
    /// incarnation's segment layout matches the checkpointed one exactly.
    std::vector<std::pair<graph::NodeId, std::uint32_t>> sealed_segments;
  };

  /// Loads the published epoch: the graph snapshot into `graph` (must be
  /// empty), the frozen WAL files into `wal_dir` (replacing whatever the
  /// dead incarnation left there), and returns clocks + offsets. Throws
  /// HorusError on any corruption (truncated snapshot, bad CRC, malformed
  /// offsets) and std::logic_error if no checkpoint exists — callers gate
  /// on latest().
  Restored restore(ExecutionGraph& graph, const std::string& wal_dir) const;

 private:
  CheckpointOptions options_;
  std::uint64_t next_epoch_ = 1;
};

}  // namespace horus::service
