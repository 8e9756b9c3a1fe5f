// Logical-time assignment over the stored causal graph (Section V).
//
// Horus augments every event with:
//  - a Lamport logical clock LC, a scalar with  a -> b  =>  LC(a) < LC(b);
//    it is written into the node property `lamportLogicalTime`, which has an
//    ordered database index — LC range scans are the cheap first-stage
//    bound of every causal query;
//  - a Fidge/Mattern vector clock VC with  a -> b  <=>  VC(a) < VC(b); the
//    exact test used to prune the LC over-approximation. Vectors are kept in
//    an in-memory clock table (they are non-scalar and unsuitable for
//    database indexing, as the paper notes).
//
// Every VC is a dense int32 vector in one append-only arena: one component
// read answers Q1, and a VC comparison is a scan over two contiguous spans.
//
// Assignment is a Kahn-style topological traversal, *incremental* by
// design: each run resumes at the first unassigned node and only touches
// events added since the previous run — so the cost scales with the
// number of unprocessed events, not with the total graph size (the property
// measured in Figure 6).
//
// Correct incremental use requires the flush horizon discipline the pipeline
// enforces: when assign() runs, every edge incident to the events being
// assigned must already be persisted. Edges added later between
// already-assigned events would invalidate their clocks; reassign_all()
// recomputes from scratch for such offline scenarios, and repair() heals the
// forward closure of a late edge in place.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/error.h"
#include "core/execution_graph.h"

namespace horus {

/// A structurally valid clock-table record whose version this binary does
/// not support (e.g. a checkpoint written by another build). Distinct from
/// plain HorusError corruption so restore paths can report "unsupported
/// format" instead of "your checkpoint is damaged".
class ClockFormatError : public HorusError {
 public:
  using HorusError::HorusError;
};

/// Dense per-node clock storage, indexed by graph::NodeId.
class ClockTable {
 public:
  /// Lamport clock of a node (0 = not yet assigned).
  [[nodiscard]] std::int64_t lamport(graph::NodeId node) const {
    return node < lamport_.size() ? lamport_[node] : 0;
  }

  /// Vector clock of a node as a view into the arena. Component i
  /// corresponds to timeline i; the span may be shorter than the current
  /// timeline count (missing components are zero — timelines discovered
  /// later than the event's assignment). Valid until the next
  /// assign()/repair()/reassign_all(): consume it before the table is
  /// written again.
  [[nodiscard]] std::span<const std::int32_t> vc_span(
      graph::NodeId node) const {
    if (!assigned(node) || node >= vc_slots_.size()) return {};
    const VcSlot s = vc_slots_[node];
    return {vc_arena_.data() + s.offset, s.len};
  }

  /// Single component VC(node)[timeline] (0 when absent/unassigned).
  [[nodiscard]] std::int32_t vc_component(graph::NodeId node,
                                          std::int32_t timeline) const {
    if (timeline < 0) return 0;
    const auto vc = vc_span(node);
    return static_cast<std::size_t>(timeline) < vc.size()
               ? vc[static_cast<std::size_t>(timeline)]
               : 0;
  }

  /// Timeline index of a node (-1 if unassigned).
  [[nodiscard]] std::int32_t timeline_of(graph::NodeId node) const {
    return node < timeline_of_.size() ? timeline_of_[node] : -1;
  }

  /// 1-based position of the node within its timeline.
  [[nodiscard]] std::int32_t position(graph::NodeId node) const {
    return node < position_.size() ? position_[node] : 0;
  }

  [[nodiscard]] bool assigned(graph::NodeId node) const {
    return node < lamport_.size() && lamport_[node] != 0;
  }

  [[nodiscard]] std::size_t timeline_count() const {
    return timeline_names_.size();
  }

  /// Resident bytes of the VC store itself: the arena plus its slots.
  /// Shared bookkeeping (lamports, timeline/position columns) is excluded;
  /// the clock daemon exports this as the clock-bytes gauge and
  /// bench_clocks derives bytes/event from it.
  [[nodiscard]] std::size_t clock_bytes() const noexcept {
    return vc_arena_.size() * sizeof(std::int32_t) +
           vc_slots_.size() * sizeof(VcSlot);
  }

  [[nodiscard]] const std::string& timeline_name(std::int32_t index) const {
    return timeline_names_[static_cast<std::size_t>(index)];
  }

  /// O(1) happens-before test via the Fidge/Mattern property:
  /// a -> b  iff  VC(b)[timeline(a)] >= position(a), for a != b.
  [[nodiscard]] bool happens_before(graph::NodeId a, graph::NodeId b) const;

  /// Full vector comparison VC(a) < VC(b) (component-wise <=, somewhere <).
  /// Equivalent to happens_before(); kept for tests and for the paper's
  /// formulation of Q1.
  [[nodiscard]] bool vc_less(graph::NodeId a, graph::NodeId b) const;

  /// Renders a node's VC as "[c0,c1,...]" padded to the current timeline
  /// count (display/ShiViz export).
  [[nodiscard]] std::string vc_string(graph::NodeId node) const;

  /// Serializes the full table into a framed HORUSVC1 record (magic, length
  /// prefix, CRC-32 trailer). The format pairs with load(); the service
  /// checkpoint writes this next to the graph snapshot so a restarted
  /// daemon resumes incremental assignment instead of recomputing every
  /// clock.
  void save(std::ostream& out) const;

  /// Parses a record written by save(). Throws HorusError on a truncated,
  /// corrupt, or internally inconsistent record (bad magic, short read, CRC
  /// mismatch, slot pointing outside the arena, an assigned node whose
  /// timeline, position or own component contradicts the table), and
  /// ClockFormatError on a structurally sound record whose version digit is
  /// not 1.
  [[nodiscard]] static ClockTable load(std::istream& in);

 private:
  friend class LogicalClockAssigner;

  /// Offset/length of a node's clock inside the arena.
  struct VcSlot {
    std::uint32_t offset = 0;
    std::uint32_t len = 0;
  };

  std::vector<std::int64_t> lamport_;
  std::vector<std::int32_t> vc_arena_;  ///< all VCs, back to back
  std::vector<VcSlot> vc_slots_;
  std::vector<std::int32_t> timeline_of_;
  std::vector<std::int32_t> position_;
  std::vector<std::string> timeline_names_;
  std::unordered_map<std::string, std::int32_t, graph::StringHash,
                     std::equal_to<>>
      timeline_ids_;
  std::vector<std::int32_t> timeline_sizes_;  ///< events assigned per timeline
};

class LogicalClockAssigner {
 public:
  struct Options {
    /// Also write `lamportLogicalTime` into the graph store (feeding its
    /// ordered index). Disable only for throughput experiments that measure
    /// the traversal alone.
    bool write_lamport_property = true;
  };

  explicit LogicalClockAssigner(ExecutionGraph& graph)
      : LogicalClockAssigner(graph, Options{}) {}
  LogicalClockAssigner(ExecutionGraph& graph, Options options);

  /// Assigns clocks to every node added since the previous call (or to all
  /// nodes on the first call). Returns the number of newly assigned nodes.
  /// Each pass assigns every node below the node count it read, so the
  /// assigned nodes are always a prefix of the ids and the scan starts at
  /// the first unassigned one (assigned_prefix()).
  ///
  /// Throws std::logic_error if the unassigned region contains a cycle
  /// (which would mean the encoders produced a non-DAG).
  std::size_t assign();

  /// Drops all state and recomputes every clock from scratch.
  std::size_t reassign_all();

  /// Targeted heal for edges that landed after both endpoints were assigned
  /// (`dirty_roots` = the heads of the violated edges, as found by the clock
  /// daemon's audit). Recomputes Lamport and vector clocks for the forward
  /// causal closure of the roots only — new constraints can only *raise*
  /// clocks, and only downstream of the late edge, so every node outside the
  /// closure keeps its canonical value. Timelines and positions never change
  /// (they derive from per-timeline log order, which edges cannot alter).
  /// Returns the number of nodes recomputed.
  ///
  /// The closure walks out-edges of already-assigned nodes, which in a
  /// segmented store are the recently sealed / active segments — unlike
  /// reassign_all() it does not fault evicted segments back in.
  std::size_t repair(std::span<const graph::NodeId> dirty_roots);

  /// Replaces all assigner state with a table previously produced by
  /// ClockTable::save()/load(). The pool-id cache is invalidated (the
  /// restored table's timeline ids need not match the current store's
  /// interning order); the next assign() resumes incrementally from the
  /// restored frontier.
  void restore(ClockTable table);

  [[nodiscard]] const ClockTable& clocks() const noexcept { return table_; }

  /// Every node below this id has clocks: the end of the assigned prefix.
  [[nodiscard]] graph::NodeId assigned_prefix() const noexcept {
    return assigned_prefix_;
  }

 private:
  /// Table timeline id for a store-interned timeline pool id (interning the
  /// name on first sight). Pool ids are append-only, so the cache is stable.
  std::int32_t timeline_for_pool(std::uint32_t pool_id);

  /// Component-wise max of VC(pred) into the dense accumulator (resizing as
  /// needed) — the merge half of the Kahn recurrence.
  void merge_pred_vc(graph::NodeId pred, std::vector<std::int32_t>& acc) const;

  /// Appends `vc` to the arena as v's slot (assign path, and repair when
  /// the raised clock outgrew the old slot).
  void append_vc(graph::NodeId v, const std::vector<std::int32_t>& vc);

  ExecutionGraph& graph_;
  Options options_;
  ClockTable table_;
  std::vector<std::int32_t> timeline_of_pool_;  ///< pool id -> table id cache
  graph::NodeId assigned_prefix_ = 0;
};

}  // namespace horus
