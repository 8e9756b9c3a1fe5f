// ClockTable suite (ctest label `clocks`): the HORUSVC1 record
// (restore-and-resume, typed version errors, mangled bytes, field
// validation) and span stability across incremental seals.
//
// Rows are compared value-for-value, not statistically: any divergence is a
// bug in the record codec or the arena bookkeeping.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "core/horus.h"
#include "core/logical_clocks.h"
#include "gen/synthetic.h"
#include "gen/topology.h"

namespace horus {
namespace {

std::unique_ptr<Horus> build(const std::vector<Event>& events) {
  auto horus = std::make_unique<Horus>();
  for (const Event& e : events) horus->ingest(e);
  horus->seal();
  return horus;
}

/// Cross-build equivalence: node ids and timeline interning order depend on
/// flush boundaries, so incremental-vs-one-shot comparisons must map through
/// event ids and key clock components by timeline *name*. Happens-before is
/// compared over every mapped pair.
void expect_equivalent_by_event(const ClockTable& ta, const ExecutionGraph& ga,
                                const ClockTable& tb, const ExecutionGraph& gb,
                                const std::vector<Event>& events) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> mapped;
  for (const Event& e : events) {
    const auto na = ga.node_of(e.id);
    const auto nb = gb.node_of(e.id);
    ASSERT_TRUE(na.has_value() && nb.has_value()) << "event " << value_of(e.id);
    mapped.emplace_back(*na, *nb);
    EXPECT_EQ(ta.lamport(*na), tb.lamport(*nb)) << "event " << value_of(e.id);
    ASSERT_GE(ta.timeline_of(*na), 0);
    ASSERT_GE(tb.timeline_of(*nb), 0);
    EXPECT_EQ(ta.timeline_name(ta.timeline_of(*na)),
              tb.timeline_name(tb.timeline_of(*nb)));
    EXPECT_EQ(ta.position(*na), tb.position(*nb)) << "event " << value_of(e.id);
    for (std::size_t t = 0; t < ta.timeline_count(); ++t) {
      const std::int32_t c = ta.vc_component(*na, static_cast<std::int32_t>(t));
      if (c == 0) continue;
      // Find the same timeline by name on the other side.
      std::int32_t other = -1;
      for (std::size_t u = 0; u < tb.timeline_count(); ++u) {
        if (tb.timeline_name(static_cast<std::int32_t>(u)) ==
            ta.timeline_name(static_cast<std::int32_t>(t))) {
          other = static_cast<std::int32_t>(u);
          break;
        }
      }
      ASSERT_GE(other, 0) << "timeline " << ta.timeline_name(
          static_cast<std::int32_t>(t)) << " missing on one side";
      EXPECT_EQ(c, tb.vc_component(*nb, other)) << "event " << value_of(e.id);
    }
  }
  for (const auto& [a1, b1] : mapped) {
    for (const auto& [a2, b2] : mapped) {
      ASSERT_EQ(ta.happens_before(a1, a2), tb.happens_before(b1, b2))
          << "a=" << a1 << " b=" << a2;
    }
  }
}

/// The saved HORUSVC1 record of a small flat build.
std::string saved_record(const ClockTable& clocks) {
  std::stringstream buf;
  clocks.save(buf);
  return buf.str();
}

/// Asserts that loading `frame` fails with plain HorusError (corruption),
/// not the typed ClockFormatError, and that the message contains `what` —
/// specific enough that a neighbouring check cannot stand in for the one
/// under test.
void expect_corrupt(const std::string& frame, const std::string& what) {
  std::istringstream in(frame);
  try {
    (void)ClockTable::load(in);
    FAIL() << "corrupt record accepted (expected: " << what << ")";
  } catch (const ClockFormatError& e) {
    FAIL() << "corruption misreported as a format-version error: "
           << e.what();
  } catch (const HorusError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

// -- HORUSVC1 record ----------------------------------------------------------

// A restored table resumes incrementally: new nodes appended after
// restore() get clocks identical to an uninterrupted run.
TEST(ClockFormatTest, RestoreResumesIncrementally) {
  const auto events = gen::random_execution(
      {.num_processes = 3, .events_per_process = 30, .seed = 55});
  const std::size_t half = events.size() / 2;

  ExecutionGraph graph;
  InterProcessEncoder inter(graph);
  IntraProcessEncoder intra(graph,
                            [&](Event e) { inter.on_event(std::move(e)); });
  LogicalClockAssigner first(graph);
  for (std::size_t i = 0; i < half; ++i) intra.on_event(events[i]);
  intra.flush();
  inter.flush();
  first.assign();

  std::stringstream buf;
  first.clocks().save(buf);
  LogicalClockAssigner resumed(graph);
  resumed.restore(ClockTable::load(buf));

  for (std::size_t i = half; i < events.size(); ++i) intra.on_event(events[i]);
  intra.flush();
  inter.flush();
  EXPECT_GT(resumed.assign(), 0u);

  // Reference: one uninterrupted pass over an equivalent graph (node ids
  // may differ across flush boundaries; compare through event ids).
  auto reference = build(events);
  ASSERT_EQ(graph.store().node_count(),
            reference->graph().store().node_count());
  expect_equivalent_by_event(reference->clocks(), reference->graph(),
                             resumed.clocks(), graph, events);
}

// A record of any other version — the retired sparse HORUSVC2 as much as a
// future one — must be rejected with the *typed* ClockFormatError: the
// restore path turns it into "unsupported format", not "corrupt
// checkpoint".
TEST(ClockFormatTest, UnknownVersionIsTypedError) {
  auto horus = build(gen::client_server_events({.num_events = 20}));
  const std::string frame = saved_record(horus->clocks());
  ASSERT_EQ(frame.substr(0, 8), "HORUSVC1");
  for (const char version : {'2', '9'}) {
    SCOPED_TRACE(std::string("version ") + version);
    std::string bad = frame;
    bad[7] = version;  // magic prefix intact, version unknown
    std::istringstream in(bad);
    EXPECT_THROW(
        {
          try {
            (void)ClockTable::load(in);
          } catch (const ClockFormatError& e) {
            EXPECT_NE(std::string(e.what()).find("version"),
                      std::string::npos);
            throw;
          }
        },
        ClockFormatError);
  }
}

TEST(ClockFormatTest, MangledBytesAreNotFormatErrors) {
  auto horus = build(gen::client_server_events({.num_events = 20}));
  const std::string frame = saved_record(horus->clocks());

  {  // bad magic: not a clock record at all
    std::string bad = frame;
    bad[0] = 'X';
    std::istringstream in(bad);
    try {
      (void)ClockTable::load(in);
      FAIL() << "bad magic accepted";
    } catch (const ClockFormatError&) {
      FAIL() << "bad magic misreported as a format-version error";
    } catch (const HorusError&) {
    }
  }
  {  // flipped payload byte: CRC mismatch, still plain HorusError
    std::string bad = frame;
    bad[frame.size() / 2] = static_cast<char>(bad[frame.size() / 2] ^ 0x5A);
    std::istringstream in(bad);
    try {
      (void)ClockTable::load(in);
      FAIL() << "corrupt payload accepted";
    } catch (const ClockFormatError&) {
      FAIL() << "CRC corruption misreported as a format-version error";
    } catch (const HorusError&) {
    }
  }
  {  // truncation
    std::istringstream in(frame.substr(0, frame.size() / 2));
    EXPECT_THROW((void)ClockTable::load(in), HorusError);
  }
}

// -- HORUSVC1 field validation ------------------------------------------------

// A CRC-valid record can still carry fields that contradict each other; a
// node loaded with position 0 would happen-before every assigned node, and
// repair() on a node with timeline -1 would index its VC with SIZE_MAX.
// Each case patches one field of a real record, re-stamps the CRC so only
// the field check can fire, and expects plain HorusError.
class ClockValidationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    horus_ = build(gen::client_server_events({.num_events = 40}));
    frame_ = saved_record(horus_->clocks());
    // Frame: magic[8] | u64 payload length | payload | u32 CRC. Payload:
    // u64 n | i64 lamport[n] | u64 arena | i32 arena[] | {u32 offset,
    // u32 len}[n] | i32 timeline[n] | i32 position[n] | u64 timelines |
    // {u32 name length, name, i32 size}[timelines].
    n_ = u64_at(16);
    arena_base_ = 24 + 8 * n_ + 8;
    slots_base_ = arena_base_ + 4 * u64_at(24 + 8 * n_);
    timelines_base_ = slots_base_ + 8 * n_;
    positions_base_ = timelines_base_ + 4 * n_;
    // A node deep in its timeline: both position bounds are interior.
    const ClockTable& clocks = horus_->clocks();
    for (graph::NodeId v = 0; v < n_; ++v) {
      if (clocks.assigned(v) && clocks.position(v) >= 2 &&
          clocks.timeline_of(v) >= 1) {
        node_ = v;
        break;
      }
    }
    ASSERT_NE(node_, graph::kNoNode);
    // The untouched record, re-stamped, must still load.
    std::istringstream in(restamped(frame_));
    EXPECT_NO_THROW((void)ClockTable::load(in));
  }

  /// Little-endian field of `width` bytes at byte offset `at`.
  [[nodiscard]] std::uint64_t field_at(std::size_t at,
                                       std::size_t width) const {
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i) {
      const auto byte = static_cast<unsigned char>(frame_[at + i]);
      v |= static_cast<std::uint64_t>(byte) << (8 * i);
    }
    return v;
  }
  [[nodiscard]] std::uint64_t u64_at(std::size_t at) const {
    return field_at(at, 8);
  }
  [[nodiscard]] std::int32_t i32_at(std::size_t at) const {
    return static_cast<std::int32_t>(field_at(at, 4));
  }

  /// `frame_` with the 32-bit field at `at` set to `value` and the CRC
  /// trailer recomputed.
  [[nodiscard]] std::string patched(std::size_t at, std::int32_t value) const {
    std::string bad = frame_;
    const auto u = static_cast<std::uint32_t>(value);
    for (int i = 0; i < 4; ++i) {
      bad[at + static_cast<std::size_t>(i)] =
          static_cast<char>((u >> (8 * i)) & 0xFFu);
    }
    return restamped(std::move(bad));
  }

  [[nodiscard]] static std::string restamped(std::string frame) {
    const std::uint32_t crc =
        crc32(std::string_view(frame).substr(16, frame.size() - 20));
    for (int i = 0; i < 4; ++i) {
      frame[frame.size() - 4 + static_cast<std::size_t>(i)] =
          static_cast<char>((crc >> (8 * i)) & 0xFFu);
    }
    return frame;
  }

  [[nodiscard]] std::size_t slot_offset_at(graph::NodeId v) const {
    return slots_base_ + 8 * v;
  }
  [[nodiscard]] std::size_t slot_len_at(graph::NodeId v) const {
    return slots_base_ + 8 * v + 4;
  }
  [[nodiscard]] std::size_t timeline_at(graph::NodeId v) const {
    return timelines_base_ + 4 * v;
  }
  [[nodiscard]] std::size_t position_at(graph::NodeId v) const {
    return positions_base_ + 4 * v;
  }
  /// Offset of timeline t's size field (after its length-prefixed name).
  [[nodiscard]] std::size_t timeline_size_at(std::int32_t t) const {
    std::size_t at = positions_base_ + 4 * n_ + 8;
    for (std::int32_t i = 0;; ++i) {
      at += 4 + static_cast<std::size_t>(i32_at(at));
      if (i == t) return at;
      at += 4;
    }
  }

  std::unique_ptr<Horus> horus_;
  std::string frame_;
  std::uint64_t n_ = 0;
  std::size_t arena_base_ = 0;
  std::size_t slots_base_ = 0;
  std::size_t timelines_base_ = 0;
  std::size_t positions_base_ = 0;
  graph::NodeId node_ = graph::kNoNode;
};

TEST_F(ClockValidationTest, TimelineOutsideTableIsCorrupt) {
  const auto timelines =
      static_cast<std::int32_t>(horus_->clocks().timeline_count());
  expect_corrupt(patched(timeline_at(node_), -1), "without timeline");
  expect_corrupt(patched(timeline_at(node_), timelines),
                 "timeline id out of range");
}

TEST_F(ClockValidationTest, PositionOutsideTimelineIsCorrupt) {
  const ClockTable& clocks = horus_->clocks();
  const std::int32_t t = clocks.timeline_of(node_);
  const std::int32_t size = i32_at(timeline_size_at(t));
  ASSERT_GE(size, clocks.position(node_));
  expect_corrupt(patched(position_at(node_), 0), "position outside");
  expect_corrupt(patched(position_at(node_), size + 1), "position outside");
}

TEST_F(ClockValidationTest, SlotShorterThanOwnTimelineIsCorrupt) {
  const std::int32_t t = horus_->clocks().timeline_of(node_);
  expect_corrupt(patched(slot_len_at(node_), t), "slot shorter");
}

TEST_F(ClockValidationTest, OwnComponentOtherThanPositionIsCorrupt) {
  const ClockTable& clocks = horus_->clocks();
  const std::int32_t t = clocks.timeline_of(node_);
  const auto slot = static_cast<std::size_t>(i32_at(slot_offset_at(node_)));
  const std::size_t own =
      arena_base_ + 4 * (slot + static_cast<std::size_t>(t));
  ASSERT_EQ(i32_at(own), clocks.position(node_));
  expect_corrupt(patched(own, clocks.position(node_) - 1), "own VC component");
}

TEST_F(ClockValidationTest, NegativeTimelineSizeIsCorrupt) {
  const std::int32_t t = horus_->clocks().timeline_of(node_);
  expect_corrupt(patched(timeline_size_at(t), -1), "negative timeline size");
}

// -- span stability -----------------------------------------------------------

// Reads interleaved with incremental seals must keep returning canonical
// values (each read re-derives its span; nothing may cache a pre-growth
// pointer internally). Under ASan this also proves assign() and repair()
// never hold a stale arena span across a push_back.
TEST(ClockSpanLifetimeTest, FlatReadsStableAcrossIncrementalSeals) {
  const auto events = gen::random_execution(
      {.num_processes = 4, .events_per_process = 30, .seed = 81});
  Horus horus;
  std::vector<std::string> first_seen;
  const std::size_t chunk = events.size() / 5;
  for (std::size_t i = 0; i < events.size(); ++i) {
    horus.ingest(events[i]);
    if ((i + 1) % chunk == 0 || i + 1 == events.size()) {
      horus.seal();
      const auto n = static_cast<graph::NodeId>(
          horus.graph().store().node_count());
      for (graph::NodeId v = 0; v < n; ++v) {
        const std::string s = horus.clocks().vc_string(v);
        if (static_cast<std::size_t>(v) < first_seen.size()) {
          EXPECT_EQ(first_seen[v], s) << "v=" << v;
        } else {
          first_seen.push_back(s);
        }
      }
    }
  }
}

}  // namespace
}  // namespace horus
