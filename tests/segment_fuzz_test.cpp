// Fuzz suite for the decoders of disk bytes (ctest label `segments`): graph
// snapshots (graph::load_graph), segment files (read_segment_stream), spill
// reload (SegmentManager::reload) and HORUSVC1 clock tables
// (ClockTable::load).
//
// Real files are written first; a seeded mutator (fuzz_mutator.h) derives
// thousands of corrupted copies from each — truncations, span deletions and
// duplications, chunk swaps, junk bytes, byte flips, forged large numbers.
// Every mutant is tried twice: raw, where the CRCs reject almost
// everything, and re-stamped (every frame CRC and the trailer's frame chain
// recomputed, or the clock record's length and CRC), so the mutant reaches
// the structural, range and count checks.
//
// The contract under test: a mutant either loads or throws the decoder's
// typed error — HorusError for snapshots, SegmentCorruptError for segment
// files, HorusError or ClockFormatError for clock tables — and never
// crashes, hangs or asks for an allocation out of proportion to the file.
// The last is checked by a replaced operator new that refuses, and
// records, any request above a limit while a decode runs. The asan preset
// runs this suite, so out-of-bounds reads surface as hard failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iterator>
#include <memory>
#include <new>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/crc32.h"
#include "common/error.h"
#include "core/horus.h"
#include "core/logical_clocks.h"
#include "fuzz_mutator.h"
#include "gen/synthetic.h"
#include "graph/graph_io.h"
#include "graph/graph_store.h"
#include "graph/record_io.h"
#include "graph/segment.h"
#include "graph_file_bytes.h"
#include "scoped_temp_dir.h"

// ---- allocation probe --------------------------------------------------------

namespace {

std::atomic<std::size_t> g_alloc_limit{0};  ///< 0 = probe disarmed
std::atomic<std::size_t> g_largest_refused{0};

void* checked_alloc(std::size_t size) {
  const std::size_t limit = g_alloc_limit.load(std::memory_order_relaxed);
  if (limit != 0 && size > limit) {
    std::size_t seen = g_largest_refused.load(std::memory_order_relaxed);
    while (size > seen &&
           !g_largest_refused.compare_exchange_weak(seen, size)) {
    }
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// every form must allocate and free through the same pair.
void* operator new(std::size_t size) { return checked_alloc(size); }
void* operator new[](std::size_t size) { return checked_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return checked_alloc(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace horus::graph {
namespace {

using horus::testing::restamp;

/// Arms the probe for one decode of `file_bytes`: no single allocation may
/// exceed 16x the file or 256 KiB, whichever is larger. Legitimate decodes
/// of these small files stay far below; a forged length or count that is
/// trusted does not.
class AllocProbe {
 public:
  explicit AllocProbe(std::size_t file_bytes) {
    g_largest_refused.store(0);
    g_alloc_limit.store(std::max<std::size_t>(16 * file_bytes, 256u << 10));
  }
  ~AllocProbe() { g_alloc_limit.store(0); }
  AllocProbe(const AllocProbe&) = delete;
  AllocProbe& operator=(const AllocProbe&) = delete;

  /// The largest refused request so far (0 when none was refused).
  [[nodiscard]] static std::size_t refused() { return g_largest_refused.load(); }
};

constexpr SegmentId kTarget = 1;  // the evicted segment every mutant replaces

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Outcome tally of one decoder over a mutant corpus.
struct Tally {
  int loaded = 0;
  int rejected = 0;
  int rejected_past_crc = 0;  ///< rejected by a check after the CRC gate
};

void record_rejection(const std::exception& e, Tally& tally) {
  ++tally.rejected;
  const std::string what = e.what();
  if (what.find("checksum") == std::string::npos &&
      what.find("CRC") == std::string::npos) {
    ++tally.rejected_past_crc;
  }
}

/// Runs `decode` on every mutant of `seed_file`, raw and re-stamped with
/// `stamp`, and checks the contract. `Typed` is the error a mutant may
/// raise. Returns the re-stamped tally.
template <typename Typed, typename Stamp, typename Decode>
Tally fuzz_decoder(const std::string& seed_file, std::uint64_t seed, int count,
                   Stamp stamp, Decode decode) {
  Tally stamped_tally;
  for (const bool stamped : {false, true}) {
    SCOPED_TRACE(stamped ? "re-stamped" : "raw");
    Tally tally;
    int index = 0;
    for (const std::string& raw : fuzz::binary_corpus(seed_file, seed, count)) {
      const std::string bytes = stamped ? stamp(raw) : raw;
      try {
        const AllocProbe probe(bytes.size());
        decode(bytes);
        ++tally.loaded;
      } catch (const Typed& e) {
        record_rejection(e, tally);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << index << ": untyped error: " << e.what();
      }
      EXPECT_EQ(AllocProbe::refused(), 0u)
          << "mutant " << index << " asked for " << AllocProbe::refused()
          << " bytes (file: " << bytes.size() << ")";
      ++index;
    }
    EXPECT_GT(tally.rejected, 0);
    if (stamped) stamped_tally = tally;
  }
  return stamped_tally;
}

// ---- segment files -----------------------------------------------------------

/// A store with every property kind the spill format carries (declared
/// columns, interned strings, bag ints/doubles/bools/strings with quotes,
/// newlines and NULs) and edges inside and across segments, with segment
/// kTarget evicted to its spill file.
class SegmentFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    store_.declare_column("lamportLogicalTime");
    store_.declare_interned_column("host");
    SegmentOptions options;
    options.nodes_per_segment = 12;
    options.shard_count = 2;
    options.spill_dir = dir_.str();
    options.auto_evict = false;
    segments_ = &store_.enable_segments(options);
    for (int i = 0; i < 40; ++i) {
      PropertyMap props;
      props["lamportLogicalTime"] = std::int64_t{i};
      props["host"] = std::string(i % 3 == 0 ? "alpha" : "beta \"b\"\n");
      props["ratio"] = 0.25 * i;
      props["ok"] = i % 2 == 0;
      if (i % 5 == 0) props["message"] = std::string("tab\there {} [] \0", 17);
      store_.add_node(i % 4 == 0 ? "SND" : "LOG", std::move(props));
      const auto v = static_cast<NodeId>(i);
      if (i > 0) store_.add_edge(v - 1, v, "HB");
      if (i >= 7) store_.add_edge(v - 7, v, "XHB");
    }
    for (NodeId n = 0; n < store_.node_count(); ++n) {
      original_.push_back(store_.node_property_list(n));
    }
    ASSERT_GT(segments_->evict(kTarget), 0u);
    spill_path_ = dir_.str() + "/seg-" + std::to_string(kTarget) + ".hseg";
    spill_ = read_bytes(spill_path_);
    ASSERT_GT(spill_.size(), 400u);
  }

  ScopedTempDir dir_{"segment_fuzz"};
  GraphStore store_;
  SegmentManager* segments_ = nullptr;
  std::vector<PropertyList> original_;
  std::string spill_path_;
  std::string spill_;
};

TEST_F(SegmentFuzzTest, UnmutatedSpillLoadsThroughBothDecoders) {
  std::istringstream in(spill_);
  const ParsedSegmentFile parsed = read_segment_stream(in, "spill");
  EXPECT_EQ(parsed.segment, kTarget);
  EXPECT_EQ(parsed.count, 12u);
  EXPECT_EQ(restamp(spill_), spill_);
  segments_->reload(kTarget);
  EXPECT_TRUE(segments_->is_resident(kTarget));
}

// Ids and counts are 32-bit in memory; a decoded value that does not fit is
// corruption, not something to truncate into a plausible small id. Each
// forged value is 2^32 more than the real one, so narrowing it to 32 bits
// would silently give back the real value.
TEST_F(SegmentFuzzTest, OutOfRangeIdsAreCorrupt) {
  using horus::testing::field_offset;
  using horus::testing::first_frame;
  using horus::testing::varint_at;
  const std::uint64_t wide = std::uint64_t{1} << 32;
  const auto header = first_frame(spill_, 'H');
  const auto adjacency = first_frame(spill_, 'A');
  // Header fields 1-3: segment id, first node, node count; adjacency field
  // 1: node 12's first out-edge peer (13).
  for (const auto& [frame, field, real] :
       {std::tuple{header, 1, 1u}, std::tuple{header, 2, 12u},
        std::tuple{header, 3, 12u}, std::tuple{adjacency, 1, 13u}}) {
    const std::size_t at = field_offset(spill_, frame, field);
    ASSERT_EQ(varint_at(spill_, at), real) << "field " << field;
    {
      std::istringstream in(horus::testing::with_varint(spill_, frame, at, real));
      EXPECT_NO_THROW((void)read_segment_stream(in, "unforged"));
    }
    std::istringstream in(
        horus::testing::with_varint(spill_, frame, at, wide + real));
    EXPECT_THROW((void)read_segment_stream(in, "forged"), SegmentCorruptError)
        << "field " << field;
  }
}

TEST_F(SegmentFuzzTest, MutatedStreamsLoadOrFailTyped) {
  const Tally stamped = fuzz_decoder<SegmentCorruptError>(
      spill_, 0x5E6F, 2'000, restamp, [](const std::string& bytes) {
        std::istringstream in(bytes);
        (void)read_segment_stream(in, "mutant");
      });
  // Not degenerate: mutants reach the structural checks, and some
  // (mutated string values, say) still decode.
  EXPECT_GT(stamped.rejected_past_crc, 100);
  EXPECT_GT(stamped.loaded, 0);
}

TEST_F(SegmentFuzzTest, MutatedSpillsReloadOrFailTyped) {
  const Tally stamped = fuzz_decoder<SegmentCorruptError>(
      spill_, 0xF11E, 600, restamp, [this](const std::string& bytes) {
        write_bytes(spill_path_, bytes);
        try {
          segments_->reload(kTarget);
        } catch (const SegmentCorruptError&) {
          ASSERT_FALSE(segments_->is_resident(kTarget));  // store unchanged
          throw;
        }
        // The mutant's payload is in memory now; the spill is still marked
        // clean, so eviction drops it without rewriting the file.
        (void)segments_->evict(kTarget);
        ASSERT_FALSE(segments_->is_resident(kTarget));
      });
  EXPECT_GT(stamped.rejected_past_crc, 0);
  EXPECT_EQ(store_.node_count(), original_.size());

  // The real spill still faults the segment back in exactly.
  write_bytes(spill_path_, spill_);
  segments_->reload(kTarget);
  for (NodeId n = 0; n < store_.node_count(); ++n) {
    EXPECT_EQ(store_.node_property_list(n), original_[n]) << "node " << n;
  }
}

// ---- snapshots -----------------------------------------------------------------

/// A small execution graph (the store layout every snapshot loader sees:
/// ExecutionGraph's declared columns) saved as a snapshot.
/// A sealed Horus instance over a small random execution.
std::unique_ptr<Horus> random_run(int processes, int events_per_process,
                                  std::uint64_t seed) {
  auto run = std::make_unique<Horus>();
  gen::RandomExecutionOptions options;
  options.num_processes = processes;
  options.events_per_process = events_per_process;
  options.seed = seed;
  for (Event& e : gen::random_execution(options)) run->ingest(std::move(e));
  run->seal();
  return run;
}

std::string execution_snapshot() {
  std::ostringstream out;
  graph::save_graph(random_run(3, 12, 5)->graph().store(), out);
  return out.str();
}

TEST(SnapshotFuzzTest, MutatedSnapshotsLoadOrFailTyped) {
  const std::string snapshot = execution_snapshot();
  {
    ExecutionGraph target;
    std::istringstream in(snapshot);
    graph::load_graph(target.store(), in);
    ASSERT_GE(target.store().node_count(), 30u);
  }
  const Tally stamped = fuzz_decoder<HorusError>(
      snapshot, 0x54A9, 1'500, restamp, [](const std::string& bytes) {
        ExecutionGraph target;  // declared columns reject mistyped values
        std::istringstream in(bytes);
        graph::load_graph(target.store(), in);
      });
  EXPECT_GT(stamped.rejected_past_crc, 100);
  EXPECT_GT(stamped.loaded, 0);
}

/// A stream that cannot seek, so the reader cannot learn its size up front.
class ForwardOnlyBuf : public std::streambuf {
 public:
  explicit ForwardOnlyBuf(std::string data) : data_(std::move(data)) {
    setg(data_.data(), data_.data(), data_.data() + data_.size());
  }

 private:
  std::string data_;
};

TEST(SnapshotFuzzTest, LengthPastTheEndFailsBeforeAllocating) {
  const std::string snapshot = execution_snapshot();
  const auto nodes = horus::testing::first_frame(snapshot, 'N');
  ASSERT_GT(nodes.len, 0u);
  std::string forged = snapshot;
  horus::testing::set_le_u32(forged, nodes.start, 60u << 20);  // 60 MiB
  {
    std::istringstream in(forged);
    ExecutionGraph target;
    const AllocProbe probe(forged.size());
    try {
      graph::load_graph(target.store(), in);
      ADD_FAILURE() << "forged length loaded";
    } catch (const HorusError& e) {
      EXPECT_NE(std::string(e.what()).find("past the end of the file"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(AllocProbe::refused(), 0u);
  }
  {
    // Unseekable: the payload is read in chunks, so the allocation follows
    // the bytes that actually arrive.
    ForwardOnlyBuf buf(forged);
    std::istream in(&buf);
    ExecutionGraph target;
    const AllocProbe probe(forged.size());
    try {
      graph::load_graph(target.store(), in);
      ADD_FAILURE() << "forged length loaded";
    } catch (const HorusError& e) {
      EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(AllocProbe::refused(), 0u);
  }
}

// A forged count the CRCs do not catch (every frame re-stamped) must fail
// typed before anything is reserved for it: the header's node count
// (2^31) and the first out-list's entry count, through both file kinds.
TEST(SnapshotFuzzTest, ForgedCountsFailBeforeReserving) {
  using horus::testing::field_offset;
  using horus::testing::first_frame;
  using horus::testing::with_varint;
  const std::uint64_t forged = std::uint64_t{1} << 31;
  const auto forge = [&](const std::string& bytes) {
    const auto header = first_frame(bytes, 'H');
    const auto adjacency = first_frame(bytes, 'A');
    return std::vector<std::string>{
        with_varint(bytes, header, field_offset(bytes, header, 3), forged),
        with_varint(bytes, adjacency, field_offset(bytes, adjacency, 0),
                    forged)};
  };
  for (const std::string& bytes : forge(execution_snapshot())) {
    ExecutionGraph target;
    std::istringstream in(bytes);
    const AllocProbe probe(bytes.size());
    EXPECT_THROW(graph::load_graph(target.store(), in), HorusError);
    EXPECT_EQ(AllocProbe::refused(), 0u);
  }
  // A segment file of the same execution, read as a checkpoint restore
  // reads it: through the bulk install.
  const auto run = random_run(3, 12, 5);
  GraphStore store;
  for (NodeId v = 0; v < run->graph().store().node_count(); ++v) {
    store.add_node(run->graph().store().node_label(v),
                   run->graph().store().node_properties(v));
  }
  for (NodeId v = 0; v < run->graph().store().node_count(); ++v) {
    for (const Edge& e : run->graph().store().out_edges(v)) {
      store.add_edge(v, e.to, run->graph().store().edge_type_name(e.type));
    }
  }
  const ScopedTempDir dir("forged_counts");
  SegmentOptions options;
  options.nodes_per_segment = 1'000;
  SegmentManager& segments = store.enable_segments(options);
  const std::string path = dir.file("tail.hseg");
  segments.write_segment_file(0, path);
  for (const std::string& bytes : forge(read_bytes(path))) {
    {
      std::istringstream in(bytes);
      const AllocProbe probe(bytes.size());
      EXPECT_THROW((void)read_segment_stream(in, "forged"),
                   SegmentCorruptError);
      EXPECT_EQ(AllocProbe::refused(), 0u);
    }
    GraphStore target;
    std::istringstream in(bytes);
    const AllocProbe probe(bytes.size());
    EXPECT_THROW(
        {
          GraphStore::Install install(target);
          GraphFileReader reader(in, "forged", GraphFileKind::kSegment);
          install.file(reader);
          install.finish();
        },
        SegmentCorruptError);
    EXPECT_EQ(AllocProbe::refused(), 0u);
  }
}

// ---- HORUSVC1 clock tables ---------------------------------------------------------

/// Clock record layout: 8-byte magic, u64 payload length, payload, CRC-32.
constexpr std::size_t kClockHeader = 16;

/// Recomputes the length prefix and CRC of a clock record around whatever
/// payload the mutant left between the header and the last four bytes.
std::string restamp_clock(std::string bytes) {
  if (bytes.size() < kClockHeader + 4) return bytes;
  const std::uint64_t len = bytes.size() - kClockHeader - 4;
  for (int i = 0; i < 8; ++i) {
    bytes[8 + i] = static_cast<char>((len >> (8 * i)) & 0xFFu);
  }
  const std::uint32_t crc =
      crc32(std::string_view(bytes).substr(kClockHeader, len));
  horus::testing::set_le_u32(bytes, bytes.size() - 4, crc);
  return bytes;
}

std::string clock_record() {
  std::ostringstream out;
  random_run(4, 10, 9)->clocks().save(out);
  return out.str();
}

TEST(ClockTableFuzzTest, MutatedClockTablesLoadOrFailTyped) {
  const std::string record = clock_record();
  ASSERT_EQ(restamp_clock(record), record);
  const Tally stamped = fuzz_decoder<HorusError>(
      record, 0xC10C, 1'500, restamp_clock, [](const std::string& bytes) {
        std::istringstream in(bytes);
        (void)ClockTable::load(in);
      });
  EXPECT_GT(stamped.rejected_past_crc, 100);
}

// A forged length or count must fail before the decoder allocates for it.
TEST(ClockTableFuzzTest, ForgedCountsAllocateNoMoreThanTheFile) {
  const std::string record = clock_record();
  const auto set_u64 = [](std::string bytes, std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + i] = static_cast<char>((v >> (8 * i)) & 0xFFu);
    }
    return bytes;
  };
  const std::vector<std::string> forged = {
      // The payload length: nothing to re-stamp, the record is too short.
      set_u64(record, 8, std::uint64_t{1} << 35),
      // The node count, first field of the payload, CRC re-stamped.
      restamp_clock(set_u64(record, kClockHeader, std::uint64_t{1} << 40)),
  };
  for (const std::string& bytes : forged) {
    std::istringstream in(bytes);
    const AllocProbe probe(bytes.size());
    EXPECT_THROW((void)ClockTable::load(in), HorusError);
    EXPECT_EQ(AllocProbe::refused(), 0u);
  }
}

}  // namespace
}  // namespace horus::graph
