// Fuzz suite for the segment-file decoder (ctest label `segments`).
//
// A real store writes a spill file; a seeded mutator (fuzz_mutator.h)
// derives thousands of corrupted copies from it — truncations, span
// deletions and duplications, chunk swaps, junk bytes, byte flips — and
// feeds each one to both decoders of segment bytes: read_segment_stream()
// and SegmentManager::reload(), which faults an evicted segment back in
// from its spill file. Every mutant is tried twice: raw, where the CRC-32
// trailer rejects almost everything, and with the trailer re-stamped, so
// the mutant reaches the JSON, header, key-table and node-record checks.
//
// The contract under test: a mutant either loads or throws
// SegmentCorruptError — never a crash, a hang or any other exception type.
// The asan preset runs this suite (label `segments`), so out-of-bounds reads
// in the decoder surface as hard failures.
#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "fuzz_mutator.h"
#include "graph/graph_store.h"
#include "graph/segment.h"
#include "scoped_temp_dir.h"

namespace horus::graph {
namespace {

constexpr SegmentId kTarget = 1;  // the evicted segment every mutant replaces

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Replaces the last line (the integrity trailer, or whatever the mutator
/// left there) with a trailer whose CRC matches the lines before it — the
/// same line-wise CRC the writer computes — so the mutant gets past the
/// checksum gate.
std::string restamp(const std::string& bytes) {
  std::istringstream in(bytes);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (!lines.empty()) lines.pop_back();
  std::string out;
  std::uint32_t crc = crc32_init();
  for (const std::string& line : lines) {
    crc = crc32_update(crc, line);
    crc = crc32_update(crc, "\n");
    out += line;
    out += '\n';
  }
  out += "{\"checksum\":" + std::to_string(crc32_final(crc)) + "}\n";
  return out;
}

/// A store with every property kind the spill format carries (declared
/// columns, interned strings, bag ints/doubles/bools/strings that need
/// escaping) and edges inside and across segments, with segment kTarget
/// evicted to its spill file.
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
      if (i % 5 == 0) props["message"] = std::string("tab\there {} []");
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
    ASSERT_GT(spill_.size(), 1000u);
  }

  ScopedTempDir dir_{"segment_fuzz"};
  GraphStore store_;
  SegmentManager* segments_ = nullptr;
  std::vector<PropertyList> original_;
  std::string spill_path_;
  std::string spill_;
};

/// Outcome tally of one decoder over a mutant corpus.
struct Tally {
  int loaded = 0;
  int rejected = 0;
  int rejected_past_crc = 0;  ///< rejected by a check after the CRC gate
};

void record_rejection(const SegmentCorruptError& e, Tally& tally) {
  ++tally.rejected;
  if (std::string(e.what()).find("checksum") == std::string::npos) {
    ++tally.rejected_past_crc;
  }
}

/// Seeded corpus: each mutant stacks 1-4 mutations of the real spill file.
std::vector<std::string> mutants(const std::string& seed_file,
                                 std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string m = seed_file;
    const int stack = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < stack; ++k) m = fuzz::mutate(m, rng);
    out.push_back(std::move(m));
  }
  return out;
}

TEST_F(SegmentFuzzTest, UnmutatedSpillLoadsThroughBothDecoders) {
  std::istringstream in(spill_);
  const ParsedSegmentFile parsed = read_segment_stream(in, "spill");
  EXPECT_EQ(parsed.segment, kTarget);
  EXPECT_EQ(parsed.count, 12u);
  std::istringstream again(restamp(spill_));
  EXPECT_EQ(read_segment_stream(again, "restamped").count, 12u);
  segments_->reload(kTarget);
  EXPECT_TRUE(segments_->is_resident(kTarget));
}

// Ids and counts are 32-bit in memory; a decoded value that does not fit is
// corruption, not something to truncate into a plausible small id.
TEST_F(SegmentFuzzTest, OutOfRangeIdsAreCorrupt) {
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string text = spill_;
    const auto at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos) text.replace(at, from.size(), to);
    return restamp(text);
  };
  // Each forged value is 2^32 more than the real one, so narrowing it to
  // 32 bits would silently give back the real value.
  for (const std::string& bytes :
       {replaced("\"nodes\":12", "\"nodes\":4294967308"),
        replaced("\"segment\":1", "\"segment\":4294967297"),
        replaced("\"out\":[[13,", "\"out\":[[4294967309,")}) {
    std::istringstream in(bytes);
    EXPECT_THROW((void)read_segment_stream(in, "forged"), SegmentCorruptError);
  }
}

TEST_F(SegmentFuzzTest, MutatedStreamsLoadOrFailTyped) {
  for (const bool restamped : {false, true}) {
    Tally tally;
    for (const std::string& raw : mutants(spill_, 0x5E6F, 2'000)) {
      const std::string bytes = restamped ? restamp(raw) : raw;
      std::istringstream in(bytes);
      try {
        (void)read_segment_stream(in, "mutant");
        ++tally.loaded;
      } catch (const SegmentCorruptError& e) {
        record_rejection(e, tally);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "untyped decoder error: " << e.what();
      }
    }
    SCOPED_TRACE(restamped ? "restamped" : "raw");
    EXPECT_GT(tally.rejected, 0);
    if (restamped) {
      // Not degenerate: mutants reach the structural checks, and some
      // (mutated string values, say) still decode.
      EXPECT_GT(tally.rejected_past_crc, 100);
      EXPECT_GT(tally.loaded, 0);
    }
  }
}

TEST_F(SegmentFuzzTest, MutatedSpillsReloadOrFailTyped) {
  for (const bool restamped : {false, true}) {
    Tally tally;
    for (const std::string& raw : mutants(spill_, 0xF11E, 600)) {
      write_bytes(spill_path_, restamped ? restamp(raw) : raw);
      try {
        segments_->reload(kTarget);
        ++tally.loaded;
        // The mutant's payload is in memory now; the spill is still marked
        // clean, so eviction drops it without rewriting the file.
        (void)segments_->evict(kTarget);
        ASSERT_FALSE(segments_->is_resident(kTarget));
      } catch (const SegmentCorruptError& e) {
        record_rejection(e, tally);
        ASSERT_FALSE(segments_->is_resident(kTarget));  // store unchanged
      } catch (const std::exception& e) {
        ADD_FAILURE() << "untyped reload error: " << e.what();
      }
    }
    SCOPED_TRACE(restamped ? "restamped" : "raw");
    EXPECT_GT(tally.rejected, 0);
    if (restamped) {
      EXPECT_GT(tally.rejected_past_crc, 0);
    }
  }
  EXPECT_EQ(store_.node_count(), original_.size());

  // The real spill still faults the segment back in exactly.
  write_bytes(spill_path_, spill_);
  segments_->reload(kTarget);
  for (NodeId n = 0; n < store_.node_count(); ++n) {
    EXPECT_EQ(store_.node_property_list(n), original_[n]) << "node " << n;
  }
}

}  // namespace
}  // namespace horus::graph
