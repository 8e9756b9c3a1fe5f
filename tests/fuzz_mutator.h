// Seeded byte-level mutator shared by the fuzz suites: query text
// (query_fuzz_test) and the decoders of disk bytes (segment_fuzz_test:
// graph snapshots, segment spill files and HORUSVC1 clock tables). Each
// call applies one mutation drawn from `rng`, so a fixed seed replays the
// same mutant sequence on every run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace horus::fuzz {

/// One seeded mutation of `text`. Kinds: truncate, delete a span, duplicate
/// a span, swap two chunks, insert junk bytes (printable and not), flip a
/// byte.
inline std::string mutate(const std::string& text, std::mt19937_64& rng) {
  std::string out = text;
  std::uniform_int_distribution<int> kind_dist(0, 5);
  const auto pos_in = [&rng](std::size_t size) {
    return std::uniform_int_distribution<std::size_t>(0, size)(rng);
  };
  switch (kind_dist(rng)) {
    case 0: {  // truncate
      if (!out.empty()) out.resize(pos_in(out.size() - 1));
      break;
    }
    case 1: {  // delete a span
      if (!out.empty()) {
        const std::size_t at = pos_in(out.size() - 1);
        const std::size_t len = 1 + pos_in(7);
        out.erase(at, len);
      }
      break;
    }
    case 2: {  // duplicate a span
      if (!out.empty()) {
        const std::size_t at = pos_in(out.size() - 1);
        const std::size_t len = 1 + pos_in(15);
        out.insert(at, out.substr(at, len));
      }
      break;
    }
    case 3: {  // swap two chunks
      if (out.size() >= 8) {
        const std::size_t a = pos_in(out.size() / 2 - 1);
        const std::size_t b =
            out.size() / 2 + pos_in(out.size() / 2 - 4);
        const std::size_t len = 1 + pos_in(3);
        for (std::size_t i = 0; i < len && a + i < out.size() &&
                                b + i < out.size();
             ++i) {
          std::swap(out[a + i], out[b + i]);
        }
      }
      break;
    }
    case 4: {  // insert junk
      static const char junk[] = "()[]{}<>-*.,:'\"$%\\\0\xff\x01;";
      const std::size_t at = pos_in(out.size());
      const std::size_t len = 1 + pos_in(7);
      for (std::size_t i = 0; i < len; ++i) {
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at),
                   junk[pos_in(sizeof(junk) - 2)]);
      }
      break;
    }
    default: {  // flip a byte
      if (!out.empty()) {
        out[pos_in(out.size() - 1)] =
            static_cast<char>(pos_in(255));
      }
      break;
    }
  }
  return out;
}

/// Forges a large number in binary input: sets a random byte to 0xFF, or
/// inserts 1-4 bytes of 0xFF (a varint continuation, or the high bytes of a
/// little-endian length), so mutants reach the range checks on lengths,
/// counts and ids.
inline std::string widen_number(const std::string& bytes,
                                std::mt19937_64& rng) {
  std::string out = bytes;
  if (out.empty()) return out;
  const std::size_t at =
      std::uniform_int_distribution<std::size_t>(0, out.size() - 1)(rng);
  const std::size_t len = std::uniform_int_distribution<std::size_t>(0, 4)(rng);
  if (len == 0) {
    out[at] = '\xff';
  } else {
    out.insert(at, len, '\xff');
  }
  return out;
}

/// A seeded corpus of binary mutants of `seed_file`: each stacks 1-4
/// mutations, one in eight of them widen_number(), the rest mutate().
inline std::vector<std::string> binary_corpus(const std::string& seed_file,
                                              std::uint64_t seed, int count) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    std::string m = seed_file;
    const int stack = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < stack; ++k) {
      m = rng() % 8 == 0 ? widen_number(m, rng) : mutate(m, rng);
    }
    out.push_back(std::move(m));
  }
  return out;
}

}  // namespace horus::fuzz
