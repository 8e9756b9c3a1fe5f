// Seeded byte-level mutator shared by the fuzz suites: query text
// (query_fuzz_test) and segment spill files (segment_fuzz_test). Each call
// applies one mutation drawn from `rng`, so a fixed seed replays the same
// mutant sequence on every run.
#pragma once

#include <cstddef>
#include <random>
#include <string>
#include <utility>

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

}  // namespace horus::fuzz
