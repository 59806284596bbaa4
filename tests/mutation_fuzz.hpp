// Seeded mutation fuzzing for the parsers that read untrusted bytes (the
// serve wire protocol, the tensor-file reader). Mutants are drawn from a
// seed corpus with a fixed seed and a fixed count, so every run checks the
// same inputs and a failure names a reproducible mutant index.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <vector>

#include "tensor/rng.hpp"

namespace adv::fuzz {

using Bytes = std::vector<std::uint8_t>;

enum class Mutation { Overwrite, Insert, Delete, Splice };

inline const char* name(Mutation m) {
  switch (m) {
    case Mutation::Overwrite: return "Overwrite";
    case Mutation::Insert: return "Insert";
    case Mutation::Delete: return "Delete";
    case Mutation::Splice: return "Splice";
  }
  return "?";
}

inline void PrintTo(Mutation m, std::ostream* os) { *os << name(m); }

inline const Mutation kAllMutations[] = {Mutation::Overwrite, Mutation::Insert,
                                         Mutation::Delete, Mutation::Splice};

/// Mutants per fuzz case, and the seed they are drawn with.
inline constexpr std::size_t kMutants = 2000;
inline constexpr std::uint64_t kSeed = 0xF022'5EEDu;

/// A byte for an overwrite or insert: a quarter of the draws take a
/// boundary value (0, 1, 0x3F, 0x7F, 0x80, 0xFF), which turn length and
/// count fields into 0, off-by-one and near-limit values far more often
/// than uniform bytes do.
inline std::uint8_t draw_byte(Rng& rng) {
  static constexpr std::uint8_t kBoundary[] = {0x00, 0x01, 0x3F,
                                               0x7F, 0x80, 0xFF};
  if (rng.uniform_index(4) == 0) {
    return kBoundary[rng.uniform_index(std::size(kBoundary))];
  }
  return static_cast<std::uint8_t>(rng.uniform_index(256));
}

/// One mutant of a body drawn from `corpus` (non-empty):
///   * Overwrite: 1 to 4 bytes replaced;
///   * Insert: 1 to 8 bytes inserted at any position, the end included;
///   * Delete: a run of 1 to 8 bytes removed;
///   * Splice: a prefix of one body joined to a suffix of another (or of
///     the same body), so the fields of one message meet another's.
inline Bytes mutate(const std::vector<Bytes>& corpus, Mutation kind,
                    Rng& rng) {
  Bytes out = corpus[rng.uniform_index(corpus.size())];
  switch (kind) {
    case Mutation::Overwrite:
      if (out.empty()) break;
      for (std::size_t k = 1 + rng.uniform_index(4); k-- > 0;) {
        out[rng.uniform_index(out.size())] = draw_byte(rng);
      }
      break;
    case Mutation::Insert: {
      const std::size_t at = rng.uniform_index(out.size() + 1);
      Bytes ins(1 + rng.uniform_index(8));
      for (std::uint8_t& b : ins) b = draw_byte(rng);
      out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), ins.begin(),
                 ins.end());
      break;
    }
    case Mutation::Delete: {
      if (out.empty()) break;
      const std::size_t at = rng.uniform_index(out.size());
      const std::size_t len =
          std::min(1 + rng.uniform_index(8), out.size() - at);
      out.erase(out.begin() + static_cast<std::ptrdiff_t>(at),
                out.begin() + static_cast<std::ptrdiff_t>(at + len));
      break;
    }
    case Mutation::Splice: {
      const Bytes& tail = corpus[rng.uniform_index(corpus.size())];
      out.resize(rng.uniform_index(out.size() + 1));
      const std::size_t from = rng.uniform_index(tail.size() + 1);
      out.insert(out.end(), tail.begin() + static_cast<std::ptrdiff_t>(from),
                 tail.end());
      break;
    }
  }
  return out;
}

}  // namespace adv::fuzz
