// serve wire-protocol bodies as a seed corpus: every message kind the
// daemon and client exchange (a classify request under each defense
// scheme, ping both ways, an ok classify response with and without
// detectors, and each non-Ok status). Each body must re-encode to its own
// bytes, every truncation must throw ProtocolError, and every single-byte
// flip must either decode or throw ProtocolError: no other exception may
// escape the decoders, however the count fields are corrupted. Seeded
// mutants of the corpus (byte overwrites, inserts, deletes and splices
// between bodies) are held to the same rule.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mutation_fuzz.hpp"
#include "serve/protocol.hpp"

namespace adv::serve {
namespace {

using magnet::DefenseOutcome;
using magnet::DefenseScheme;

enum class Side { Request, Response };

struct CorpusBody {
  std::string name;
  Side side;
  std::vector<std::uint8_t> body;
};

void PrintTo(const CorpusBody& c, std::ostream* os) {
  *os << c.name << " (" << c.body.size() << " bytes)";
}

Tensor ramp(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  Tensor t({n, c, h, w});
  for (std::size_t i = 0; i < t.numel(); ++i) {
    t[i] = 0.03f * static_cast<float>(i);
  }
  return t;
}

DefenseOutcome outcome(std::size_t rows, std::size_t detectors) {
  DefenseOutcome out;
  for (std::size_t i = 0; i < rows; ++i) {
    out.rejected.push_back(i % 2 == 1);
    out.predicted.push_back(static_cast<int>((i * 7) % 10));
  }
  const char* names[] = {"recon_l1", "jsd_t10", "jsd_t40"};
  for (std::size_t d = 0; d < detectors; ++d) {
    magnet::DetectorReading r;
    r.name = names[d];
    r.threshold = 0.125f * static_cast<float>(d + 1);
    for (std::size_t i = 0; i < rows; ++i) {
      r.scores.push_back(0.1f + 0.25f * static_cast<float>(i + d));
    }
    out.readings.push_back(r);
  }
  return out;
}

std::vector<CorpusBody> corpus() {
  const auto req = Side::Request;
  const auto resp = Side::Response;
  return {
      {"classify_none_1x1x2x2", req,
       encode_classify_request(DefenseScheme::None, ramp(1, 1, 2, 2))},
      {"classify_detector_only_3x1x2x2", req,
       encode_classify_request(DefenseScheme::DetectorOnly,
                               ramp(3, 1, 2, 2), 1)},
      // A deadline above the u16 field is clamped to 65535 by the encoder.
      {"classify_reformer_only_1x3x2x2", req,
       encode_classify_request(DefenseScheme::ReformerOnly,
                               ramp(1, 3, 2, 2), 100000)},
      {"classify_full_2x1x4x4", req,
       encode_classify_request(DefenseScheme::Full, ramp(2, 1, 4, 4), 250)},
      {"ping_request", req, encode_ping_request()},
      {"ok_classify_3rows_2detectors", resp,
       encode_ok_response(MessageType::Classify, outcome(3, 2))},
      {"ok_classify_2rows_3detectors", resp,
       encode_ok_response(MessageType::Classify, outcome(2, 3))},
      {"ok_classify_1row_no_detectors", resp,
       encode_ok_response(MessageType::Classify, outcome(1, 0))},
      {"ok_ping", resp, encode_ok_response(MessageType::Ping, {})},
      {"error_classify", resp,
       encode_error_response(MessageType::Classify, "model load failed")},
      {"error_ping_empty_message", resp,
       encode_error_response(MessageType::Ping, "")},
      {"overloaded_classify", resp,
       encode_status_response(MessageType::Classify, Status::Overloaded,
                              "admission queue full")},
      {"deadline_exceeded_classify", resp,
       encode_status_response(MessageType::Classify,
                              Status::DeadlineExceeded, "expired in queue")},
  };
}

/// Decodes `body` with the decoder for `side` and encodes the result
/// again. Throws whatever the decoder throws.
std::vector<std::uint8_t> decode_and_reencode(
    Side side, std::span<const std::uint8_t> body) {
  if (side == Side::Request) {
    const Request r = decode_request(body);
    if (r.type == MessageType::Ping) return encode_ping_request();
    return encode_classify_request(r.scheme, r.batch, r.deadline_ms);
  }
  const ClassifyResponse r = decode_response(body);
  if (!r.ok) return encode_status_response(r.type, r.status, r.error);
  return encode_ok_response(r.type, r.outcome);
}

class ProtocolCorpusTest : public ::testing::TestWithParam<CorpusBody> {};

TEST_P(ProtocolCorpusTest, ReencodesToTheSameBytes) {
  const CorpusBody& c = GetParam();
  EXPECT_EQ(decode_and_reencode(c.side, c.body), c.body);
}

TEST_P(ProtocolCorpusTest, TruncationAtEveryByteThrowsProtocolError) {
  const CorpusBody& c = GetParam();
  for (std::size_t len = 0; len < c.body.size(); ++len) {
    EXPECT_THROW(decode_and_reencode(c.side, {c.body.data(), len}),
                 ProtocolError)
        << "prefix of " << len << "/" << c.body.size();
  }
}

TEST_P(ProtocolCorpusTest, EverySingleByteFlipDecodesOrThrowsProtocolError) {
  // A flipped byte may still be a valid body (a score, a label, the
  // deadline). What it may not do is escape as anything but a
  // ProtocolError, or decode to a value the encoder cannot write back.
  const CorpusBody& c = GetParam();
  for (std::size_t i = 0; i < c.body.size(); ++i) {
    std::vector<std::uint8_t> flipped = c.body;
    flipped[i] ^= 0xFF;
    try {
      const auto again = decode_and_reencode(c.side, flipped);
      EXPECT_NO_THROW(decode_and_reencode(c.side, again))
          << "flip of byte " << i << "/" << c.body.size();
    } catch (const ProtocolError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "flip of byte " << i << "/" << c.body.size()
                    << " threw " << e.what();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ProtocolCorpusTest, ::testing::ValuesIn(corpus()),
    [](const ::testing::TestParamInfo<CorpusBody>& info) {
      return info.param.name;
    });

/// Decodes `mutant` as a `side` body; a mutant that decodes must encode to
/// a body that decodes again. Any exception but ProtocolError fails.
void expect_decodes_or_protocol_error(Side side, const fuzz::Bytes& mutant,
                                      std::size_t index) {
  try {
    const auto again = decode_and_reencode(side, mutant);
    EXPECT_NO_THROW(decode_and_reencode(side, again)) << "mutant " << index;
  } catch (const ProtocolError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << "mutant " << index << " (" << mutant.size()
                  << " bytes) threw " << e.what();
  }
}

/// The corpus bodies of one side, as the fuzz seed.
std::vector<fuzz::Bytes> side_corpus(Side side) {
  std::vector<fuzz::Bytes> out;
  for (const CorpusBody& c : corpus()) {
    if (c.side == side) out.push_back(c.body);
  }
  return out;
}

class ProtocolFuzzTest : public ::testing::TestWithParam<fuzz::Mutation> {};

TEST_P(ProtocolFuzzTest, DecodeRequestMutantsDecodeOrThrowProtocolError) {
  const std::vector<fuzz::Bytes> seeds = side_corpus(Side::Request);
  Rng rng(fuzz::kSeed);
  for (std::size_t i = 0; i < fuzz::kMutants; ++i) {
    expect_decodes_or_protocol_error(
        Side::Request, fuzz::mutate(seeds, GetParam(), rng), i);
  }
}

TEST_P(ProtocolFuzzTest, DecodeResponseMutantsDecodeOrThrowProtocolError) {
  const std::vector<fuzz::Bytes> seeds = side_corpus(Side::Response);
  Rng rng(fuzz::kSeed);
  for (std::size_t i = 0; i < fuzz::kMutants; ++i) {
    expect_decodes_or_protocol_error(
        Side::Response, fuzz::mutate(seeds, GetParam(), rng), i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, ProtocolFuzzTest, ::testing::ValuesIn(fuzz::kAllMutations),
    [](const ::testing::TestParamInfo<fuzz::Mutation>& info) {
      return fuzz::name(info.param);
    });

/// The u32 length field holds bodies up to 2^32 - 1 bytes; one byte more
/// must throw rather than wrap to a zero-length frame.
TEST(FrameHeader, EncodesLengthAndRejectsBodiesPastU32) {
  const auto header = encode_frame_header(kResponseMagic, 300);
  std::uint32_t fields[3];
  std::memcpy(fields, header.data(), sizeof(fields));
  EXPECT_EQ(fields[0], kResponseMagic);
  EXPECT_EQ(fields[1], kProtocolVersion);
  EXPECT_EQ(fields[2], 300u);

  const std::size_t u32_max = std::numeric_limits<std::uint32_t>::max();
  std::memcpy(fields, encode_frame_header(kRequestMagic, u32_max).data(),
              sizeof(fields));
  EXPECT_EQ(fields[2], std::numeric_limits<std::uint32_t>::max());
  EXPECT_THROW(encode_frame_header(kRequestMagic, u32_max + 1),
               std::length_error);
}

}  // namespace
}  // namespace adv::serve
