// Tensor serialization round trips and failure modes: the v2 corruption
// matrix (truncation at every byte, single-byte flips in every section),
// v1 legacy compatibility, atomic writes, injected write faults, and
// seeded mutants of v2 streams and v2/v1 files, which must load or throw
// std::runtime_error.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "fault/failpoint.hpp"
#include "mutation_fuzz.hpp"
#include "tensor/rng.hpp"
#include "tensor/serialize.hpp"
#include "tensor/tensor_ops.hpp"

namespace adv {
namespace {

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::reset();
    // Per-test dir: ctest runs each test in its own process, so a shared
    // path would let one test's TearDown remove_all another's files.
    // Parameterized names ("Case/Param") stay one path component.
    std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(name.begin(), name.end(), '/', '_');
    dir_ = std::filesystem::temp_directory_path() /
           ("adv_serialize_test_" + name);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    fault::reset();
    std::filesystem::remove_all(dir_);
  }

  std::vector<char> read_bytes(const std::filesystem::path& p) {
    std::ifstream is(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
  }

  void write_bytes(const std::filesystem::path& p,
                   const std::vector<char>& bytes) {
    std::ofstream os(p, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // Expects load_tensors(p) to throw a runtime_error mentioning `what`.
  void expect_load_error(const std::filesystem::path& p, const char* what) {
    try {
      load_tensors(p);
      FAIL() << "expected load of " << p << " to throw (" << what << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << "got: " << e.what();
    }
  }

  std::filesystem::path dir_;
};

TEST_F(SerializeTest, RoundTripPreservesShapesAndValues) {
  Rng rng(5);
  Tensor a({3, 4, 5});
  Tensor b({7});
  Tensor c({2, 1, 8, 8});
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  fill_normal(c, rng, 0.0f, 1.0f);
  const auto path = dir_ / "trip.bin";
  save_tensors(path, {a, b, c});
  const auto loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].shape(), a.shape());
  EXPECT_EQ(loaded[1].shape(), b.shape());
  EXPECT_EQ(loaded[2].shape(), c.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) {
    EXPECT_FLOAT_EQ(loaded[0][i], a[i]);
  }
  for (std::size_t i = 0; i < c.numel(); ++i) {
    EXPECT_FLOAT_EQ(loaded[2][i], c[i]);
  }
}

TEST_F(SerializeTest, EmptyCollectionRoundTrips) {
  const auto path = dir_ / "empty.bin";
  save_tensors(path, {});
  EXPECT_TRUE(load_tensors(path).empty());
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_tensors(dir_ / "nonexistent.bin"), std::runtime_error);
}

TEST_F(SerializeTest, BadMagicThrows) {
  const auto path = dir_ / "bad_magic.bin";
  std::ofstream os(path, std::ios::binary);
  const std::uint32_t junk = 0xdeadbeef;
  os.write(reinterpret_cast<const char*>(&junk), sizeof(junk));
  os.close();
  EXPECT_THROW(load_tensors(path), std::runtime_error);
}

TEST_F(SerializeTest, TruncatedFileThrows) {
  const auto path = dir_ / "trunc.bin";
  Tensor a({10, 10}, 1.0f);
  save_tensors(path, {a});
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(load_tensors(path), std::runtime_error);
}

TEST_F(SerializeTest, CreatesParentDirectories) {
  const auto path = dir_ / "nested" / "deep" / "file.bin";
  save_tensors(path, {Tensor({2}, 1.0f)});
  EXPECT_TRUE(std::filesystem::exists(path));
}

TEST_F(SerializeTest, StreamLevelRoundTrip) {
  std::stringstream ss;
  Tensor t = Tensor::from_data(Shape({2, 2}), {1, 2, 3, 4});
  write_tensor(ss, t);
  const Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  for (std::size_t i = 0; i < 4; ++i) EXPECT_FLOAT_EQ(back[i], t[i]);
}

TEST_F(SerializeTest, WritesFormatV2WithTrailer) {
  const auto path = dir_ / "v2.bin";
  save_tensors(path, {Tensor({2, 3}, 0.5f)});
  const std::vector<char> bytes = read_bytes(path);
  // header: magic, version=2, count=1
  ASSERT_GE(bytes.size(), 16u);
  std::uint32_t magic = 0, version = 0, trailer = 0;
  std::memcpy(&magic, bytes.data(), 4);
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&trailer, bytes.data() + bytes.size() - 8, 4);
  EXPECT_EQ(magic, kTensorFileMagic);
  EXPECT_EQ(version, kTensorFileVersion);
  EXPECT_EQ(trailer, kTensorFileTrailerMagic);
  // 16 header + 8 rank + 16 dims + 4 crc + 24 payload + 8 trailer
  EXPECT_EQ(bytes.size(), 76u);
}

// --- corruption matrix --------------------------------------------------

TEST_F(SerializeTest, TruncationAtEveryByteThrows) {
  const auto path = dir_ / "full.bin";
  Rng rng(9);
  Tensor a({3, 4});
  Tensor b({2, 2, 2});
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  save_tensors(path, {a, b});
  const std::vector<char> bytes = read_bytes(path);
  const auto work = dir_ / "trunc.bin";
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_bytes(work, {bytes.begin(), bytes.begin() + len});
    EXPECT_THROW(load_tensors(work), std::runtime_error)
        << "prefix of " << len << "/" << bytes.size()
        << " bytes loaded without error";
  }
}

TEST_F(SerializeTest, EverySingleByteFlipIsDetected) {
  const auto path = dir_ / "flip_src.bin";
  Rng rng(10);
  Tensor a({3, 4});
  Tensor b({5});
  fill_normal(a, rng, 0.0f, 1.0f);
  fill_normal(b, rng, 0.0f, 1.0f);
  save_tensors(path, {a, b});
  const std::vector<char> bytes = read_bytes(path);
  const auto work = dir_ / "flip.bin";
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::vector<char> corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
    write_bytes(work, corrupt);
    EXPECT_THROW(load_tensors(work), std::runtime_error)
        << "flip of byte " << i << "/" << bytes.size() << " went undetected";
  }
}

TEST_F(SerializeTest, CorruptionErrorsNameTheFailure) {
  // One tensor {2,3}: magic@0, version@4, count@8, rank@16, dims@24,
  // tensor-crc@40, payload@44(+24), trailer magic@68, file crc@72.
  const auto path = dir_ / "precise_src.bin";
  save_tensors(path, {Tensor({2, 3}, 0.25f)});
  const std::vector<char> bytes = read_bytes(path);
  ASSERT_EQ(bytes.size(), 76u);
  const struct {
    std::size_t offset;
    const char* expect;
  } cases[] = {
      {0, "bad magic"},
      {4, "unsupported version"},
      {45, "tensor CRC mismatch"},       // payload byte
      {40, "tensor CRC mismatch"},       // stored per-tensor crc
      {68, "trailer missing or corrupt"},
      {72, "file CRC mismatch"},
  };
  const auto work = dir_ / "precise.bin";
  for (const auto& c : cases) {
    std::vector<char> corrupt = bytes;
    corrupt[c.offset] = static_cast<char>(corrupt[c.offset] ^ 0xFF);
    write_bytes(work, corrupt);
    expect_load_error(work, c.expect);
  }
}

// --- legacy v1 compatibility --------------------------------------------

TEST_F(SerializeTest, LegacyV1FileStillRoundTrips) {
  // Hand-written v1 file: header without checksums, raw rank/dims/payload
  // records — byte-for-byte what the previous serializer produced.
  const auto path = dir_ / "legacy.bin";
  const std::vector<float> values = {1.5f, -2.0f, 0.25f, 8.0f, -0.5f, 3.0f};
  {
    std::ofstream os(path, std::ios::binary);
    const std::uint32_t version = kTensorFileVersionLegacy;
    const std::uint64_t count = 1, rank = 2, d0 = 2, d1 = 3;
    os.write(reinterpret_cast<const char*>(&kTensorFileMagic), 4);
    os.write(reinterpret_cast<const char*>(&version), 4);
    os.write(reinterpret_cast<const char*>(&count), 8);
    os.write(reinterpret_cast<const char*>(&rank), 8);
    os.write(reinterpret_cast<const char*>(&d0), 8);
    os.write(reinterpret_cast<const char*>(&d1), 8);
    os.write(reinterpret_cast<const char*>(values.data()), 24);
  }
  const std::vector<Tensor> loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].shape(), Shape({2, 3}));
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_FLOAT_EQ(loaded[0][i], values[i]);
  }
}

TEST_F(SerializeTest, LegacyV1TruncationStillThrows) {
  const auto path = dir_ / "legacy_trunc.bin";
  {
    std::ofstream os(path, std::ios::binary);
    const std::uint32_t version = kTensorFileVersionLegacy;
    const std::uint64_t count = 1, rank = 1, d0 = 100;
    os.write(reinterpret_cast<const char*>(&kTensorFileMagic), 4);
    os.write(reinterpret_cast<const char*>(&version), 4);
    os.write(reinterpret_cast<const char*>(&count), 8);
    os.write(reinterpret_cast<const char*>(&rank), 8);
    os.write(reinterpret_cast<const char*>(&d0), 8);
    const std::vector<float> partial(10, 1.0f);  // 100 promised, 10 present
    os.write(reinterpret_cast<const char*>(partial.data()), 40);
  }
  expect_load_error(path, "truncated");
}

// --- atomic writes and injected faults ----------------------------------

TEST_F(SerializeTest, AtomicWriteLeavesNoTempFile) {
  save_tensors(dir_ / "clean.bin", {Tensor({4}, 1.0f)});
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "temp file left behind: " << entry.path();
  }
}

TEST_F(SerializeTest, InjectedWriteFailureLeavesPreviousFileIntact) {
  const auto path = dir_ / "stable.bin";
  save_tensors(path, {Tensor({3}, 7.0f)});
  fault::arm("serialize.write:fail_once");
  EXPECT_THROW(save_tensors(path, {Tensor({3}, -1.0f)}), std::runtime_error);
  fault::reset();
  const std::vector<Tensor> loaded = load_tensors(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_FLOAT_EQ(loaded[0][0], 7.0f);  // old content survived
}

TEST_F(SerializeTest, InjectedShortWriteIsDetectedOnLoad) {
  const auto path = dir_ / "torn.bin";
  fault::arm("serialize.write:short_write_once");
  save_tensors(path, {Tensor({8, 8}, 2.0f)});  // publishes a truncated file
  fault::reset();
  expect_load_error(path, "truncated");
}

TEST_F(SerializeTest, InjectedBitFlipIsDetectedOnLoad) {
  const auto path = dir_ / "flipped.bin";
  fault::arm("serialize.write:bitflip_once");
  save_tensors(path, {Tensor({8, 8}, 2.0f)});  // flips one payload byte
  fault::reset();
  EXPECT_THROW(load_tensors(path), std::runtime_error);
}

TEST_F(SerializeTest, FailAfterSkipsInitialWrites) {
  fault::arm("serialize.write:fail_after=2");
  save_tensors(dir_ / "ok1.bin", {Tensor({2}, 1.0f)});  // hit 0: passes
  save_tensors(dir_ / "ok2.bin", {Tensor({2}, 2.0f)});  // hit 1: passes
  EXPECT_THROW(save_tensors(dir_ / "no.bin", {Tensor({2}, 3.0f)}),
               std::runtime_error);  // hit 2: injected failure
  fault::reset();
  EXPECT_EQ(load_tensors(dir_ / "ok2.bin")[0][0], 2.0f);
  EXPECT_FALSE(std::filesystem::exists(dir_ / "no.bin"));
}

// --- seeded mutation fuzzing ------------------------------------------

fuzz::Bytes to_bytes(const std::string& s) { return {s.begin(), s.end()}; }

/// A v1 file of `tensors`: header without checksums, then raw
/// rank/dims/payload records.
fuzz::Bytes legacy_v1(const std::vector<Tensor>& tensors) {
  std::ostringstream os;
  const auto put = [&os](const auto& v) {
    os.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put(kTensorFileMagic);
  put(kTensorFileVersionLegacy);
  put(static_cast<std::uint64_t>(tensors.size()));
  for (const Tensor& t : tensors) {
    put(static_cast<std::uint64_t>(t.rank()));
    for (std::size_t d : t.shape().dims()) put(static_cast<std::uint64_t>(d));
    os.write(reinterpret_cast<const char*>(t.data()),
             static_cast<std::streamsize>(t.numel() * sizeof(float)));
  }
  return to_bytes(os.str());
}

/// The tensor collections the cases above save, as fuzz seeds.
std::vector<std::vector<Tensor>> seed_collections() {
  Rng rng(11);
  Tensor a({3, 4}), b({2, 2, 2}), c({5}), d({2, 1, 4, 4});
  for (Tensor* t : {&a, &b, &c, &d}) fill_normal(*t, rng, 0.0f, 1.0f);
  return {{a, b}, {a, c}, {Tensor({2, 3}, 0.25f)}, {d, c}, {}};
}

class SerializeFuzzTest : public SerializeTest,
                          public ::testing::WithParamInterface<fuzz::Mutation> {
 protected:
  // Writes each mutant of `seeds` to a file and loads it: it must load or
  // throw std::runtime_error, whatever its counts and dims claim.
  void expect_files_load_or_throw(const std::vector<fuzz::Bytes>& seeds) {
    const auto path = dir_ / "mutant.bin";
    Rng rng(fuzz::kSeed);
    for (std::size_t i = 0; i < fuzz::kMutants; ++i) {
      const fuzz::Bytes mutant = fuzz::mutate(seeds, GetParam(), rng);
      {
        std::ofstream os(path, std::ios::binary | std::ios::trunc);
        os.write(reinterpret_cast<const char*>(mutant.data()),
                 static_cast<std::streamsize>(mutant.size()));
      }
      try {
        load_tensors(path);
      } catch (const std::runtime_error&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "mutant " << i << " (" << mutant.size()
                      << " bytes) threw " << e.what();
      }
    }
  }
};

TEST_P(SerializeFuzzTest, ReadTensorV2StreamMutantsReadOrThrow) {
  std::vector<fuzz::Bytes> seeds;
  for (const auto& tensors : seed_collections()) {
    for (const Tensor& t : tensors) {
      std::ostringstream os;
      write_tensor(os, t);
      seeds.push_back(to_bytes(os.str()));
    }
  }
  Rng rng(fuzz::kSeed);
  for (std::size_t i = 0; i < fuzz::kMutants; ++i) {
    const fuzz::Bytes mutant = fuzz::mutate(seeds, GetParam(), rng);
    std::istringstream is(std::string(mutant.begin(), mutant.end()));
    try {
      read_tensor(is);
    } catch (const std::runtime_error&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " (" << mutant.size()
                    << " bytes) threw " << e.what();
    }
  }
}

TEST_P(SerializeFuzzTest, LoadV2FileMutantsLoadOrThrow) {
  std::vector<fuzz::Bytes> seeds;
  const auto path = dir_ / "seed.bin";
  for (const auto& tensors : seed_collections()) {
    save_tensors(path, tensors);
    const std::vector<char> bytes = read_bytes(path);
    seeds.emplace_back(bytes.begin(), bytes.end());
  }
  expect_files_load_or_throw(seeds);
}

// v1 has no checksum: only the structural guards stand between a mutated
// count or dim and a huge allocation.
TEST_P(SerializeFuzzTest, LoadV1FileMutantsLoadOrThrow) {
  std::vector<fuzz::Bytes> seeds;
  for (const auto& tensors : seed_collections()) {
    seeds.push_back(legacy_v1(tensors));
  }
  expect_files_load_or_throw(seeds);
}

INSTANTIATE_TEST_SUITE_P(
    Mutations, SerializeFuzzTest, ::testing::ValuesIn(fuzz::kAllMutations),
    [](const ::testing::TestParamInfo<fuzz::Mutation>& info) {
      return fuzz::name(info.param);
    });

}  // namespace
}  // namespace adv
