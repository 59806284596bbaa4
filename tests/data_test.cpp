// Dataset and synthetic-generator tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>

#include "data/dataset.hpp"
#include "data/image_io.hpp"
#include "data/syn_digits.hpp"
#include "data/syn_objects.hpp"
#include "tensor/tensor_ops.hpp"
#include "tensor/thread_pool.hpp"

namespace adv::data {
namespace {

TEST(Dataset, SliceAndSplit) {
  Dataset d;
  d.images = Tensor({10, 1, 2, 2});
  for (std::size_t i = 0; i < d.images.numel(); ++i) {
    d.images[i] = static_cast<float>(i);
  }
  d.labels = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  const Dataset s = d.slice(2, 5);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.labels[0], 2);
  EXPECT_FLOAT_EQ(s.images[0], 8.0f);  // row 2 starts at flat index 2*4
  EXPECT_THROW(d.slice(4, 11), std::out_of_range);

  // Splits as the model zoo makes them: contiguous ranges of one shuffled
  // order, each gathered with filter(). Together they hold every row
  // exactly once, with images still paired to their labels.
  Rng rng(3);
  const std::vector<std::size_t> order = shuffled_indices(d.size(), rng);
  const auto part = [&](std::size_t begin, std::size_t end) {
    return d.filter({order.begin() + static_cast<std::ptrdiff_t>(begin),
                     order.begin() + static_cast<std::ptrdiff_t>(end)});
  };
  const Dataset parts[] = {part(0, 6), part(6, 8), part(8, 10)};
  EXPECT_EQ(parts[0].size(), 6u);
  EXPECT_EQ(parts[1].size(), 2u);
  EXPECT_EQ(parts[2].size(), 2u);
  std::set<int> seen;
  for (const Dataset& p : parts) {
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_TRUE(seen.insert(p.labels[i]).second) << p.labels[i];
      EXPECT_FLOAT_EQ(p.image(i)[0], 4.0f * static_cast<float>(p.labels[i]));
    }
  }
  EXPECT_EQ(seen.size(), d.size());
}

TEST(Dataset, FilterSelectsRows) {
  Dataset d;
  d.images = Tensor({4, 1, 1, 1});
  for (std::size_t i = 0; i < 4; ++i) d.images[i] = static_cast<float>(i);
  d.labels = {0, 1, 2, 3};
  const Dataset f = d.filter({3, 1});
  EXPECT_EQ(f.size(), 2u);
  EXPECT_EQ(f.labels[0], 3);
  EXPECT_FLOAT_EQ(f.images[1], 1.0f);
  EXPECT_THROW(d.filter({9}), std::out_of_range);
}

TEST(Dataset, ShuffleIsDeterministicPermutation) {
  Dataset d;
  d.images = Tensor({8, 1, 1, 1});
  for (std::size_t i = 0; i < 8; ++i) d.images[i] = static_cast<float>(i);
  d.labels = {0, 1, 2, 3, 4, 5, 6, 7};
  Dataset d2 = d;
  Rng r1(5), r2(5);
  d.shuffle(r1);
  d2.shuffle(r2);
  EXPECT_EQ(d.labels, d2.labels);
  // Image/label pairing preserved.
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FLOAT_EQ(d.images[i], static_cast<float>(d.labels[i]));
  }
  // It is a permutation.
  std::set<int> seen(d.labels.begin(), d.labels.end());
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Dataset, ShuffledIndicesAreTheOrderShuffleApplies) {
  Dataset d;
  d.images = Tensor({9, 1, 1, 1});
  for (std::size_t i = 0; i < 9; ++i) d.images[i] = static_cast<float>(i);
  d.labels = {0, 1, 2, 3, 4, 5, 6, 7, 8};
  Rng r1(11), r2(11);
  const std::vector<std::size_t> order = shuffled_indices(d.size(), r1);
  const Dataset gathered = d.filter(order);
  d.shuffle(r2);
  EXPECT_EQ(gathered.labels, d.labels);
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(d.labels[i], static_cast<int>(order[i]));
    EXPECT_FLOAT_EQ(gathered.images[i], d.images[i]);
  }
  // Both generators advanced by the same draws.
  EXPECT_EQ(r1.next_u64(), r2.next_u64());
  EXPECT_TRUE(shuffled_indices(0, r1).empty());
}

// --- SynDigits ----------------------------------------------------------

TEST(SynDigits, ShapesLabelsAndRange) {
  SynDigitsConfig cfg;
  cfg.count = 40;
  const Dataset d = make_syn_digits(cfg);
  EXPECT_EQ(d.images.shape(), Shape({40, 1, 28, 28}));
  ASSERT_EQ(d.labels.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(d.labels[i], static_cast<int>(i % 10));
  }
  EXPECT_GE(min_value(d.images), 0.0f);
  EXPECT_LE(max_value(d.images), 1.0f);
}

TEST(SynDigits, DeterministicGivenSeed) {
  SynDigitsConfig cfg;
  cfg.count = 20;
  const Dataset a = make_syn_digits(cfg);
  const Dataset b = make_syn_digits(cfg);
  for (std::size_t i = 0; i < a.images.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.images[i], b.images[i]);
  }
}

TEST(SynDigits, SampleContentIndependentOfCount) {
  SynDigitsConfig small;
  small.count = 10;
  SynDigitsConfig big = small;
  big.count = 30;
  const Dataset a = make_syn_digits(small);
  const Dataset b = make_syn_digits(big);
  const std::size_t row = 28 * 28;
  for (std::size_t i = 0; i < 10 * row; ++i) {
    EXPECT_FLOAT_EQ(a.images[i], b.images[i]);
  }
}

TEST(SynDigits, DifferentSeedsDiffer) {
  SynDigitsConfig a, b;
  a.count = b.count = 10;
  b.seed = a.seed + 1;
  const Dataset da = make_syn_digits(a);
  const Dataset db = make_syn_digits(b);
  EXPECT_GT(l1_distance(da.images, db.images), 1.0f);
}

TEST(SynDigits, DigitsHaveInk) {
  SynDigitsConfig cfg;
  cfg.count = 10;
  cfg.pixel_noise_std = 0.0f;
  const Dataset d = make_syn_digits(cfg);
  for (std::size_t i = 0; i < 10; ++i) {
    const Tensor img = d.images.slice_rows(i, i + 1);
    EXPECT_GT(sum(img), 10.0f) << "digit " << i << " is blank";
    EXPECT_LT(mean(img), 0.8f) << "digit " << i << " is saturated";
  }
}

TEST(SynDigits, StrokeIntensityBoundsRespected) {
  SynDigitsConfig cfg;
  cfg.count = 10;
  cfg.pixel_noise_std = 0.0f;
  cfg.stroke_intensity_min = 0.4f;
  cfg.stroke_intensity_max = 0.6f;
  const Dataset d = make_syn_digits(cfg);
  EXPECT_LE(max_value(d.images), 0.6f + 1e-5f);
}

TEST(SynDigits, OnesAndEightsDiffer) {
  SynDigitsConfig cfg;
  cfg.count = 20;
  cfg.pixel_noise_std = 0.0f;
  const Dataset d = make_syn_digits(cfg);
  // label 1 at index 1, label 8 at index 8; an 8 uses all 7 segments so it
  // has much more ink than a 1 (2 segments).
  EXPECT_GT(sum(d.images.slice_rows(8, 9)),
            1.5f * sum(d.images.slice_rows(1, 2)));
}

TEST(SynDigits, RenderRejectsBadDigit) {
  SynDigitsConfig cfg;
  EXPECT_THROW(render_syn_digit(cfg, 0, 10), std::invalid_argument);
  EXPECT_THROW(render_syn_digit(cfg, 0, -1), std::invalid_argument);
  EXPECT_THROW(make_syn_digits(SynDigitsConfig{.count = 0}),
               std::invalid_argument);
}

// --- SynObjects ----------------------------------------------------------

TEST(SynObjects, ShapesLabelsAndRange) {
  SynObjectsConfig cfg;
  cfg.count = 30;
  const Dataset d = make_syn_objects(cfg);
  EXPECT_EQ(d.images.shape(), Shape({30, 3, 32, 32}));
  EXPECT_GE(min_value(d.images), 0.0f);
  EXPECT_LE(max_value(d.images), 1.0f);
  for (std::size_t i = 0; i < 30; ++i) {
    EXPECT_EQ(d.labels[i], static_cast<int>(i % 10));
  }
}

TEST(SynObjects, Deterministic) {
  SynObjectsConfig cfg;
  cfg.count = 10;
  const Dataset a = make_syn_objects(cfg);
  const Dataset b = make_syn_objects(cfg);
  for (std::size_t i = 0; i < a.images.numel(); ++i) {
    EXPECT_FLOAT_EQ(a.images[i], b.images[i]);
  }
}

TEST(SynObjects, ClassesAreVisuallyDistinct) {
  SynObjectsConfig cfg;
  cfg.count = 10;
  cfg.pixel_noise_std = 0.0f;
  const Dataset d = make_syn_objects(cfg);
  // Any two class exemplars should differ substantially in pixel space.
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      EXPECT_GT(l2_distance(d.images.slice_rows(i, i + 1),
                            d.images.slice_rows(j, j + 1)),
                1.0f)
          << "classes " << i << " and " << j << " look identical";
    }
  }
}

TEST(SynObjects, RejectsBadInputs) {
  SynObjectsConfig cfg;
  EXPECT_THROW(render_syn_object(cfg, 0, 11), std::invalid_argument);
  EXPECT_THROW(make_syn_objects(SynObjectsConfig{.count = 0}),
               std::invalid_argument);
}

// --- parallel generation ---------------------------------------------------

bool rows_equal(const Tensor& batch, std::size_t i, const Tensor& row) {
  return batch.numel() / batch.dim(0) == row.numel() &&
         std::memcmp(batch.data() + i * row.numel(), row.data(),
                     row.numel() * sizeof(float)) == 0;
}

// Samples render in parallel over the global pool. A count that is not a
// multiple of the pool size gives the pool uneven chunks; every row must
// still be bitwise the lone per-sample render.
std::size_t uneven_count() {
  return 2 * ThreadPool::global().thread_count() + 1;
}

TEST(ParallelGeneration, SynDigitsEqualPerSampleRenders) {
  SynDigitsConfig cfg;
  cfg.count = uneven_count();
  const Dataset d = make_syn_digits(cfg);
  for (std::size_t i = 0; i < cfg.count; ++i) {
    EXPECT_TRUE(rows_equal(d.images, i,
                           render_syn_digit(cfg, i, static_cast<int>(i % 10))))
        << "sample " << i;
  }
}

TEST(ParallelGeneration, SynObjectsEqualPerSampleRenders) {
  SynObjectsConfig cfg;
  cfg.count = uneven_count();
  const Dataset d = make_syn_objects(cfg);
  for (std::size_t i = 0; i < cfg.count; ++i) {
    EXPECT_TRUE(rows_equal(d.images, i,
                           render_syn_object(cfg, i, static_cast<int>(i % 10))))
        << "sample " << i;
  }
}

// Fewer samples than pool threads: some threads get no chunk at all.
TEST(ParallelGeneration, CountsBelowThePoolSizeEqualPerSampleRenders) {
  const std::size_t threads = ThreadPool::global().thread_count();
  for (const std::size_t count : {std::size_t{1}, std::max<std::size_t>(
                                                      1, threads - 1)}) {
    SynDigitsConfig dc;
    dc.count = count;
    const Dataset digits = make_syn_digits(dc);
    SynObjectsConfig oc;
    oc.count = count;
    const Dataset objects = make_syn_objects(oc);
    for (std::size_t i = 0; i < count; ++i) {
      const int label = static_cast<int>(i % 10);
      EXPECT_TRUE(rows_equal(digits.images, i, render_syn_digit(dc, i, label)))
          << "digit sample " << i << " of " << count;
      EXPECT_TRUE(
          rows_equal(objects.images, i, render_syn_object(oc, i, label)))
          << "object sample " << i << " of " << count;
    }
  }
}

// --- image io -------------------------------------------------------------

class ImageIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test dir: ctest runs each test in its own process, so a shared
    // path would let one test's TearDown remove_all another's files.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("adv_imgio_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(ImageIoTest, WritesPgmWithCorrectHeaderAndSize) {
  Tensor img({1, 1, 4, 6}, 0.5f);
  const auto path = dir_ / "img.pgm";
  write_pgm(path, img);
  std::ifstream is(path, std::ios::binary);
  std::string magic, dims;
  std::getline(is, magic);
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(std::filesystem::file_size(path),
            std::string("P5\n6 4\n255\n").size() + 24);
}

TEST_F(ImageIoTest, WritesPpmForColorImages) {
  Tensor img({3, 2, 2}, 0.25f);
  const auto path = dir_ / "img.ppm";
  write_ppm(path, img);
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::file_size(path),
            std::string("P6\n2 2\n255\n").size() + 12);
}

TEST_F(ImageIoTest, DispatchByChannels) {
  write_image(dir_ / "gray.pgm", Tensor({1, 1, 2, 2}, 0.0f));
  write_image(dir_ / "color.ppm", Tensor({1, 3, 2, 2}, 0.0f));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "gray.pgm"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "color.ppm"));
}

TEST_F(ImageIoTest, RejectsBadShapes) {
  EXPECT_THROW(write_pgm(dir_ / "x.pgm", Tensor({3, 2, 2})),
               std::invalid_argument);
  EXPECT_THROW(write_ppm(dir_ / "x.ppm", Tensor({1, 2, 2})),
               std::invalid_argument);
  EXPECT_THROW(write_pgm(dir_ / "x.pgm", Tensor({2, 1, 2, 2})),
               std::invalid_argument);
}

}  // namespace
}  // namespace adv::data
