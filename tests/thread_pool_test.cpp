// Tests for ThreadPool: exact coverage, chunk indexing, determinism, and
// nested calls running inline.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "tensor/thread_pool.hpp"

namespace adv {
namespace {

TEST(ThreadPool, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, SingleThreadStillWorks) {
  ThreadPool pool(1);
  std::size_t total = 0;
  pool.parallel_for(0, 100, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) total += i;
  });
  EXPECT_EQ(total, 4950u);
}

TEST(ThreadPool, MoreThreadsThanItems) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for(0, 3, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, IndexedChunksAreDenseAndDisjoint) {
  ThreadPool pool(4);
  std::mutex m;
  std::vector<std::size_t> chunk_of(100, 999);
  std::vector<std::size_t> chunks_seen;
  pool.parallel_for_indexed(
      0, 100, [&](std::size_t chunk, std::size_t b, std::size_t e) {
        std::lock_guard lock(m);
        chunks_seen.push_back(chunk);
        for (std::size_t i = b; i < e; ++i) chunk_of[i] = chunk;
      });
  for (std::size_t c : chunks_seen) EXPECT_LT(c, pool.max_chunks());
  for (std::size_t c : chunk_of) EXPECT_NE(c, 999u);
  // Chunks are contiguous: indices mapping to the same chunk are adjacent.
  for (std::size_t i = 1; i < 100; ++i) {
    if (chunk_of[i] != chunk_of[i - 1]) {
      EXPECT_GT(chunk_of[i], chunk_of[i - 1]);
    }
  }
}

TEST(ThreadPool, DeterministicPartitioning) {
  // The chunk boundaries must be a pure function of (range, threads).
  ThreadPool pool(3);
  auto capture = [&] {
    std::mutex m;
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    pool.parallel_for(0, 77, [&](std::size_t b, std::size_t e) {
      std::lock_guard lock(m);
      spans.emplace_back(b, e);
    });
    std::sort(spans.begin(), spans.end());
    return spans;
  };
  EXPECT_EQ(capture(), capture());
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::size_t> total{0};
    pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
      total.fetch_add(e - b);
    });
    EXPECT_EQ(total.load(), 64u);
  }
}

TEST(ThreadPool, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().thread_count(), 1u);
}

TEST(ThreadPool, ExceptionFromWorkerTaskPropagatesToCaller) {
  ThreadPool pool(4);
  // With 4 threads over [0,1000), index 900 lands in the last chunk,
  // which a worker (not the caller) executes.
  auto boom = [](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      if (i == 900) throw std::runtime_error("boom at 900");
    }
  };
  try {
    pool.parallel_for(0, 1000, boom);
    FAIL() << "expected exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom at 900");  // message preserved
  }
}

TEST(ThreadPool, ExceptionFromCallerChunkDrainsWorkers) {
  ThreadPool pool(4);
  std::atomic<std::size_t> done{0};
  auto fn = [&](std::size_t b, std::size_t e) {
    if (b == 0) throw std::runtime_error("caller chunk");
    for (std::size_t i = b; i < e; ++i) done.fetch_add(1);
  };
  EXPECT_THROW(pool.parallel_for(0, 1000, fn), std::runtime_error);
  // The caller's chunk covers [0,250); all other chunks must have run.
  EXPECT_EQ(done.load(), 750u);
}

TEST(ThreadPool, PoolStaysUsableAfterException) {
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(
        pool.parallel_for(0, 100,
                          [](std::size_t, std::size_t) {
                            throw std::runtime_error("each round");
                          }),
        std::runtime_error);
    // A clean call right after must cover the range exactly and not see a
    // stale exception.
    std::vector<std::atomic<int>> hits(64);
    pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ConcurrentThrowsDeliverExactlyOne) {
  ThreadPool pool(8);
  // Every chunk throws; exactly one exception must surface, the rest are
  // swallowed after all chunks drain (no deadlock, no terminate).
  std::atomic<int> started{0};
  try {
    pool.parallel_for(0, 8, [&](std::size_t b, std::size_t) {
      started.fetch_add(1);
      throw std::runtime_error("chunk " + std::to_string(b));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(started.load(), 8);
}

TEST(ThreadPool, SingleThreadPoolPropagatesToo) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 10,
                                 [](std::size_t, std::size_t) {
                                   throw std::logic_error("serial");
                                 }),
               std::logic_error);
  std::size_t total = 0;
  pool.parallel_for(0, 10, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) total += i;
  });
  EXPECT_EQ(total, 45u);
}

// A parallel_for issued from inside a task — by a worker, or by the
// caller while it runs its own chunk 0 — runs its whole range inline on
// that thread as chunk 0, covering every index exactly once.
TEST(ThreadPool, NestedCallRunsInlineAsChunkZero) {
  ThreadPool pool(4);
  constexpr std::size_t kOuter = 4, kInner = 100;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  std::atomic<int> not_inline{0};
  pool.parallel_for(0, kOuter, [&](std::size_t b, std::size_t e) {
    for (std::size_t o = b; o < e; ++o) {
      const std::thread::id outer_thread = std::this_thread::get_id();
      pool.parallel_for_indexed(
          0, kInner, [&](std::size_t chunk, std::size_t ib, std::size_t ie) {
            if (chunk != 0 || ib != 0 || ie != kInner ||
                std::this_thread::get_id() != outer_thread) {
              not_inline.fetch_add(1);
            }
            for (std::size_t i = ib; i < ie; ++i) {
              hits[o * kInner + i].fetch_add(1);
            }
          });
    }
  });
  EXPECT_EQ(not_inline.load(), 0);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, MaxChunksIsOneInsideATask) {
  ThreadPool pool(4);
  ThreadPool other(3);
  EXPECT_EQ(pool.max_chunks(), 4u);
  std::vector<std::size_t> inside(4, 0), inside_other(4, 0);
  pool.parallel_for_indexed(0, 4,
                            [&](std::size_t c, std::size_t, std::size_t) {
                              inside[c] = pool.max_chunks();
                              inside_other[c] = other.max_chunks();
                            });
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(inside[c], 1u) << "chunk " << c;
    EXPECT_EQ(inside_other[c], 1u) << "chunk " << c;  // any pool
  }
  EXPECT_EQ(pool.max_chunks(), 4u);  // the caller left its task
}

TEST(ThreadPool, ExceptionFromNestedCallReachesOuterCaller) {
  ThreadPool pool(4);
  // Index 900 of the outer range lands in a worker's chunk, index 10 in
  // the caller's; both throw from inside their nested call.
  for (const std::size_t bad : {std::size_t{900}, std::size_t{10}}) {
    try {
      pool.parallel_for(0, 1000, [&](std::size_t b, std::size_t e) {
        pool.parallel_for(b, e, [&](std::size_t ib, std::size_t ie) {
          for (std::size_t i = ib; i < ie; ++i) {
            if (i == bad) throw std::runtime_error("nested " +
                                                   std::to_string(i));
          }
        });
      });
      FAIL() << "expected the nested exception";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "nested " + std::to_string(bad));
    }
  }
  std::atomic<std::size_t> total{0};
  pool.parallel_for(0, 64, [&](std::size_t b, std::size_t e) {
    total.fetch_add(e - b);
  });
  EXPECT_EQ(total.load(), 64u);  // still usable
}

TEST(ThreadPool, ExternalThreadsIssuingNestedWorkNeverDeadlock) {
  ThreadPool pool(4);
  constexpr int kRounds = 50;
  std::atomic<std::size_t> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 2; ++t) {
    callers.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        pool.parallel_for(0, 8, [&](std::size_t b, std::size_t e) {
          for (std::size_t o = b; o < e; ++o) {
            pool.parallel_for(0, 16, [&](std::size_t ib, std::size_t ie) {
              total.fetch_add(ie - ib);
            });
          }
        });
      }
    });
  }
  for (auto& c : callers) c.join();
  EXPECT_EQ(total.load(), 2u * kRounds * 8u * 16u);
}

// Saves/restores one environment variable around a test body.
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    const char* v = std::getenv(name);
    if (v) saved_ = v;
    had_ = v != nullptr;
  }
  ~EnvGuard() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(ThreadPool, EnvOverrideParsesPositiveIntegers) {
  EnvGuard guard("ADV_THREADS");
  ::setenv("ADV_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::env_thread_override(), 3u);
  EXPECT_EQ(ThreadPool::default_thread_count(), 3u);
  ::setenv("ADV_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::env_thread_override(), 1u);
  EXPECT_EQ(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, EnvOverrideRejectsMalformedValues) {
  EnvGuard guard("ADV_THREADS");
  for (const char* bad : {"", "0", "-2", "abc", "2x", "  ", "4294967297",
                          "5000000000", "99999999999999999999", "1025"}) {
    ::setenv("ADV_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::env_thread_override(), 0u) << "value: '" << bad
                                                     << "'";
  }
  ::unsetenv("ADV_THREADS");
  EXPECT_EQ(ThreadPool::env_thread_override(), 0u);
}

TEST(ThreadPool, DefaultCountFallsBackToHardware) {
  EnvGuard guard("ADV_THREADS");
  ::unsetenv("ADV_THREADS");
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(ThreadPool::default_thread_count(), hw ? hw : 1u);
}

TEST(ThreadPool, ParallelReductionPerChunkIsExact) {
  ThreadPool pool(4);
  std::vector<double> partial(pool.max_chunks(), 0.0);
  pool.parallel_for_indexed(1, 1001,
                            [&](std::size_t c, std::size_t b, std::size_t e) {
                              for (std::size_t i = b; i < e; ++i) {
                                partial[c] += static_cast<double>(i);
                              }
                            });
  const double total = std::accumulate(partial.begin(), partial.end(), 0.0);
  EXPECT_DOUBLE_EQ(total, 500500.0);
}

}  // namespace
}  // namespace adv
