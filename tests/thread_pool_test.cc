/// Tests for the fixed-size worker pool: every index visited exactly
/// once, errors and exceptions surface as Status, nested loops run
/// inline without deadlock, and several callers can share one pool.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace dt {
namespace {

TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool serial(1);
  EXPECT_EQ(serial.num_threads(), 1);
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  // <= 0 resolves to the hardware concurrency (at least 1).
  ThreadPool autosized(0);
  EXPECT_GE(autosized.num_threads(), 1);
}

TEST(ThreadPoolTest, ScheduleRunsAllTasksBeforeJoin) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Schedule([&done] { done.fetch_add(1); });
    }
  }  // the destructor drains the queue, then joins
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  for (int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<int> visits(10000, 0);
    Status st = pool.ParallelFor(0, visits.size(), [&](size_t i) -> Status {
      ++visits[i];
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(std::accumulate(visits.begin(), visits.end(), 0), 10000);
    EXPECT_TRUE(std::all_of(visits.begin(), visits.end(),
                            [](int v) { return v == 1; }));
  }
}

TEST(ThreadPoolTest, ChunksPartitionTheRange) {
  ThreadPool pool(3);
  std::vector<int> visits(1001, 0);
  Status st = pool.ParallelForChunks(
      0, visits.size(), 7, [&](size_t, size_t lo, size_t hi) -> Status {
        for (size_t i = lo; i < hi; ++i) ++visits[i];
        return Status::OK();
      });
  ASSERT_TRUE(st.ok());
  EXPECT_TRUE(std::all_of(visits.begin(), visits.end(),
                          [](int v) { return v == 1; }));
}

TEST(ThreadPoolTest, EmptyRangeIsOk) {
  ThreadPool pool(4);
  bool called = false;
  Status st = pool.ParallelFor(5, 5, [&](size_t) -> Status {
    called = true;
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, BodyErrorPropagates) {
  ThreadPool pool(4);
  Status st = pool.ParallelFor(0, 1000, [](size_t i) -> Status {
    if (i == 613) return Status::InvalidArgument("bad index 613");
    return Status::OK();
  });
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad index 613");
}

TEST(ThreadPoolTest, FirstErrorByChunkIndexWins) {
  ThreadPool pool(4);
  // Every chunk fails; the reported error must be the lowest-indexed
  // chunk's regardless of scheduling.
  Status st = pool.ParallelForChunks(
      0, 160, 16, [](size_t chunk, size_t, size_t) -> Status {
        return Status::Internal("chunk " + std::to_string(chunk));
      });
  EXPECT_TRUE(st.IsInternal());
  EXPECT_EQ(st.message(), "chunk 0");
}

TEST(ThreadPoolTest, ExceptionBecomesInternalStatus) {
  ThreadPool pool(4);
  Status st = pool.ParallelFor(0, 100, [](size_t i) -> Status {
    if (i == 42) throw std::runtime_error("boom at 42");
    return Status::OK();
  });
  EXPECT_TRUE(st.IsInternal());
  EXPECT_NE(st.message().find("boom at 42"), std::string::npos);
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  // 64 outer x 64 inner iterations; the inner loop must not schedule
  // onto the pool (all workers may be inside the outer loop).
  std::atomic<int> total{0};
  Status st = pool.ParallelFor(0, 64, [&](size_t) -> Status {
    return pool.ParallelFor(0, 64, [&](size_t) -> Status {
      total.fetch_add(1, std::memory_order_relaxed);
      return Status::OK();
    });
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(total.load(), 64 * 64);
}

TEST(ThreadPoolTest, NestedErrorPropagatesThroughOuterLoop) {
  ThreadPool pool(2);
  Status st = pool.ParallelFor(0, 8, [&](size_t outer) -> Status {
    return pool.ParallelFor(0, 8, [&](size_t inner) -> Status {
      if (outer == 3 && inner == 5) return Status::NotFound("inner 3/5");
      return Status::OK();
    });
  });
  EXPECT_TRUE(st.IsNotFound());
  EXPECT_EQ(st.message(), "inner 3/5");
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  // The facade's pool serves every caller: 4 external threads issue
  // loops on it at once, and each loop must see only its own indexes.
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr int kRounds = 50;
  constexpr size_t kN = 2000;
  std::vector<Status> failures(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &failures, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<uint64_t> out(kN, 0);
        const uint64_t salt = static_cast<uint64_t>(c * kRounds + round);
        Status st = pool.ParallelFor(0, kN, [&](size_t i) -> Status {
          out[i] += i * 7 + salt;
          return Status::OK();
        });
        if (!st.ok()) {
          failures[c] = st;
          return;
        }
        for (size_t i = 0; i < kN; ++i) {
          if (out[i] != i * 7 + salt) {
            failures[c] = Status::Internal(
                "caller " + std::to_string(c) + " round " +
                std::to_string(round) + " index " + std::to_string(i));
            return;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(failures[c].ok()) << failures[c].ToString();
  }
}

}  // namespace
}  // namespace dt
