#include "ppds/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <future>
#include <stdexcept>
#include <vector>

namespace ppds {
namespace {

TEST(ThreadPoolUnit, RunsAllTasksAndPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::vector<std::future<int>> futures;
  futures.reserve(16);
  for (int i = 0; i < 16; ++i) {
    futures.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 16; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);

  auto failing = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
}

}  // namespace
}  // namespace ppds
