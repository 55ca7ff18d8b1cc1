#include "exp/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/mutex.hpp"

namespace amoeba::exp {

unsigned parse_jobs_flag(int& argc, char** argv) {
  unsigned jobs = 1;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    std::string text;
    if (arg == "--jobs") {
      text = flag_value(argc, argv, i++);
    } else if (arg.rfind("--jobs=", 0) == 0) {
      text = arg.substr(7);
    } else {
      argv[out++] = argv[i];
      continue;
    }
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(text.c_str(), &end, 10);
    AMOEBA_EXPECTS_MSG(!text.empty() && end == text.c_str() + text.size() &&
                           parsed > 0 && parsed <= 1024,
                       "--jobs expects an integer in [1, 1024]");
    jobs = static_cast<unsigned>(parsed);
  }
  argc = out;
  argv[argc] = nullptr;
  return jobs;
}

void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn) {
  AMOEBA_EXPECTS(fn != nullptr);
  if (n == 0) return;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(effective_threads(threads), n));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  struct ErrorSlot {
    common::Mutex mutex;
    std::exception_ptr first_error AMOEBA_GUARDED_BY(mutex);
  } errors;

  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        common::MutexLock lock(errors.mutex);
        if (!errors.first_error) errors.first_error = std::current_exception();
        return;
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (unsigned w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  std::exception_ptr err;
  {
    common::MutexLock lock(errors.mutex);
    err = errors.first_error;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace amoeba::exp
