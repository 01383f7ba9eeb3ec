#pragma once

#include <sched.h>

#include <atomic>
#include <thread>
#include <vector>

/// \file cpu_load.hpp
/// In-process CPU contention for scheduling-sensitive tests: busy
/// threads, optionally with the whole test confined to one CPU.  Both
/// act on this process only (the calling thread's affinity, which the
/// threads it starts inherit) and are undone on scope exit.

namespace tdbg::test {

/// Restricts the calling thread, and every thread it starts while in
/// scope, to the first CPU of its current affinity set.
class PinToOneCpu {
 public:
  PinToOneCpu() {
    ok_ = sched_getaffinity(0, sizeof saved_, &saved_) == 0;
    if (!ok_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        CPU_SET(c, &one);
        break;
      }
    }
    ok_ = sched_setaffinity(0, sizeof one, &one) == 0;
  }
  ~PinToOneCpu() {
    if (ok_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  PinToOneCpu(const PinToOneCpu&) = delete;
  PinToOneCpu& operator=(const PinToOneCpu&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }

 private:
  cpu_set_t saved_{};
  bool ok_ = false;
};

/// `n` threads that spin until destroyed.
class Spinners {
 public:
  explicit Spinners(int n) {
    for (int i = 0; i < n; ++i) {
      threads_.emplace_back([this] {
        std::uint64_t x = 0;
        while (!stop_.load(std::memory_order_relaxed)) ++x;
        sink_.fetch_add(x, std::memory_order_relaxed);
      });
    }
  }
  ~Spinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (auto& t : threads_) t.join();
  }
  Spinners(const Spinners&) = delete;
  Spinners& operator=(const Spinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<std::uint64_t> sink_{0};
  std::vector<std::thread> threads_;
};

}  // namespace tdbg::test
