// Spin-based synchronization objects.
//
// All blocking in the paper's parallel workloads is busy-waiting: a spinning
// thread keeps consuming its CPU (and, under a periodic constraint, its
// slice), which is precisely why a time-synchronized schedule can replace a
// barrier.  WaitFlag models the memory word such spinners poll.  The wake
// path is owned by the kernel because waking requires poking executors.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace hrt::nk {

class Kernel;
class Thread;

class WaitFlag {
 public:
  explicit WaitFlag(Kernel& kernel) : kernel_(kernel) {}

  WaitFlag(const WaitFlag&) = delete;
  WaitFlag& operator=(const WaitFlag&) = delete;

  [[nodiscard]] bool is_set() const { return set_; }

  /// Raise the flag: every registered spinner is notified (those currently
  /// running observe it after the machine's spin-notice latency; descheduled
  /// ones observe it when next dispatched).  Defined in kernel.cpp.
  void set();

  /// Lower the flag for reuse.  Only meaningful with no active spinners.
  void clear() { set_ = false; }

  /// Executor bookkeeping.
  void add_spinner(Thread* t) { spinners_.push_back(t); }
  void remove_spinner(Thread* t) {
    for (auto it = spinners_.begin(); it != spinners_.end(); ++it) {
      if (*it == t) {
        spinners_.erase(it);
        return;
      }
    }
  }

 private:
  Kernel& kernel_;
  bool set_ = false;
  std::vector<Thread*> spinners_;
};

}  // namespace hrt::nk
