// Test support: caps the size of the regular files this process writes
// (RLIMIT_FSIZE) for a scope, the way a full disk or an operator's ulimit
// would make a checkpoint save fail part-way.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <csignal>

namespace mobirescue::serve {

/// While alive, a write that would grow a file past `bytes` fails with
/// EFBIG: SIGXFSZ is ignored, so the process is not killed. The previous
/// limit and signal disposition come back on destruction. Pipes and
/// terminals are not capped, but a test's stdout redirected to a file is,
/// so assert after the scope ends.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    getrlimit(RLIMIT_FSIZE, &saved_);
    old_handler_ = std::signal(SIGXFSZ, SIG_IGN);
    rlimit capped = saved_;
    capped.rlim_cur = std::min(bytes, saved_.rlim_max);
    setrlimit(RLIMIT_FSIZE, &capped);
  }
  ~FileSizeLimit() {
    setrlimit(RLIMIT_FSIZE, &saved_);
    std::signal(SIGXFSZ, old_handler_);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_{};
  void (*old_handler_)(int) = SIG_DFL;
};

}  // namespace mobirescue::serve
