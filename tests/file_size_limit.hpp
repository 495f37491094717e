// A scoped, lowered file-size limit for this test process. A write that
// would grow a file past the soft RLIMIT_FSIZE writes up to the limit and
// the next one fails with EFBIG: a real partial append, which the
// durability tests use to fail the journal and the result store without a
// test seam in the code under test.
#pragma once

#include <signal.h>
#include <sys/resource.h>

#include <algorithm>

namespace jat {

/// Sets the soft file-size limit to `bytes`, with SIGXFSZ (whose default
/// action kills the process) ignored; restores both on destruction.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    ::getrlimit(RLIMIT_FSIZE, &saved_limit_);
    struct sigaction ignore = {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGXFSZ, &ignore, &saved_action_);
    rlimit lowered = saved_limit_;
    lowered.rlim_cur = std::min(bytes, saved_limit_.rlim_max);
    ::setrlimit(RLIMIT_FSIZE, &lowered);
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &saved_limit_);
    ::sigaction(SIGXFSZ, &saved_action_, nullptr);
  }
  FileSizeLimit(const FileSizeLimit&) = delete;
  FileSizeLimit& operator=(const FileSizeLimit&) = delete;

 private:
  rlimit saved_limit_ = {};
  struct sigaction saved_action_ = {};
};

}  // namespace jat
