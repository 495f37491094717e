#include "support/process.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>

namespace jat {

namespace {

void set_nonblocking_cloexec(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  const int fdflags = ::fcntl(fd, F_GETFD, 0);
  if (fdflags >= 0) ::fcntl(fd, F_SETFD, fdflags | FD_CLOEXEC);
}

}  // namespace

SelfPipe::SelfPipe() {
  int fds[2] = {-1, -1};
  if (::pipe(fds) != 0) return;
  set_nonblocking_cloexec(fds[0]);
  set_nonblocking_cloexec(fds[1]);
  read_fd_ = fds[0];
  write_fd_ = fds[1];
}

SelfPipe::~SelfPipe() {
  if (read_fd_ >= 0) ::close(read_fd_);
  if (write_fd_ >= 0) ::close(write_fd_);
}

void SelfPipe::notify() noexcept {
  if (write_fd_ < 0) return;
  const char byte = 1;
  // EAGAIN (pipe full) and EINTR are both fine: a wakeup is already
  // pending, or the retry loop in the poller will catch up.
  [[maybe_unused]] const ssize_t rc = ::write(write_fd_, &byte, 1);
}

void SelfPipe::drain() noexcept {
  if (read_fd_ < 0) return;
  char buf[64];
  while (::read(read_fd_, buf, sizeof buf) > 0) {
  }
}

bool write_all(int fd, const char* data, std::size_t len,
               std::size_t* written) noexcept {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::write(fd, data + sent, len - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) break;
    sent += static_cast<std::size_t>(n);
  }
  if (written != nullptr) *written = sent;
  return sent == len;
}

std::atomic<pid_t> ChildRegistry::slots_[ChildRegistry::kCapacity] = {};

bool ChildRegistry::add(pid_t pid) noexcept {
  if (pid <= 0) return false;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    pid_t expected = 0;
    if (slots_[i].compare_exchange_strong(expected, pid,
                                          std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

void ChildRegistry::remove(pid_t pid) noexcept {
  if (pid <= 0) return;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    pid_t expected = pid;
    if (slots_[i].compare_exchange_strong(expected, 0,
                                          std::memory_order_acq_rel)) {
      return;
    }
  }
}

void ChildRegistry::kill_all(int sig) noexcept {
  for (std::size_t i = 0; i < kCapacity; ++i) {
    const pid_t pid = slots_[i].load(std::memory_order_acquire);
    if (pid > 0) ::kill(pid, sig);
  }
}

std::size_t ChildRegistry::count() noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < kCapacity; ++i) {
    if (slots_[i].load(std::memory_order_acquire) > 0) ++n;
  }
  return n;
}

namespace {

SelfPipe* g_child_exit_pipe = nullptr;

extern "C" void jat_sigchld_handler(int) {
  const int saved_errno = errno;
  if (g_child_exit_pipe != nullptr) g_child_exit_pipe->notify();
  errno = saved_errno;
}

}  // namespace

SelfPipe& child_exit_pipe() {
  static std::once_flag once;
  // Leaked on purpose: signal handlers may fire during static destruction.
  static SelfPipe* pipe = nullptr;
  std::call_once(once, [] {
    pipe = new SelfPipe();
    g_child_exit_pipe = pipe;
    struct sigaction sa = {};
    sa.sa_handler = jat_sigchld_handler;
    sigemptyset(&sa.sa_mask);
    // SA_RESTART keeps unrelated slow syscalls (the CLI's stdio) quiet;
    // the sandbox polls with timeouts, so it never depends on EINTR.
    // SA_NOCLDSTOP: only care about termination, not job control stops.
    sa.sa_flags = SA_RESTART | SA_NOCLDSTOP;
    ::sigaction(SIGCHLD, &sa, nullptr);
  });
  return *pipe;
}

}  // namespace jat
