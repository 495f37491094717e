// Async-signal-safe process plumbing for the evaluation sandbox.
//
// Small primitives that the out-of-process sandbox, the CLI signal
// handlers and the durable files share:
//
//  - SelfPipe: the classic self-pipe trick. A signal handler (SIGCHLD in
//    the sandbox, SIGINT in jat_tune) writes one byte to a non-blocking
//    pipe; the event loop polls the read end alongside its worker pipes
//    and wakes immediately instead of waiting out a timeout. notify() is
//    async-signal-safe (a single write(2)).
//
//  - ChildRegistry: a fixed-size, lock-free table of live child pids.
//    The sandbox registers every forked worker; jat_tune's SIGINT handler
//    forwards SIGTERM (first press: graceful drain) or SIGKILL (second
//    press: hard exit) to all of them without taking a lock. kill(2) is
//    async-signal-safe, so the whole broadcast may run inside a handler.
//
//  - write_all: the one write(2) loop. The sandbox's pipe frames and the
//    journal's and result store's appends (harness/journal.hpp) all go
//    through it.
//
// All are deliberately free of malloc, mutexes, and iostreams: everything
// a signal handler touches must be reentrant.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstddef>

namespace jat {

/// Non-blocking pipe whose write end is safe to poke from a signal
/// handler. Poll fd() for readability, then drain().
class SelfPipe {
 public:
  SelfPipe();
  ~SelfPipe();
  SelfPipe(const SelfPipe&) = delete;
  SelfPipe& operator=(const SelfPipe&) = delete;

  /// True when the pipe was created successfully.
  bool valid() const noexcept { return read_fd_ >= 0; }

  /// The read end; poll this for POLLIN.
  int fd() const noexcept { return read_fd_; }

  /// Writes one byte. Async-signal-safe; a full pipe is fine (the reader
  /// is already pending a wakeup, which is all we need).
  void notify() noexcept;

  /// Reads and discards all pending bytes. Call after poll() reports the
  /// read end readable.
  void drain() noexcept;

 private:
  int read_fd_ = -1;
  int write_fd_ = -1;
};

/// Process-wide table of live sandbox worker pids. All operations are
/// lock-free and async-signal-safe.
class ChildRegistry {
 public:
  static constexpr std::size_t kCapacity = 256;

  /// Records a live child. Returns false when the table is full (the
  /// child still runs; it just cannot be signalled by kill_all).
  static bool add(pid_t pid) noexcept;

  /// Forgets a reaped child.
  static void remove(pid_t pid) noexcept;

  /// Sends `sig` to every registered child. Safe inside a signal handler.
  static void kill_all(int sig) noexcept;

  /// Number of registered children (diagnostic; racy by nature).
  static std::size_t count() noexcept;

 private:
  static std::atomic<pid_t> slots_[kCapacity];
};

/// Writes all `len` bytes of `data` to `fd`: short writes continue and
/// EINTR retries. Returns false, with errno set, when a write fails;
/// `written`, when given, reports the bytes that reached `fd` before it did.
/// Async-signal-safe.
bool write_all(int fd, const char* data, std::size_t len,
               std::size_t* written = nullptr) noexcept;

/// Installs (once) a SIGCHLD handler that pokes the returned SelfPipe and
/// leaves reaping to whoever owns the child — the sandbox waitpid()s its
/// own workers. Returns the shared pipe; never fails after first success.
SelfPipe& child_exit_pipe();

}  // namespace jat
