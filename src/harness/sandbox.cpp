#include "harness/sandbox.hpp"

#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "flags/parse.hpp"
#include "flags/registry.hpp"
#include "support/cancellation.hpp"
#include "support/error.hpp"
#include "support/process.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"

namespace jat {

namespace {

// ---------------------------------------------------------------------------
// Wire protocol. Everything crosses the pipe as a frame:
//
//   u32 magic | u32 payload_len | u64 fnv1a64(payload) | payload bytes
//
// A payload is one message's fields in the order of its field table
// (request_fields, reply_fields), which PayloadWriter and PayloadReader
// both walk. Both ends are the same binary on the same machine, so scalars
// cross as their raw bytes (doubles as bit patterns: a measurement is
// bit-identical after the round trip) and strings and vectors as a u32
// count and their elements' raw bytes. The length prefix and checksum catch
// torn writes; the reader accepts only a payload that is exactly the
// encoding of some message.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kRequestMagic = 0x4a415251;  // "JARQ"
constexpr std::uint32_t kReplyMagic = 0x4a415250;    // "JARP"
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;

struct FrameHeader {
  std::uint32_t magic;
  std::uint32_t payload_len;
  std::uint64_t checksum;
};

/// The request's fields in wire order: the one list that encode and decode
/// walk. `Message` is a Request, const when encoding.
template <class Visit, class Message>
void request_fields(Visit&& visit, Message& request) {
  visit(request.seq);
  visit(request.fingerprint);
  visit(request.spent_us);
  visit(request.total_us);
  visit(request.time_limit_us);
  visit(request.racing_floor_ms);
  visit(request.hints.top_up);
  visit(request.hints.incumbent.count);
  visit(request.hints.incumbent.mean);
  visit(request.hints.incumbent.m2);
  visit(request.command_line);
}

/// The reply's fields in wire order, likewise: the envelope, then every
/// field of the measurement but its summary.
template <class Visit, class Message>
void reply_fields(Visit&& visit, Message& reply) {
  visit(reply.seq);
  visit(reply.cost_us);
  visit(reply.racing_floor_ms);
  for_each_eval_counter(
      [&visit](const char*, auto& counter) { visit(counter); }, reply.delta);
  auto& m = reply.measurement;
  visit(m.config_fingerprint);
  visit(m.crashed);
  visit(m.fault);
  visit(m.stop);
  visit(m.attempts);
  visit(m.failed_reps);
  visit(m.times_ms);
  visit(m.rep_metrics);
  visit(m.crash_reason);
}

/// Whether an enum value read off the wire is one of its enumerators: the
/// label round trip maps every other value to a different one.
bool is_enumerator(FaultClass fault) {
  return fault_class_from_string(to_string(fault)) == fault;
}
bool is_enumerator(StopReason stop) {
  return stop_reason_from_string(to_string(stop)) == stop;
}

/// Appends the fields a table visits to `payload`.
class PayloadWriter {
 public:
  template <class T>
  void operator()(const T& field) {
    if constexpr (std::is_scalar_v<T>) {
      append(&field, sizeof field);
    } else {
      (*this)(static_cast<std::uint32_t>(field.size()));
      append(field.data(), field.size() * sizeof(typename T::value_type));
    }
  }

  std::string payload;

 private:
  void append(const void* data, std::size_t n) {
    if (n > 0) payload.append(static_cast<const char*>(data), n);
  }
};

/// Bounds-checked reader over a received payload. Fails for good on an
/// overrun, a bool byte other than 0 or 1, an enum value outside its
/// enumerators, or a count the remaining bytes cannot hold.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : rest_(payload) {}

  /// True when every field decoded and no byte is left over.
  bool done() const { return ok_ && rest_.empty(); }

  template <class T>
  void operator()(T& field) {
    if constexpr (std::is_same_v<T, bool>) {
      std::uint8_t byte = 0;
      take(&byte, sizeof byte);
      ok_ = ok_ && byte <= 1;
      field = byte == 1;
    } else if constexpr (std::is_scalar_v<T>) {
      take(&field, sizeof field);
      if constexpr (std::is_enum_v<T>) ok_ = ok_ && is_enumerator(field);
    } else {
      using Element = typename T::value_type;
      std::uint32_t n = 0;
      (*this)(n);
      ok_ = ok_ && n <= rest_.size() / sizeof(Element);
      field.resize(ok_ ? n : 0);
      take(field.data(), field.size() * sizeof(Element));
    }
  }

 private:
  void take(void* out, std::size_t n) {
    ok_ = ok_ && n <= rest_.size();
    if (!ok_ || n == 0) return;
    std::memcpy(out, rest_.data(), n);
    rest_.remove_prefix(n);
  }

  std::string_view rest_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Pipe I/O
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;
constexpr Clock::time_point kNever = Clock::time_point::max();

/// How a frame exchange ended, as this end of the pipe saw it.
enum class IoStatus {
  kOk,        ///< a whole frame was written, or read and checked
  kClosed,    ///< the peer closed its end, before or during the frame
  kTimeout,   ///< the deadline expired
  kBadFrame,  ///< a whole frame (or header) arrived wrong
};

std::string frame(std::uint32_t magic, const std::string& payload) {
  FrameHeader header;
  header.magic = magic;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.checksum = fnv1a64(payload);
  std::string out;
  out.reserve(sizeof header + payload.size());
  out.append(reinterpret_cast<const char*>(&header), sizeof header);
  out += payload;
  return out;
}

IoStatus write_frame(int fd, std::uint32_t magic, const std::string& payload) {
  const std::string bytes = frame(magic, payload);
  // Pipes can short-write past PIPE_BUF; write_all() continues. A failure
  // is EPIPE: the peer is gone.
  return write_all(fd, bytes.data(), bytes.size()) ? IoStatus::kOk
                                                   : IoStatus::kClosed;
}

/// Reads exactly `len` bytes by `deadline` (kNever waits for ever).
IoStatus read_exact(int fd, char* buf, std::size_t len,
                    Clock::time_point deadline) {
  std::size_t got = 0;
  while (got < len) {
    int timeout_ms = -1;
    if (deadline != kNever) {
      const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - Clock::now());
      if (remaining.count() <= 0) return IoStatus::kTimeout;
      timeout_ms = static_cast<int>(remaining.count()) + 1;
    }
    struct pollfd pfd = {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, timeout_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return IoStatus::kBadFrame;  // poll itself failed: give up on the peer
    }
    if (rc == 0) continue;  // re-check the deadline
    const ssize_t n = ::read(fd, buf + got, len - got);
    if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
    if (n <= 0) return IoStatus::kClosed;
    got += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

IoStatus read_frame(int fd, std::uint32_t expected_magic, std::string& payload,
                    Clock::time_point deadline) {
  FrameHeader header;
  IoStatus status = read_exact(fd, reinterpret_cast<char*>(&header),
                               sizeof header, deadline);
  if (status != IoStatus::kOk) return status;
  if (header.magic != expected_magic || header.payload_len > kMaxFrameBytes) {
    return IoStatus::kBadFrame;
  }
  payload.resize(header.payload_len);
  status = read_exact(fd, payload.data(), payload.size(), deadline);
  if (status != IoStatus::kOk) return status;
  return fnv1a64(payload) == header.checksum ? IoStatus::kOk
                                             : IoStatus::kBadFrame;
}

/// Reaps `pid`, waking on the SIGCHLD self-pipe, and SIGKILLs it if it is
/// still alive at `kill_at` (kNever waits for ever). True when it exited
/// by itself, with its wait status in `*status`. A pid that is no longer
/// our child counts as exited and leaves `*status` untouched.
bool reap_by(pid_t pid, Clock::time_point kill_at, int* status) {
  for (bool killed = false;;) {
    const pid_t rc = ::waitpid(pid, status, WNOHANG);
    if (rc == pid || (rc < 0 && errno != EINTR)) {
      ChildRegistry::remove(pid);
      return !killed;
    }
    if (!killed && Clock::now() >= kill_at) {
      ::kill(pid, SIGKILL);
      killed = true;
    }
    struct pollfd pfd = {};
    pfd.fd = child_exit_pipe().fd();
    pfd.events = POLLIN;
    ::poll(&pfd, 1, 10);
    child_exit_pipe().drain();
  }
}

std::string describe_signal(int sig) {
  const char* name = ::strsignal(sig);
  std::string out = "signal " + std::to_string(sig);
  if (name != nullptr) {
    out += " (";
    out += name;
    out += ")";
  }
  return out;
}

/// Classifies a failed request from the cause the parent observed and the
/// worker's own wait status (null when the parent killed it).
Measurement classify_death(IoStatus cause, const int* exit_status,
                           const SandboxOptions& options) {
  Measurement m;
  m.crashed = true;
  m.fault = FaultClass::kCrash;
  if (cause == IoStatus::kTimeout) {
    m.fault = FaultClass::kTimeout;
    m.crash_reason = "sandbox deadline (" +
                     std::to_string(options.eval_deadline_s) +
                     "s) exceeded; worker killed";
  } else if (exit_status == nullptr) {
    // A live worker sent a bad frame and the parent killed it: an
    // infrastructure flake, which the respawned worker may well survive.
    m.fault = FaultClass::kTransient;
    m.crash_reason = "worker sent a bad reply frame; killed";
  } else if (WIFSIGNALED(*exit_status)) {
    const int sig = WTERMSIG(*exit_status);
    if (sig == SIGXCPU) {
      m.fault = FaultClass::kTimeout;
      m.crash_reason = "worker exceeded RLIMIT_CPU (SIGXCPU)";
    } else {
      m.crash_reason = "worker killed by " + describe_signal(sig);
    }
  } else if (WIFEXITED(*exit_status) && WEXITSTATUS(*exit_status) != 0) {
    m.crash_reason = "worker exited with status " +
                     std::to_string(WEXITSTATUS(*exit_status));
  } else {
    // Exit 0 without a whole reply: a torn write, likewise a flake.
    m.fault = FaultClass::kTransient;
    m.crash_reason = "worker sent a torn reply";
  }
  return m;
}

/// The worker's cooperative-stop latch: the parent (or an operator Ctrl-C
/// forwarding through ChildRegistry) sends SIGTERM, the worker finishes its
/// current repetition and replies with what it has.
CancellationToken g_worker_cancel;

extern "C" void jat_worker_sigterm(int) { g_worker_cancel.cancel(); }

/// Deterministic sandbox fault draw, keyed on (seed, fingerprint, salt).
bool injection_draw(std::uint64_t seed, std::uint64_t fingerprint,
                    std::uint64_t salt, double rate) {
  if (rate <= 0.0) return false;
  Rng rng(mix64(seed, mix64(fingerprint, salt)));
  return rng.chance(rate);
}

/// Closes every descriptor from 3 up except `keep_a` and `keep_b`, with one
/// close_range(2) call per gap between them. False when a call fails.
bool close_descriptors_except(int keep_a, int keep_b) {
  unsigned first = 3;
  for (const int keep : {std::min(keep_a, keep_b), std::max(keep_a, keep_b)}) {
    if (keep < static_cast<int>(first)) continue;  // stdio, or a repeat
    const unsigned kept = static_cast<unsigned>(keep);
    if (kept > first && ::close_range(first, kept - 1, 0) != 0) return false;
    first = kept + 1;
  }
  return ::close_range(first, ~0U, 0) == 0;
}

bool in_list(const std::vector<std::uint64_t>& list, std::uint64_t fp) {
  for (const std::uint64_t v : list) {
    if (v == fp) return true;
  }
  return false;
}

}  // namespace

namespace sandbox_wire {

std::string encode_request(const Request& request) {
  PayloadWriter writer;
  request_fields(writer, request);
  return std::move(writer.payload);
}

bool decode_request(std::string_view payload, Request& request) {
  PayloadReader reader(payload);
  request_fields(reader, request);
  return reader.done();
}

std::string encode_reply(const Reply& reply) {
  PayloadWriter writer;
  reply_fields(writer, reply);
  return std::move(writer.payload);
}

bool decode_reply(std::string_view payload, Reply& reply) {
  PayloadReader reader(payload);
  reply_fields(reader, reply);
  return reader.done();
}

}  // namespace sandbox_wire

// ---------------------------------------------------------------------------
// Worker bookkeeping (parent side)
// ---------------------------------------------------------------------------

struct SandboxedEvaluator::Worker {
  std::mutex mutex;       ///< serializes requests to this worker
  std::size_t index = 0;
  pid_t pid = -1;
  int request_fd = -1;    ///< parent writes requests here
  int reply_fd = -1;      ///< parent reads replies here
  std::uint64_t next_seq = 0;
  std::uint64_t generation = 0;  ///< respawn count of this slot

  /// Forgets a reaped worker: closes its pipes, so that the next request
  /// respawns it.
  void forget() {
    for (int* fd : {&request_fd, &reply_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    pid = -1;
  }
};

SandboxedEvaluator::SandboxedEvaluator(Evaluator& inner,
                                       const FlagRegistry& registry,
                                       SandboxOptions options)
    : inner_(&inner), registry_(&registry), options_(options) {
  if (options_.workers == 0) options_.workers = 1;
  workers_.reserve(options_.workers);
  for (std::size_t i = 0; i < options_.workers; ++i) {
    auto worker = std::make_unique<Worker>();
    worker->index = i;
    workers_.push_back(std::move(worker));
  }
}

SandboxedEvaluator::~SandboxedEvaluator() { shutdown(); }

void SandboxedEvaluator::ensure_started() {
  std::lock_guard lock(start_mutex_);
  if (started_) return;
  // A worker that dies while the parent is mid-write must surface as EPIPE,
  // not a fatal SIGPIPE; and the SIGCHLD self-pipe lets the watchdog wake
  // as soon as a child exits instead of sleeping out its grace period.
  struct sigaction sa = {};
  sa.sa_handler = SIG_IGN;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGPIPE, &sa, nullptr);
  child_exit_pipe();
  for (auto& worker : workers_) {
    std::lock_guard worker_lock(worker->mutex);
    spawn(*worker);
  }
  started_ = true;
}

void SandboxedEvaluator::spawn(Worker& worker) {
  int request_pipe[2] = {-1, -1};
  int reply_pipe[2] = {-1, -1};
  if (::pipe(request_pipe) != 0) {
    throw Error("sandbox: pipe() failed: " + std::string(::strerror(errno)));
  }
  if (::pipe(reply_pipe) != 0) {
    ::close(request_pipe[0]);
    ::close(request_pipe[1]);
    throw Error("sandbox: pipe() failed: " + std::string(::strerror(errno)));
  }
  // The registry builds its fingerprint table and its readers' id tables
  // lazily under call_once. Build them here (or wait for the thread
  // building one) so that no worker forks with a table half-built and then
  // blocks on it forever.
  registry_->build_lazy_tables();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(request_pipe[0]);
    ::close(request_pipe[1]);
    ::close(reply_pipe[0]);
    ::close(reply_pipe[1]);
    throw Error("sandbox: fork() failed: " + std::string(::strerror(errno)));
  }
  if (pid == 0) {
    worker_main(parent, request_pipe[0], reply_pipe[1], worker.generation);
  }
  ::close(request_pipe[0]);
  ::close(reply_pipe[1]);
  worker.pid = pid;
  worker.request_fd = request_pipe[1];
  worker.reply_fd = reply_pipe[0];
  ChildRegistry::add(pid);
  emit_event("sandbox_spawn", worker, nullptr);
}

[[noreturn]] void SandboxedEvaluator::worker_main(pid_t parent, int request_fd,
                                                  int reply_fd,
                                                  std::uint64_t generation) {
  // Die with the parent. A worker blocked on its request pipe sees the
  // parent go as EOF, but a wedged or busy one would run on as an orphan.
  // The signal follows the thread that forked this process, so every fork
  // runs on a thread that outlives its worker: the first spawn on the
  // thread that first measures, respawns on the measuring threads, which a
  // session keeps alive past shutdown(). A parent that died before prctl()
  // took effect shows as a changed parent pid.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(0);

  // Drop every descriptor the parent was holding — sibling pipes (so a
  // sibling's EOF is seen the moment it dies), journal, trace, result-db
  // files. Only our two pipe ends and stdio survive.
  if (!close_descriptors_except(request_fd, reply_fd)) {
    // close_range(2) is missing (kernel before 5.9): close one by one, up
    // to a bounded descriptor limit.
    long max_fd = ::sysconf(_SC_OPEN_MAX);
    if (max_fd < 64) max_fd = 64;
    if (max_fd > 4096) max_fd = 4096;
    for (int fd = 3; fd < static_cast<int>(max_fd); ++fd) {
      if (fd != request_fd && fd != reply_fd) ::close(fd);
    }
  }

  // Signals: the terminal delivers Ctrl-C to the whole foreground process
  // group, but drain policy belongs to the parent — it forwards SIGTERM
  // when it wants us to stop cooperatively (finish the current repetition,
  // reply with what we have). SIGCHLD goes back to default: the parent's
  // handler pokes a self-pipe we just closed.
  struct sigaction sa = {};
  sigemptyset(&sa.sa_mask);
  sa.sa_handler = SIG_IGN;
  ::sigaction(SIGINT, &sa, nullptr);
  sa.sa_handler = jat_worker_sigterm;
  ::sigaction(SIGTERM, &sa, nullptr);
  sa.sa_handler = SIG_DFL;
  ::sigaction(SIGCHLD, &sa, nullptr);

  // Resource jail: a CPU-spinning evaluation dies by SIGXCPU (classified
  // kTimeout by the parent), a memory-exploding one by bad_alloc/SIGKILL
  // in its own address space.
  if (options_.rlimit_cpu_s > 0) {
    struct rlimit lim;
    lim.rlim_cur = static_cast<rlim_t>(options_.rlimit_cpu_s);
    lim.rlim_max = static_cast<rlim_t>(options_.rlimit_cpu_s + 5);
    ::setrlimit(RLIMIT_CPU, &lim);
  }
  if (options_.rlimit_as_mb > 0) {
    struct rlimit lim;
    lim.rlim_cur = static_cast<rlim_t>(options_.rlimit_as_mb) << 20;
    lim.rlim_max = lim.rlim_cur;
    ::setrlimit(RLIMIT_AS, &lim);
  }

  if (runner_ != nullptr) {
    // The trace sink, journal, and cancellation token are parent-side
    // concerns; this process measures, replies, and nothing else.
    runner_->set_trace_sink(nullptr);
    runner_->set_cancellation(&g_worker_cancel);
  }

  const SandboxFaultInjection& inject = options_.inject;
  for (;;) {
    std::string payload;
    const IoStatus status =
        read_frame(request_fd, kRequestMagic, payload, kNever);
    if (status == IoStatus::kClosed) ::_exit(0);  // parent closed: shutdown
    if (status != IoStatus::kOk) ::_exit(3);
    sandbox_wire::Request req;
    if (!sandbox_wire::decode_request(payload, req)) ::_exit(4);

    // Sandbox-level fault injection: these are *real* process faults, not
    // modelled ones — the parent must observe and classify actual death.
    const bool inject_kill =
        in_list(inject.kill_fingerprints, req.fingerprint) ||
        injection_draw(inject.seed, req.fingerprint, 0x11, inject.kill_rate);
    const bool inject_wedge =
        in_list(inject.wedge_fingerprints, req.fingerprint) ||
        injection_draw(inject.seed, req.fingerprint, 0x22, inject.wedge_rate);
    const bool inject_torn =
        (generation == 0 && in_list(inject.torn_fingerprints, req.fingerprint)) ||
        injection_draw(inject.seed, req.fingerprint, mix64(0x33, generation),
                       inject.torn_rate);
    if (inject_kill) ::raise(SIGKILL);
    if (inject_wedge) {
      // A truly wedged target ignores polite signals; only the watchdog's
      // SIGKILL ends it.
      sa.sa_handler = SIG_IGN;
      ::sigaction(SIGTERM, &sa, nullptr);
      // A statement, not `++spin`: C++20 deprecates ++ on a volatile.
      volatile std::uint64_t spin = 0;
      for (;;) {
        spin = spin + 1;
      }
    }

    if (runner_ != nullptr) {
      runner_->set_time_limit(SimTime::micros(req.time_limit_us));
      runner_->set_racing_floor_ms(req.racing_floor_ms);
    }
    const EvalCounters before = inner_->counters();

    // Shadow budget primed to the parent's position: the wrapped runner's
    // mid-measurement expiry cuts fire at exactly the same repetition they
    // would have in-process.
    BudgetClock shadow(SimTime::micros(req.total_us));
    shadow.charge(SimTime::micros(req.spent_us));
    MeteredBudget meter(&shadow);
    sandbox_wire::Reply reply;
    reply.seq = req.seq;
    try {
      // Fingerprinted once, here: a configuration that does not reproduce
      // the request's fingerprint is refused before it is measured.
      const Configuration config =
          parse_command_line(*registry_, req.command_line);
      if (config.fingerprint() != req.fingerprint) ::_exit(6);
      reply.measurement =
          inner_->measure(config, req.fingerprint, &meter, req.hints);
    } catch (...) {
      ::_exit(7);  // the parent classifies both deaths as kCrash
    }
    reply.cost_us = meter.metered().as_micros();
    reply.delta = inner_->counters();
    reply.delta -= before;
    if (runner_ != nullptr) reply.racing_floor_ms = runner_->racing_floor_ms();

    const std::string encoded = sandbox_wire::encode_reply(reply);
    if (inject_torn) {
      // Write half a frame, then exit 0: the parent sees the pipe close
      // mid-frame, and a clean exit without a whole reply is a torn reply.
      const std::string bytes = frame(kReplyMagic, encoded);
      write_all(reply_fd, bytes.data(),
                sizeof(FrameHeader) + encoded.size() / 2);
      ::_exit(0);
    }
    if (write_frame(reply_fd, kReplyMagic, encoded) != IoStatus::kOk) {
      ::_exit(5);
    }
  }
}

// ---------------------------------------------------------------------------
// Parent-side request path
// ---------------------------------------------------------------------------

void SandboxedEvaluator::emit_event(const char* name, const Worker& worker,
                                    BudgetClock* budget, const char* key,
                                    const std::string& value) {
  if (trace_ == nullptr) return;
  const SimTime at = budget != nullptr ? budget->spent() : SimTime::zero();
  if (key != nullptr) {
    trace_->emit(TraceEvent(name, at)
                     .with("worker", static_cast<std::int64_t>(worker.index))
                     .with("pid", static_cast<std::int64_t>(worker.pid))
                     .with(key, value));
  } else {
    trace_->emit(TraceEvent(name, at)
                     .with("worker", static_cast<std::int64_t>(worker.index))
                     .with("pid", static_cast<std::int64_t>(worker.pid)));
  }
}

namespace {

/// Grace between the watchdog's SIGTERM and its SIGKILL.
constexpr auto kKillGrace = std::chrono::milliseconds(500);
/// Simulated budget charged for a worker crash (spawn + failure detection;
/// the same as FaultOptions::failure_cost) and for a deadline kill (the
/// harness paid for the full hang; the same as FaultOptions::hang_timeout).
constexpr SimTime kCrashCost = SimTime::seconds(3);
constexpr SimTime kHangCost = SimTime::seconds(60);

}  // namespace

Measurement SandboxedEvaluator::measure(const Configuration& config,
                                        std::uint64_t fingerprint,
                                        BudgetClock* budget,
                                        const EvalHints& hints) {
  ensure_started();
  // Fingerprint routing: repeats land on the worker whose copy-on-write
  // result cache already holds them, so cache-hit accounting matches the
  // in-process path exactly.
  Worker& worker = *workers_[fingerprint % workers_.size()];
  std::lock_guard lock(worker.mutex);

  if (worker.pid < 0) {
    worker.generation += 1;
    spawn(worker);
    {
      std::lock_guard stats_lock(stats_mutex_);
      ++workers_respawned_;
    }
    emit_event("worker_respawn", worker, budget);
  }

  sandbox_wire::Request req;
  req.seq = worker.next_seq++;
  req.fingerprint = fingerprint;
  req.spent_us = budget != nullptr ? budget->spent().as_micros() : 0;
  req.total_us = budget != nullptr ? budget->total().as_micros()
                                   : SimTime::infinite().as_micros();
  req.time_limit_us = runner_ != nullptr ? runner_->time_limit().as_micros()
                                         : SimTime::infinite().as_micros();
  req.racing_floor_ms = runner_ != nullptr ? runner_->racing_floor_ms() : 0.0;
  req.hints = hints;
  req.command_line = config.render_command_line();

  const auto deadline =
      options_.eval_deadline_s > 0.0
          ? Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(
                               options_.eval_deadline_s * 1e6))
          : kNever;
  IoStatus io = write_frame(worker.request_fd, kRequestMagic,
                            sandbox_wire::encode_request(req));
  std::string payload;
  if (io == IoStatus::kOk) {
    io = read_frame(worker.reply_fd, kReplyMagic, payload, deadline);
  }
  sandbox_wire::Reply reply;
  if (io == IoStatus::kOk &&
      !(sandbox_wire::decode_reply(payload, reply) && reply.seq == req.seq &&
        reply.measurement.config_fingerprint == fingerprint)) {
    io = IoStatus::kBadFrame;
  }

  if (io != IoStatus::kOk) {
    // End the worker. A closed pipe means it is exiting: wait for it. The
    // watchdog sends SIGTERM (a cooperating worker finishes its repetition
    // and exits) and kills after the grace period; a bad frame kills at
    // once, unless the worker already exited.
    Clock::time_point kill_at = kNever;
    if (io == IoStatus::kTimeout) {
      emit_event("sandbox_kill", worker, budget, "stage", "term");
      ::kill(worker.pid, SIGTERM);
      kill_at = Clock::now() + kKillGrace;
    } else if (io == IoStatus::kBadFrame) {
      kill_at = Clock::now();
    }
    int status = 0;
    const bool exited = reap_by(worker.pid, kill_at, &status);
    if (!exited && io == IoStatus::kTimeout) {
      emit_event("sandbox_kill", worker, budget, "stage", "kill");
    }
    Measurement m = classify_death(io, exited ? &status : nullptr, options_);
    m.config_fingerprint = fingerprint;
    if (budget != nullptr) {
      budget->charge(m.fault == FaultClass::kTimeout ? kHangCost : kCrashCost);
    }
    emit_event("worker_exit", worker, budget, "cause",
               io == IoStatus::kTimeout
                   ? std::string("deadline")
                   : std::string(to_string(m.fault)) + ": " + m.crash_reason);
    {
      std::lock_guard stats_lock(stats_mutex_);
      count_fault(counters_.faults, m.fault);
    }
    worker.forget();
    return m;
  }

  // Clean reply: the worker's measurement, its summary recomputed as the
  // journal replay path does, and its exact int64-µs cost.
  Measurement m = std::move(reply.measurement);
  if (!m.times_ms.empty()) m.summary = summarize(m.times_ms);
  if (budget != nullptr && reply.cost_us > 0) {
    budget->charge(SimTime::micros(reply.cost_us));
  }
  if (runner_ != nullptr) {
    runner_->merge_racing_floor_ms(reply.racing_floor_ms);
  }
  {
    std::lock_guard stats_lock(stats_mutex_);
    counters_ += reply.delta;
  }
  if (trace_ != nullptr && reply.delta.cache_hits > 0) {
    // Mirror the worker-side cache hit into the parent trace so reports
    // derived from the trace stay complete.
    trace_->emit(TraceEvent("cache_hit",
                            budget != nullptr ? budget->spent() : SimTime::zero())
                     .with("fingerprint", fingerprint_hex(fingerprint))
                     .with("joined", false));
  }
  if (trace_ != nullptr && reply.delta.store_hits > 0) {
    // Likewise mirror worker-side store hits (at most one per request:
    // each request measures a single configuration).
    trace_->emit(TraceEvent("store_hit",
                            budget != nullptr ? budget->spent() : SimTime::zero())
                     .with("fingerprint", fingerprint_hex(fingerprint)));
  }
  return m;
}

// ---------------------------------------------------------------------------
// Introspection and shutdown
// ---------------------------------------------------------------------------

EvalCounters SandboxedEvaluator::counters() const {
  EvalCounters counters = inner_->counters();
  std::lock_guard lock(stats_mutex_);
  counters += counters_;
  return counters;
}

std::int64_t SandboxedEvaluator::workers_respawned() const {
  std::lock_guard lock(stats_mutex_);
  return workers_respawned_;
}

void SandboxedEvaluator::shutdown() {
  std::lock_guard start_lock(start_mutex_);
  if (!started_) return;
  // Phase 1: close every request pipe; idle workers see EOF and exit.
  for (auto& worker : workers_) {
    std::lock_guard lock(worker->mutex);
    if (worker->request_fd >= 0) {
      ::close(worker->request_fd);
      worker->request_fd = -1;
    }
  }
  // Phase 2: give them a moment, then SIGKILL stragglers and reap.
  for (auto& worker : workers_) {
    std::lock_guard lock(worker->mutex);
    if (worker->pid <= 0) continue;
    int status = 0;
    reap_by(worker->pid, Clock::now() + std::chrono::milliseconds(500),
            &status);
    worker->forget();
  }
  started_ = false;
}

}  // namespace jat
