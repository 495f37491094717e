#include "harness/sandbox.hpp"

#include <poll.h>
#include <signal.h>
#include <string.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <string>
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
// The payload is a flat little scalar encoding (this is a fork, both ends
// are the same binary on the same machine — no endianness or layout
// negotiation needed, only torn-write detection, which the length prefix
// plus checksum provides). Doubles are shipped as raw bit patterns, so a
// measurement is bit-identical after the round trip.
// ---------------------------------------------------------------------------

constexpr std::uint32_t kRequestMagic = 0x4a415251;  // "JARQ"
constexpr std::uint32_t kReplyMagic = 0x4a415250;    // "JARP"
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;
constexpr std::size_t kFaultStatsFields = 13;

struct FrameHeader {
  std::uint32_t magic;
  std::uint32_t payload_len;
  std::uint64_t checksum;
};

void append_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void append_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void append_i64(std::string& out, std::int64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void append_f64(std::string& out, double v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Bounds-checked sequential reader over a received payload. ok() goes
/// false on any overrun; the caller treats that as a torn frame.
class PayloadReader {
 public:
  PayloadReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool ok() const { return ok_; }
  bool exhausted() const { return pos_ == size_; }

  std::uint32_t u32() { return scalar<std::uint32_t>(); }
  std::uint64_t u64() { return scalar<std::uint64_t>(); }
  std::int64_t i64() { return scalar<std::int64_t>(); }
  double f64() { return scalar<double>(); }
  std::uint8_t u8() { return scalar<std::uint8_t>(); }

  std::string bytes(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return {};
    }
    std::string out(data_ + pos_, n);
    pos_ += n;
    return out;
  }

 private:
  template <typename T>
  T scalar() {
    T v{};
    if (!ok_ || size_ - pos_ < sizeof v) {
      ok_ = false;
      return v;
    }
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

struct Request {
  std::uint64_t seq = 0;
  std::uint64_t fingerprint = 0;
  std::int64_t spent_us = 0;
  std::int64_t total_us = 0;
  std::int64_t time_limit_us = 0;
  double racing_floor_ms = 0.0;
  // EvalHints across the process boundary: the incumbent's running
  // statistics (serialized moments) for the adaptive racing decision, and
  // the top-up flag. Zero count means no incumbent.
  bool top_up = false;
  std::uint64_t incumbent_count = 0;
  double incumbent_mean = 0.0;
  double incumbent_m2 = 0.0;
  std::string command_line;
};

std::string encode_request(const Request& req) {
  std::string p;
  append_u64(p, req.seq);
  append_u64(p, req.fingerprint);
  append_i64(p, req.spent_us);
  append_i64(p, req.total_us);
  append_i64(p, req.time_limit_us);
  append_f64(p, req.racing_floor_ms);
  p.push_back(req.top_up ? 1 : 0);
  append_u64(p, req.incumbent_count);
  append_f64(p, req.incumbent_mean);
  append_f64(p, req.incumbent_m2);
  append_u32(p, static_cast<std::uint32_t>(req.command_line.size()));
  p += req.command_line;
  return p;
}

bool decode_request(const std::string& payload, Request& req) {
  PayloadReader r(payload.data(), payload.size());
  req.seq = r.u64();
  req.fingerprint = r.u64();
  req.spent_us = r.i64();
  req.total_us = r.i64();
  req.time_limit_us = r.i64();
  req.racing_floor_ms = r.f64();
  req.top_up = r.u8() != 0;
  req.incumbent_count = r.u64();
  req.incumbent_mean = r.f64();
  req.incumbent_m2 = r.f64();
  const std::uint32_t len = r.u32();
  req.command_line = r.bytes(len);
  return r.ok() && r.exhausted();
}

struct Reply {
  std::uint64_t seq = 0;
  std::uint64_t fingerprint = 0;
  bool crashed = false;
  FaultClass fault = FaultClass::kNone;
  StopReason stop = StopReason::kFull;
  std::int32_t attempts = 1;
  std::int32_t failed_reps = 0;
  std::int64_t cost_us = 0;
  /// Change of the wrapped evaluator's counters over this request.
  EvalCounters delta;
  double racing_floor_ms = 0.0;
  std::vector<double> times_ms;
  /// Per-repetition metric matrix, rows aligned with times_ms; doubles
  /// cross the pipe as raw bit patterns, so the parent rebuilds the exact
  /// metric vectors the worker's runner recorded.
  std::vector<MetricVector> rep_metrics;
  std::string crash_reason;
};

void append_stats(std::string& p, const FaultStats& s) {
  append_u32(p, static_cast<std::uint32_t>(kFaultStatsFields));
  for_each_fault_counter(
      [&p](const char*, std::int64_t value) { append_i64(p, value); }, s);
}

bool read_stats(PayloadReader& r, FaultStats& s) {
  if (r.u32() != kFaultStatsFields) return false;
  for_each_fault_counter(
      [&r](const char*, std::int64_t& value) { value = r.i64(); }, s);
  return r.ok();
}

std::string encode_reply(const Reply& reply) {
  std::string p;
  append_u64(p, reply.seq);
  append_u64(p, reply.fingerprint);
  p.push_back(reply.crashed ? 1 : 0);
  p.push_back(static_cast<char>(reply.fault));
  p.push_back(static_cast<char>(reply.stop));
  append_i64(p, reply.attempts);
  append_i64(p, reply.failed_reps);
  append_i64(p, reply.cost_us);
  append_i64(p, reply.delta.runs);
  append_i64(p, reply.delta.simulations);
  append_i64(p, reply.delta.cache_hits);
  append_i64(p, reply.delta.store_hits);
  append_i64(p, reply.delta.store_appends);
  append_f64(p, reply.racing_floor_ms);
  append_stats(p, reply.delta.faults);
  append_u32(p, static_cast<std::uint32_t>(reply.times_ms.size()));
  for (const double t : reply.times_ms) append_f64(p, t);
  append_u32(p, static_cast<std::uint32_t>(kMetricCount));
  append_u32(p, static_cast<std::uint32_t>(reply.rep_metrics.size()));
  for (const MetricVector& row : reply.rep_metrics) {
    for (const double v : row.v) append_f64(p, v);
  }
  append_u32(p, static_cast<std::uint32_t>(reply.crash_reason.size()));
  p += reply.crash_reason;
  return p;
}

bool decode_reply(const std::string& payload, Reply& reply) {
  PayloadReader r(payload.data(), payload.size());
  reply.seq = r.u64();
  reply.fingerprint = r.u64();
  reply.crashed = r.u8() != 0;
  reply.fault = static_cast<FaultClass>(r.u8());
  reply.stop = static_cast<StopReason>(r.u8());
  reply.attempts = static_cast<std::int32_t>(r.i64());
  reply.failed_reps = static_cast<std::int32_t>(r.i64());
  reply.cost_us = r.i64();
  reply.delta.runs = r.i64();
  reply.delta.simulations = r.i64();
  reply.delta.cache_hits = r.i64();
  reply.delta.store_hits = r.i64();
  reply.delta.store_appends = r.i64();
  reply.racing_floor_ms = r.f64();
  if (!read_stats(r, reply.delta.faults)) return false;
  const std::uint32_t n = r.u32();
  if (!r.ok() || n > kMaxFrameBytes / sizeof(double)) return false;
  reply.times_ms.clear();
  reply.times_ms.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) reply.times_ms.push_back(r.f64());
  const std::uint32_t metric_cols = r.u32();
  const std::uint32_t metric_rows = r.u32();
  if (!r.ok() || metric_cols != static_cast<std::uint32_t>(kMetricCount) ||
      metric_rows > kMaxFrameBytes / (sizeof(double) * kMetricCount)) {
    return false;
  }
  reply.rep_metrics.clear();
  reply.rep_metrics.reserve(metric_rows);
  for (std::uint32_t i = 0; i < metric_rows; ++i) {
    MetricVector row;
    for (double& v : row.v) v = r.f64();
    reply.rep_metrics.push_back(row);
  }
  const std::uint32_t reason_len = r.u32();
  reply.crash_reason = r.bytes(reason_len);
  return r.ok() && r.exhausted();
}

// ---------------------------------------------------------------------------
// Pipe I/O
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

enum class IoStatus {
  kOk,       ///< full frame read/written
  kEof,      ///< peer closed before the *first* byte of the frame
  kTorn,     ///< peer closed (or babbled) mid-frame / checksum mismatch
  kTimeout,  ///< deadline expired
};

IoStatus write_frame(int fd, std::uint32_t magic, const std::string& payload) {
  FrameHeader header;
  header.magic = magic;
  header.payload_len = static_cast<std::uint32_t>(payload.size());
  header.checksum = fnv1a64(payload);
  std::string frame;
  frame.reserve(sizeof header + payload.size());
  frame.append(reinterpret_cast<const char*>(&header), sizeof header);
  frame += payload;
  // Pipes can short-write past PIPE_BUF; write_all() continues. A failure
  // is EPIPE: the peer is gone.
  return write_all(fd, frame.data(), frame.size()) ? IoStatus::kOk
                                                   : IoStatus::kEof;
}

/// Reads exactly `len` bytes, honouring an optional wall-clock deadline.
/// `*got` reports how many bytes arrived (torn-frame detection).
IoStatus read_exact(int fd, char* buf, std::size_t len, bool has_deadline,
                    Clock::time_point deadline, std::size_t* got) {
  *got = 0;
  while (*got < len) {
    int timeout_ms = -1;
    if (has_deadline) {
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
      return IoStatus::kTorn;
    }
    if (rc == 0) continue;  // re-check the deadline
    const ssize_t n = ::read(fd, buf + *got, len - *got);
    if (n == 0) return IoStatus::kEof;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      return IoStatus::kEof;
    }
    *got += static_cast<std::size_t>(n);
  }
  return IoStatus::kOk;
}

/// Reads one frame. kEof only when the pipe closed cleanly *between*
/// frames; a death or garbage mid-frame is kTorn.
IoStatus read_frame(int fd, std::uint32_t expected_magic, std::string& payload,
                    bool has_deadline, Clock::time_point deadline) {
  FrameHeader header;
  std::size_t got = 0;
  IoStatus status = read_exact(fd, reinterpret_cast<char*>(&header),
                               sizeof header, has_deadline, deadline, &got);
  if (status == IoStatus::kEof && got > 0) return IoStatus::kTorn;
  if (status != IoStatus::kOk) return status;
  if (header.magic != expected_magic || header.payload_len > kMaxFrameBytes) {
    return IoStatus::kTorn;
  }
  payload.resize(header.payload_len);
  if (header.payload_len > 0) {
    status = read_exact(fd, payload.data(), payload.size(), has_deadline,
                        deadline, &got);
    if (status == IoStatus::kEof) return IoStatus::kTorn;
    if (status != IoStatus::kOk) return status;
  }
  if (fnv1a64(payload) != header.checksum) return IoStatus::kTorn;
  return IoStatus::kOk;
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
  // The registry builds its fingerprint table lazily under call_once. Build
  // it here (or wait for the thread building it) so that no worker forks
  // with the table half-built and then blocks on it forever.
  (void)registry_->default_fingerprint_terms();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(request_pipe[0]);
    ::close(request_pipe[1]);
    ::close(reply_pipe[0]);
    ::close(reply_pipe[1]);
    throw Error("sandbox: fork() failed: " + std::string(::strerror(errno)));
  }
  if (pid == 0) {
    worker_main(request_pipe[0], reply_pipe[1], worker.generation);
  }
  ::close(request_pipe[0]);
  ::close(reply_pipe[1]);
  worker.pid = pid;
  worker.request_fd = request_pipe[1];
  worker.reply_fd = reply_pipe[0];
  ChildRegistry::add(pid);
  {
    std::lock_guard lock(stats_mutex_);
    ++workers_spawned_;
  }
  emit_event("sandbox_spawn", worker, nullptr);
}

[[noreturn]] void SandboxedEvaluator::worker_main(int request_fd, int reply_fd,
                                                  std::uint64_t generation) {
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
    const IoStatus status = read_frame(request_fd, kRequestMagic, payload,
                                       /*has_deadline=*/false, {});
    if (status == IoStatus::kEof) ::_exit(0);  // parent closed: shutdown
    if (status != IoStatus::kOk) ::_exit(3);
    Request req;
    if (!decode_request(payload, req)) ::_exit(4);

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

    Reply reply;
    reply.seq = req.seq;
    reply.fingerprint = req.fingerprint;
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
    EvalHints hints;
    hints.top_up = req.top_up;
    hints.incumbent.count = static_cast<std::size_t>(req.incumbent_count);
    hints.incumbent.mean = req.incumbent_mean;
    hints.incumbent.m2 = req.incumbent_m2;
    Measurement m;
    try {
      m = inner_->measure(parse_command_line(*registry_, req.command_line),
                          &meter, hints);
    } catch (...) {
      ::_exit(7);  // the parent classifies this death as kCrash
    }
    if (m.config_fingerprint != req.fingerprint) ::_exit(6);

    reply.crashed = m.crashed;
    reply.fault = m.fault;
    reply.stop = m.stop;
    reply.attempts = m.attempts;
    reply.failed_reps = m.failed_reps;
    reply.cost_us = meter.metered().as_micros();
    reply.times_ms = m.times_ms;
    reply.rep_metrics = m.rep_metrics;
    reply.crash_reason = m.crash_reason;
    reply.delta = inner_->counters();
    reply.delta -= before;
    if (runner_ != nullptr) reply.racing_floor_ms = runner_->racing_floor_ms();

    const std::string encoded = encode_reply(reply);
    if (inject_torn) {
      // Write a deliberately truncated frame, then die "cleanly": the
      // parent must detect the tear by length/checksum, not exit status.
      FrameHeader header;
      header.magic = kReplyMagic;
      header.payload_len = static_cast<std::uint32_t>(encoded.size());
      header.checksum = fnv1a64(encoded);
      std::string frame;
      frame.append(reinterpret_cast<const char*>(&header), sizeof header);
      frame += encoded.substr(0, encoded.size() / 2);
      write_all(reply_fd, frame.data(), frame.size());
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
  trace_->metrics().add(std::string("sandbox.") + name);
}

/// Reaps the worker and classifies its death. `deadline_expired` selects
/// the watchdog path (we did the killing); otherwise the exit status tells
/// the story.
Measurement SandboxedEvaluator::classify_death(Worker& worker,
                                               std::uint64_t fingerprint,
                                               BudgetClock* budget,
                                               bool deadline_expired) {
  int status = 0;
  ::waitpid(worker.pid, &status, 0);
  ChildRegistry::remove(worker.pid);

  Measurement m;
  m.config_fingerprint = fingerprint;
  m.crashed = true;
  SimTime cost = options_.crash_cost;
  if (deadline_expired) {
    m.fault = FaultClass::kTimeout;
    m.crash_reason = "sandbox deadline (" +
                     std::to_string(options_.eval_deadline_s) +
                     "s) exceeded; worker killed";
    cost = options_.hang_cost;
  } else if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    if (sig == SIGXCPU) {
      m.fault = FaultClass::kTimeout;
      m.crash_reason = "worker exceeded RLIMIT_CPU (SIGXCPU)";
      cost = options_.hang_cost;
    } else {
      m.fault = FaultClass::kCrash;
      m.crash_reason = "worker killed by " + describe_signal(sig);
    }
  } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    m.fault = FaultClass::kCrash;
    m.crash_reason =
        "worker exited with status " + std::to_string(WEXITSTATUS(status));
  } else {
    // Exit 0 without a (complete) reply: a torn write, which is an
    // infrastructure flake — the respawned worker may well succeed.
    m.fault = FaultClass::kTransient;
    m.crash_reason = "worker sent a torn reply";
  }
  if (budget != nullptr) budget->charge(cost);

  emit_event("worker_exit", worker, budget, "cause",
             deadline_expired ? std::string("deadline")
                              : std::string(to_string(m.fault)) + ": " +
                                    m.crash_reason);
  {
    std::lock_guard lock(stats_mutex_);
    count_fault(counters_.faults, m.fault);
    if (deadline_expired) {
      ++deadline_kills_;
    } else if (m.fault == FaultClass::kTransient) {
      ++torn_replies_;
    } else {
      ++worker_crashes_;
    }
  }

  ::close(worker.request_fd);
  ::close(worker.reply_fd);
  worker.request_fd = -1;
  worker.reply_fd = -1;
  worker.pid = -1;  // respawned lazily by the next request
  return m;
}

void SandboxedEvaluator::retire(Worker& worker, int kill_sig) {
  if (worker.pid <= 0) return;
  ::kill(worker.pid, kill_sig);
}

Measurement SandboxedEvaluator::measure(const Configuration& config,
                                        BudgetClock* budget,
                                        const EvalHints& hints) {
  ensure_started();
  const std::uint64_t fingerprint = config.fingerprint();
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

  Request req;
  req.seq = worker.next_seq++;
  req.fingerprint = fingerprint;
  req.spent_us = budget != nullptr ? budget->spent().as_micros() : 0;
  req.total_us = budget != nullptr ? budget->total().as_micros()
                                   : SimTime::infinite().as_micros();
  req.time_limit_us = runner_ != nullptr ? runner_->time_limit().as_micros()
                                         : SimTime::infinite().as_micros();
  req.racing_floor_ms = runner_ != nullptr ? runner_->racing_floor_ms() : 0.0;
  req.top_up = hints.top_up;
  req.incumbent_count = static_cast<std::uint64_t>(hints.incumbent.count);
  req.incumbent_mean = hints.incumbent.mean;
  req.incumbent_m2 = hints.incumbent.m2;
  req.command_line = config.render_command_line();

  const bool has_deadline = options_.eval_deadline_s > 0.0;
  const auto deadline =
      Clock::now() + std::chrono::microseconds(static_cast<std::int64_t>(
                         options_.eval_deadline_s * 1e6));

  if (write_frame(worker.request_fd, kRequestMagic, encode_request(req)) !=
      IoStatus::kOk) {
    // The worker died between requests; classify whatever killed it.
    return classify_death(worker, fingerprint, budget,
                          /*deadline_expired=*/false);
  }

  std::string payload;
  IoStatus status =
      read_frame(worker.reply_fd, kReplyMagic, payload, has_deadline, deadline);

  if (status == IoStatus::kTimeout) {
    // Watchdog escalation: SIGTERM first (a cooperating worker finishes
    // its repetition and exits or replies — we no longer want the reply),
    // SIGKILL after the grace period ends the wedged ones.
    emit_event("sandbox_kill", worker, budget, "stage", "term");
    retire(worker, SIGTERM);
    const auto grace_deadline =
        Clock::now() + std::chrono::milliseconds(options_.kill_grace_ms);
    bool exited = false;
    while (Clock::now() < grace_deadline) {
      int wait_status = 0;
      if (::waitpid(worker.pid, &wait_status, WNOHANG) == worker.pid) {
        // Reaped here; classify_death's waitpid below becomes a no-op
        // (ECHILD) — feed it the deadline path regardless.
        exited = true;
        break;
      }
      struct pollfd pfd = {};
      pfd.fd = child_exit_pipe().fd();
      pfd.events = POLLIN;
      ::poll(&pfd, 1, 10);
      child_exit_pipe().drain();
    }
    if (!exited) {
      emit_event("sandbox_kill", worker, budget, "stage", "kill");
      retire(worker, SIGKILL);
    }
    return classify_death(worker, fingerprint, budget,
                          /*deadline_expired=*/true);
  }
  if (status == IoStatus::kEof) {
    return classify_death(worker, fingerprint, budget,
                          /*deadline_expired=*/false);
  }

  Reply reply;
  if (status == IoStatus::kOk) {
    if (!decode_reply(payload, reply) || reply.seq != req.seq ||
        reply.fingerprint != fingerprint) {
      status = IoStatus::kTorn;
    }
  }
  if (status == IoStatus::kTorn) {
    // Either the worker died mid-write (its exit status explains why) or
    // it is babbling garbage (kill it; classified as a torn reply).
    int wait_status = 0;
    if (::waitpid(worker.pid, &wait_status, WNOHANG) != worker.pid) {
      retire(worker, SIGKILL);
    } else {
      // Already reaped: hand classify_death the status via a second
      // waitpid that will fail, so synthesize from what we saw. Simplest
      // honest summary: the pipe tore.
    }
    return classify_death(worker, fingerprint, budget,
                          /*deadline_expired=*/false);
  }

  // Clean reply: rebuild the Measurement exactly as the journal replay
  // path does — raw times, recomputed summary, exact int64-µs cost.
  Measurement m;
  m.config_fingerprint = fingerprint;
  m.times_ms = std::move(reply.times_ms);
  m.rep_metrics = std::move(reply.rep_metrics);
  m.crashed = reply.crashed;
  m.crash_reason = std::move(reply.crash_reason);
  m.fault = reply.fault;
  m.stop = reply.stop;
  m.attempts = reply.attempts;
  m.failed_reps = reply.failed_reps;
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
    trace_->metrics().add("runner.cache_hits");
  }
  if (trace_ != nullptr && reply.delta.store_hits > 0) {
    // Likewise mirror worker-side store hits (at most one per request:
    // each request measures a single configuration).
    trace_->emit(TraceEvent("store_hit",
                            budget != nullptr ? budget->spent() : SimTime::zero())
                     .with("fingerprint", fingerprint_hex(fingerprint)));
    trace_->metrics().add("runner.store_hits");
  }
  if (trace_ != nullptr && reply.delta.store_appends > 0) {
    trace_->metrics().add("runner.store_appends", reply.delta.store_appends);
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

std::int64_t SandboxedEvaluator::workers_spawned() const {
  std::lock_guard lock(stats_mutex_);
  return workers_spawned_;
}

std::int64_t SandboxedEvaluator::workers_respawned() const {
  std::lock_guard lock(stats_mutex_);
  return workers_respawned_;
}

std::int64_t SandboxedEvaluator::deadline_kills() const {
  std::lock_guard lock(stats_mutex_);
  return deadline_kills_;
}

std::int64_t SandboxedEvaluator::worker_crashes() const {
  std::lock_guard lock(stats_mutex_);
  return worker_crashes_;
}

std::int64_t SandboxedEvaluator::torn_replies() const {
  std::lock_guard lock(stats_mutex_);
  return torn_replies_;
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
    bool reaped = false;
    const auto deadline = Clock::now() + std::chrono::milliseconds(500);
    while (Clock::now() < deadline) {
      if (::waitpid(worker->pid, &status, WNOHANG) == worker->pid) {
        reaped = true;
        break;
      }
      struct pollfd pfd = {};
      pfd.fd = child_exit_pipe().fd();
      pfd.events = POLLIN;
      ::poll(&pfd, 1, 10);
      child_exit_pipe().drain();
    }
    if (!reaped) {
      ::kill(worker->pid, SIGKILL);
      ::waitpid(worker->pid, &status, 0);
    }
    ChildRegistry::remove(worker->pid);
    if (worker->reply_fd >= 0) {
      ::close(worker->reply_fd);
      worker->reply_fd = -1;
    }
    worker->pid = -1;
  }
  started_ = false;
}

}  // namespace jat
