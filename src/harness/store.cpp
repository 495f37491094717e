#include "harness/store.hpp"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "harness/journal.hpp"
#include "support/log.hpp"
#include "support/rng.hpp"
#include "support/statistics.hpp"
#include "support/trace.hpp"

namespace jat {

namespace {

constexpr const char* kStoreFileName = "store.jsonl";

/// Whole-buffer write; short writes continue, EINTR retries.
bool write_all(int fd, const char* data, std::size_t len) {
  std::size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::write(fd, data + sent, len - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

TraceEvent result_to_event(const StoreRecord& rec) {
  TraceEvent event("store_result");
  // Doubles travel as %.17g strings (the journal's convention), so a
  // store hit rebuilds every bit of the original measurement.
  event.fields.emplace_back("space", fingerprint_hex(rec.key.space_fingerprint));
  event.fields.emplace_back("wl", fingerprint_hex(rec.key.workload_fingerprint));
  event.fields.emplace_back("cfg", fingerprint_hex(rec.key.config_fingerprint));
  event.fields.emplace_back("objective", rec.key.objective);
  event.fields.emplace_back("workload", rec.workload);
  event.fields.emplace_back("value", journal_render_double(rec.objective_value));
  event.fields.emplace_back("times_ms", journal_render_doubles(rec.times_ms));
  if (!rec.rep_metrics.empty()) {
    std::vector<double> flat;
    flat.reserve(rec.rep_metrics.size() * kMetricCount);
    for (const MetricVector& row : rec.rep_metrics) {
      flat.insert(flat.end(), row.v.begin(), row.v.end());
    }
    event.fields.emplace_back("metric_cols",
                              static_cast<std::int64_t>(kMetricCount));
    event.fields.emplace_back("metrics", journal_render_doubles(flat));
  }
  return std::move(event)
      .with("stop", std::string(to_string(rec.stop)))
      .with("failed_reps", static_cast<std::int64_t>(rec.failed_reps))
      .with("seed", std::to_string(rec.seed))
      .with("command_line", rec.command_line);
}

TraceEvent workload_to_event(const StoreWorkloadInfo& info) {
  TraceEvent event("store_workload");
  event.fields.emplace_back("space", fingerprint_hex(info.space_fingerprint));
  event.fields.emplace_back("wl", fingerprint_hex(info.workload_fingerprint));
  event.fields.emplace_back("name", info.name);
  event.fields.emplace_back("features", journal_render_doubles(info.features));
  return event;
}

/// TraceEvent::get_int's reading of a value: numbers truncate toward zero,
/// booleans read 0 or 1, strings read `fallback`. A double outside the
/// int64 range reads as INT64_MIN, what the conversion gives on x86-64,
/// instead of being undefined.
std::int64_t int_value(const JsonFieldValue& value, std::int64_t fallback) {
  if (const auto* i = std::get_if<std::int64_t>(&value)) return *i;
  if (const auto* d = std::get_if<double>(&value)) {
    constexpr double kLimit = 9223372036854775808.0;  // 2^63
    if (!(*d >= -kLimit && *d < kLimit)) {
      return std::numeric_limits<std::int64_t>::min();
    }
    return static_cast<std::int64_t>(*d);
  }
  if (const auto* b = std::get_if<bool>(&value)) return *b ? 1 : 0;
  return fallback;
}

enum class LineKind { kOther, kResult, kWorkload };

/// Decodes one line of the store in place: the checksum is verified over
/// the line and each field is converted as the scan reaches it, with no
/// event in between. Fields read as the TraceEvent getters read them, so a
/// line decodes to the same record as it always has: the first occurrence
/// of a key counts, the last `type` does, and a value of the wrong type
/// reads as the field's default. Either record kind fills what it has, and
/// the line's `type` says which one it is; nullopt means corrupt.
std::optional<LineKind> decode_line(std::string_view line,
                                    std::size_t line_no, StoreRecord& rec,
                                    StoreWorkloadInfo& info) {
  enum Field : unsigned {
    kSpace, kWl, kCfg, kObjective, kWorkload, kValue, kTimes, kMetricCols,
    kMetrics, kStop, kFailedReps, kSeed, kCommandLine, kName, kFeatures,
  };
  unsigned seen = 0;
  const auto first = [&seen](Field field) {
    const unsigned bit = 1u << field;
    if ((seen & bit) != 0) return false;
    seen |= bit;
    return true;
  };
  std::string type;
  std::uint64_t space = 0;
  std::uint64_t wl = 0;
  std::int64_t metric_cols = kMetricCount;
  std::vector<double> metrics;
  bool has_metrics = false;
  rec.key.objective = "run_time";
  rec.objective_value = std::numeric_limits<double>::quiet_NaN();

  const bool ok = journal_scan_record(
      line, line_no, [&](std::string_view key, const JsonFieldValue& value) {
        const auto* text = std::get_if<std::string_view>(&value);
        const std::string_view str = text != nullptr ? *text : std::string_view();
        if (key == "type") {
          type = str;  // always a string: the scan rejects any other type
        } else if (key == "space") {
          if (first(kSpace)) space = decode_uint(str, 16);
        } else if (key == "wl") {
          if (first(kWl)) wl = decode_uint(str, 16);
        } else if (key == "cfg") {
          if (first(kCfg)) rec.key.config_fingerprint = decode_uint(str, 16);
        } else if (key == "objective") {
          if (first(kObjective) && text != nullptr) rec.key.objective = str;
        } else if (key == "workload") {
          if (first(kWorkload)) rec.workload = str;
        } else if (key == "value") {
          if (first(kValue) && !str.empty()) {
            rec.objective_value = decode_double(str);
          }
        } else if (key == "times_ms") {
          if (first(kTimes)) rec.times_ms = journal_parse_doubles(str);
        } else if (key == "metric_cols") {
          if (first(kMetricCols)) metric_cols = int_value(value, kMetricCount);
        } else if (key == "metrics") {
          if (first(kMetrics) && !str.empty()) {
            metrics = journal_parse_doubles(str);
            has_metrics = true;
          }
        } else if (key == "stop") {
          if (first(kStop) && text != nullptr) {
            rec.stop = stop_reason_from_string(str);
          }
        } else if (key == "failed_reps") {
          if (first(kFailedReps)) {
            rec.failed_reps = static_cast<int>(int_value(value, 0));
          }
        } else if (key == "seed") {
          if (first(kSeed)) rec.seed = decode_uint(str, 10);
        } else if (key == "command_line") {
          if (first(kCommandLine)) rec.command_line = str;
        } else if (key == "name") {
          if (first(kName)) info.name = str;
        } else if (key == "features") {
          if (first(kFeatures)) info.features = journal_parse_doubles(str);
        }
      });
  if (!ok) return std::nullopt;
  if (type == "store_result") {
    rec.key.space_fingerprint = space;
    rec.key.workload_fingerprint = wl;
    // An uninterpretable metric block drops the metrics, not the record:
    // times_ms alone still answers run_time sessions bit-identically.
    if (has_metrics && metric_cols == kMetricCount &&
        metrics.size() == rec.times_ms.size() * kMetricCount) {
      const auto cols = static_cast<std::size_t>(kMetricCount);
      rec.rep_metrics.resize(rec.times_ms.size());
      for (std::size_t r = 0; r < rec.rep_metrics.size(); ++r) {
        std::copy_n(metrics.begin() + static_cast<std::ptrdiff_t>(r * cols),
                    cols, rec.rep_metrics[r].v.begin());
      }
    }
    return LineKind::kResult;
  }
  if (type == "store_workload") {
    info.space_fingerprint = space;
    info.workload_fingerprint = wl;
    return LineKind::kWorkload;
  }
  // Unknown record types are skipped: their checksums validated, a newer
  // writer simply knows kinds this reader does not.
  return LineKind::kOther;
}

}  // namespace

Measurement StoreRecord::to_measurement() const {
  Measurement m;
  m.config_fingerprint = key.config_fingerprint;
  m.times_ms = times_ms;
  m.rep_metrics = rep_metrics;
  m.failed_reps = failed_reps;
  m.stop = stop;
  if (!m.times_ms.empty()) m.summary = summarize(m.times_ms);
  return m;
}

std::shared_ptr<ResultStore> ResultStore::open(const std::string& dir,
                                               StoreOptions options) {
  std::shared_ptr<ResultStore> store(new ResultStore());
  store->options_ = options;
  if (!options.read_only) {
    if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
      throw StoreError("cannot create store directory '" + dir +
                       "': " + std::strerror(errno));
    }
  }
  store->path_ = dir + "/" + kStoreFileName;

  if (options.read_only) {
    const int fd = ::open(store->path_.c_str(), O_RDONLY);
    if (fd < 0) {
      // A read-only view of a store nobody has written yet is empty, not
      // an error: the warm session of a pair may legitimately start first.
      if (errno == ENOENT) return store;
      throw StoreError("cannot open store '" + store->path_ +
                       "': " + std::strerror(errno));
    }
    ::flock(fd, LOCK_SH);
    store->load(fd);
    ::flock(fd, LOCK_UN);
    ::close(fd);
    return store;
  }

  const int fd =
      ::open(store->path_.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    throw StoreError("cannot open store '" + store->path_ +
                     "': " + std::strerror(errno));
  }
  // Exclusive while loading: a torn tail left by a crashed writer is
  // repaired (truncated) before this session's first append could
  // otherwise concatenate onto the partial line.
  ::flock(fd, LOCK_EX);
  store->load(fd);
  ::flock(fd, LOCK_UN);
  store->fd_ = fd;
  store->fd_pid_ = ::getpid();
  return store;
}

ResultStore::~ResultStore() {
  // After a fork the child abandons the inherited descriptor (the number
  // may have been recycled by the sandbox worker's fd sweep); only the
  // process that opened it closes it.
  if (fd_ >= 0 && fd_pid_ == ::getpid()) ::close(fd_);
}

void ResultStore::load(int fd) {
  std::string data;
  if (!journal_read_file(fd, data)) {
    throw StoreError("cannot read store '" + path_ +
                     "': " + std::strerror(errno));
  }

  std::lock_guard lock(mutex_);
  const std::string_view text(data);
  std::size_t pos = 0;
  std::size_t line_no = 0;
  std::size_t valid_end = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      // Torn final append from a crashed writer: not a complete record.
      ++stats_.dropped;
      break;
    }
    const std::string_view line = text.substr(pos, nl - pos);
    ++line_no;
    pos = nl + 1;
    valid_end = pos;
    if (line.empty()) continue;
    StoreRecord rec;
    StoreWorkloadInfo info;
    const std::optional<LineKind> kind = decode_line(line, line_no, rec, info);
    if (!kind.has_value()) {
      // Unlike the single-writer journal, corruption here is not a clean
      // prefix boundary — another session's appends follow it. Skip and
      // count; never truncate interior bytes.
      ++stats_.dropped;
      continue;
    }
    if (*kind == LineKind::kResult) {
      if (rec.times_ms.empty()) {
        ++stats_.dropped;
        continue;
      }
      ++stats_.loaded;
      absorb(std::move(rec));
    } else if (*kind == LineKind::kWorkload) {
      workloads_.emplace(info.workload_fingerprint, std::move(info));
      ++stats_.loaded;
    }
  }
  if (!options_.read_only && valid_end < text.size()) {
    // Physically drop the unterminated tail so this session's appends
    // continue a clean log. Caller holds the exclusive lock.
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0) {
      throw StoreError("cannot truncate store '" + path_ +
                       "': " + std::strerror(errno));
    }
  }
  stats_.records = static_cast<std::int64_t>(index_.size());
  stats_.workloads = static_cast<std::int64_t>(workloads_.size());
}

bool ResultStore::absorb(StoreRecord record) {
  const auto it = index_.find(record.key);
  if (it != index_.end() &&
      it->second.times_ms.size() >= record.times_ms.size()) {
    return false;  // the stored record is at least as good; first wins
  }
  index_.insert_or_assign(record.key, std::move(record));
  return true;
}

int ResultStore::writable_fd() {
  if (options_.read_only || write_failed_) return -1;
  const pid_t pid = ::getpid();
  if (fd_ >= 0 && fd_pid_ == pid) return fd_;
  // First append after a fork: flock is per open-file-description and the
  // sandbox worker's startup sweep closed inherited descriptors anyway,
  // so the child gets its own.
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  fd_pid_ = pid;
  if (fd_ < 0) {
    write_failed_ = true;
    log_warn() << "store " << path_
               << ": cannot reopen for append: " << std::strerror(errno)
               << "; further results will not be persisted";
  }
  return fd_;
}

void ResultStore::append_line(std::string line) {
  const int fd = writable_fd();
  if (fd < 0) return;
  line += '\n';
  ::flock(fd, LOCK_EX);
  const bool ok = write_all(fd, line.data(), line.size());
  ::flock(fd, LOCK_UN);
  if (!ok) {
    write_failed_ = true;
    log_warn() << "store " << path_
               << ": append failed: " << std::strerror(errno)
               << "; further results will not be persisted";
  }
}

const StoreRecord* ResultStore::lookup(const StoreKey& key) {
  std::lock_guard lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

const StoreWorkloadInfo* ResultStore::workload_info(
    std::uint64_t workload_fingerprint) const {
  std::lock_guard lock(mutex_);
  const auto it = workloads_.find(workload_fingerprint);
  return it == workloads_.end() ? nullptr : &it->second;
}

void ResultStore::put(StoreRecord record) {
  if (record.times_ms.empty()) return;  // never store a crash
  // A read-only store is a frozen snapshot: puts are dropped entirely —
  // absorbing them into the index would make the handle's answers depend
  // on every session that ran through it since open, which is exactly the
  // cross-arm leakage the determinism matrix exists to rule out. (The
  // producing session never needs the absorb: its own measurements are
  // already in the runner's cache.)
  if (options_.read_only) return;
  std::lock_guard lock(mutex_);
  if (!absorb(record)) return;
  stats_.records = static_cast<std::int64_t>(index_.size());
  append_line(journal_encode_record(result_to_event(record)));
  ++stats_.appends;
}

void ResultStore::put_workload(std::uint64_t space_fingerprint,
                               const WorkloadSpec& workload) {
  if (options_.read_only) return;  // frozen snapshot, as in put()
  StoreWorkloadInfo info;
  info.space_fingerprint = space_fingerprint;
  info.workload_fingerprint = jat::workload_fingerprint(workload);
  info.name = workload.name;
  info.features = workload_features(workload);
  std::lock_guard lock(mutex_);
  if (!workloads_.emplace(info.workload_fingerprint, info).second) return;
  stats_.workloads = static_cast<std::int64_t>(workloads_.size());
  append_line(journal_encode_record(workload_to_event(info)));
}

std::vector<const StoreRecord*> ResultStore::top_k(
    std::uint64_t space_fingerprint, std::uint64_t workload_fingerprint,
    const std::string& objective, std::size_t k) const {
  std::lock_guard lock(mutex_);
  std::vector<const StoreRecord*> out;
  // Keys sort by (space, workload, config, objective): one ordered scan
  // over the (space, workload) range.
  auto it = index_.lower_bound(
      StoreKey{space_fingerprint, workload_fingerprint, 0, std::string()});
  for (; it != index_.end() &&
         it->first.space_fingerprint == space_fingerprint &&
         it->first.workload_fingerprint == workload_fingerprint;
       ++it) {
    const StoreRecord& rec = it->second;
    if (rec.key.objective != objective) continue;
    if (!std::isfinite(rec.objective_value)) continue;
    out.push_back(&rec);
  }
  std::sort(out.begin(), out.end(),
            [](const StoreRecord* a, const StoreRecord* b) {
              if (a->objective_value != b->objective_value) {
                return a->objective_value < b->objective_value;
              }
              return a->key.config_fingerprint < b->key.config_fingerprint;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<const StoreRecord*> ResultStore::neighbors(
    std::uint64_t space_fingerprint, std::uint64_t workload_fingerprint,
    const std::vector<double>& features, const std::string& objective,
    std::size_t k) const {
  std::vector<std::pair<double, std::uint64_t>> ranked;
  {
    std::lock_guard lock(mutex_);
    for (const auto& [fp, info] : workloads_) {
      if (fp == workload_fingerprint) continue;
      if (info.space_fingerprint != space_fingerprint) continue;
      const double dist = workload_distance(features, info.features);
      if (!std::isfinite(dist)) continue;
      ranked.emplace_back(dist, fp);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<const StoreRecord*> out;
  for (const auto& [dist, fp] : ranked) {
    if (out.size() >= k) break;
    const auto best = top_k(space_fingerprint, fp, objective, 1);
    if (!best.empty()) out.push_back(best.front());
  }
  return out;
}

StoreStats ResultStore::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::vector<double> workload_features(const WorkloadSpec& w) {
  const auto squash = [](double v) { return std::log1p(std::max(0.0, v)); };
  return {
      squash(w.total_work),
      squash(w.startup_work),
      squash(static_cast<double>(w.startup_classes)),
      squash(w.alloc_rate),
      squash(w.mean_object_size),
      w.short_lived_frac,
      w.mid_lived_frac,
      squash(w.long_lived_bytes),
      w.humongous_frac,
      squash(w.short_lifetime_alloc),
      squash(w.mid_lifetime_alloc),
      squash(static_cast<double>(w.method_count)),
      w.hot_zipf_exponent,
      squash(w.code_size_per_method),
      squash(w.invocations_per_work),
      w.interpreter_speed,
      w.c1_speed,
      w.jni_frac,
      w.crypto_frac,
      w.vector_frac,
      squash(static_cast<double>(w.app_threads)),
      squash(w.locks_per_work),
      w.lock_contention,
      w.lock_migration,
      w.gc_sensitivity,
  };
}

std::uint64_t workload_fingerprint(const WorkloadSpec& workload) {
  std::uint64_t h = fnv1a64(workload.name);
  for (const double f : workload_features(workload)) {
    h = mix64(h, std::bit_cast<std::uint64_t>(f));
  }
  return h;
}

double workload_distance(const std::vector<double>& a,
                         const std::vector<double>& b) {
  if (a.empty() || a.size() != b.size()) {
    return std::numeric_limits<double>::infinity();
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum / static_cast<double>(a.size()));
}

}  // namespace jat
