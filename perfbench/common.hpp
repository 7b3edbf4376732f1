#ifndef XFC_PERFBENCH_COMMON_HPP
#define XFC_PERFBENCH_COMMON_HPP

/// Shared plumbing of the xfc benchmark harness: clocks, order statistics,
/// the span tracer, the counting ByteSink decorator, the error-bound oracle
/// and the metric collector every workload reports through.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/field.hpp"
#include "io/stream.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

inline double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// -- Order statistics --------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten samples beyond it, and its value
/// (nearest rank). `percentile` is 0 when fewer than 11 samples exist.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};
Tail tail_of(std::vector<double> v);

// -- Span tracer -------------------------------------------------------------

/// One recorded span: a timed call into a layer, with the span that caused
/// it (0 = root). Spans of one thread nest strictly.
struct SpanRec {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint32_t thread = 0;
  const char* name = "";
  double t0 = 0.0, t1 = 0.0;  // seconds, steady clock
};

/// In-memory span store. Off by default: a Span then only times its scope
/// (one clock read at each end) and records nothing. Spans stay in
/// per-thread buffers until the harness writes them out at exit.
class Tracer {
 public:
  static Tracer& get();
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void set_on(bool on) { on_.store(on, std::memory_order_relaxed); }

  void record(const SpanRec& rec);
  std::uint64_t next_id() { return next_id_.fetch_add(1) + 1; }
  /// Every span recorded so far, all threads, in no particular order.
  std::vector<SpanRec> collect() const;

 private:
  struct ThreadBuf {
    std::mutex m;  // uncontended except while collect() copies
    std::vector<SpanRec> spans;
  };
  ThreadBuf& local();

  std::atomic<bool> on_{false};
  std::atomic<std::uint64_t> next_id_{0};
  mutable std::mutex m_;  // guards bufs_
  std::vector<std::unique_ptr<ThreadBuf>> bufs_;  // index = thread number
};

/// Scoped span. Always measures its own duration (stop() returns it, in
/// seconds); records itself only while the tracer is on.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double stop();

 private:
  const char* name_;
  std::uint64_t id_ = 0, parent_ = 0;
  double t0_;
  double elapsed_ = -1.0;
};

/// Durations (ms) of every recorded span called `name`.
std::vector<double> span_ms(const std::vector<SpanRec>& spans,
                            const std::string& name);

/// Self time per span name: span duration minus the time its child spans
/// cover, summed over every span of that name (ms).
std::map<std::string, double> self_time_ms(const std::vector<SpanRec>& spans);

// -- io layer decorator ------------------------------------------------------

/// Byte and durability-barrier counters of one CountingSink.
struct IoCounters {
  std::uint64_t bytes_written = 0;
  std::uint64_t sync_calls = 0;  // sync() and commit() barriers
  double sync_s = 0.0;
};

/// ByteSink decorator: forwards every call to `inner` unchanged and counts
/// bytes appended plus the time spent in durability barriers. FileSink's
/// commit() (fsync file, rename, fsync directory) counts as one barrier.
class CountingSink final : public xfc::ByteSink {
 public:
  CountingSink(xfc::ByteSink& inner, IoCounters& counters)
      : inner_(inner), counters_(counters) {}
  void append(std::span<const std::uint8_t> data) override;
  std::size_t size() const override { return inner_.size(); }
  void flush() override { inner_.flush(); }
  void sync() override;
  void commit() override;

 private:
  xfc::ByteSink& inner_;
  IoCounters& counters_;
};

// -- Error-bound oracle -------------------------------------------------------

/// Largest |original - reconstruction| allowed at absolute bound `abs_eb`:
/// the bound plus half a float32 ulp of the field's largest magnitude (dual
/// quantization stores 2*eb*q, computed in double, as float32).
double bound_tolerance(double abs_eb, const xfc::Field& original);

/// Max pointwise error; +inf when shapes differ.
double max_error(const xfc::Field& original, const xfc::Field& recon);

// -- Metric collector ----------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Counts operations and failures and holds the metrics a run reports.
/// Failures are printed to stderr as they happen, so a failed run names
/// what went wrong.
class Report {
 public:
  void attempt(std::uint64_t n = 1) { attempted_.fetch_add(n); }
  void fail(const std::string& what);
  std::uint64_t attempted() const { return attempted_.load(); }
  std::uint64_t failed() const { return failed_.load(); }

  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::mutex fail_m_;  // serializes failure messages
  std::map<std::string, Metric> metrics_;
};

/// Peak resident set size of this process, in MB.
double peak_rss_mb();

}  // namespace pb

#endif  // XFC_PERFBENCH_COMMON_HPP
