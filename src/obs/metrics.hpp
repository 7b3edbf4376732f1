#ifndef XFC_OBS_METRICS_HPP
#define XFC_OBS_METRICS_HPP

/// \file metrics.hpp
/// Low-overhead metrics core: counters, gauges, and fixed-bucket histograms
/// behind a named registry with Prometheus text exposition.
///
/// Hot-path cost model: every mutation is one relaxed atomic add into a
/// per-thread-striped, cache-line-padded slot — no locks, no allocation,
/// no contention between pool workers hammering the same metric. All the
/// expensive work (slot aggregation, formatting) happens at scrape time,
/// which nobody pays until something actually reads `/metrics`.
///
/// Two registries exist in practice: the process-global `obs::registry()`
/// carries codec/HTTP-layer metrics that have no service handle (huffman
/// table builds, lossless decode timings, request latency), while each
/// `ArchiveService` owns a private registry for its per-instance serving
/// counters so tests and multi-service processes see isolated values.
///
/// Off switch: `set_enabled(false)` (or env XFC_OBS_DISABLE=1)
/// short-circuits mutations behind a single relaxed bool load — this is
/// what the bench overhead check toggles.

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <vector>

namespace xfc::obs {

/// Runtime master switch for all metric mutation and span recording.
namespace detail {
std::atomic<bool>& enabled_flag();
}
inline bool enabled() {
  return detail::enabled_flag().load(std::memory_order_relaxed);
}
inline void set_enabled(bool on) {
  detail::enabled_flag().store(on, std::memory_order_relaxed);
}

namespace detail {

/// Slots a thread into one of `kStripes` cache-line-padded shards. Threads
/// get round-robin stripe indices on first touch, so the pool's N workers
/// land on N distinct lines (until N exceeds kStripes, where sharing
/// returns but stays correct).
constexpr std::size_t kStripes = 16;
std::size_t thread_stripe();

struct alignas(64) CounterStripe {
  std::atomic<std::uint64_t> v{0};
};

}  // namespace detail

/// Monotonically increasing event count.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) {
    if (!enabled()) return;
    stripes_[detail::thread_stripe()].v.fetch_add(n,
                                                  std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : stripes_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  detail::CounterStripe stripes_[detail::kStripes];
};

/// Last-write-wins scalar (no striping: gauges are set, not accumulated,
/// and setters are rare — epoch boundaries, config changes).
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Fixed-bucket histogram: `bounds` are inclusive upper edges in ascending
/// order; an implicit +Inf bucket catches the tail. observe() is two
/// relaxed adds into the caller's stripe (bucket count + sum-as-µ-units);
/// aggregation across stripes happens only at snapshot time.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(double v) {
    if (!enabled()) return;
    Stripe& s = stripes_[detail::thread_stripe()];
    s.counts[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    // Sum kept in millionths so it can live in a u64 add instead of a
    // double CAS loop; exact for latency-µs and byte-size observations.
    s.sum_micro.fetch_add(static_cast<std::uint64_t>(v * 1e6 + 0.5),
                          std::memory_order_relaxed);
  }

  const std::vector<double>& bounds() const { return bounds_; }

  struct Snapshot {
    std::vector<double> bounds;        // upper edges (no +Inf entry)
    std::vector<std::uint64_t> counts; // bounds.size()+1 buckets
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  Snapshot snapshot() const;

  /// Index of the bucket receiving `v` (== bounds_.size() for the +Inf
  /// tail). Public for the boundary tests.
  std::size_t bucket_index(double v) const {
    std::size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    return i;
  }

 private:
  struct Stripe {
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
    alignas(64) std::atomic<std::uint64_t> sum_micro{0};
  };
  std::vector<double> bounds_;
  Stripe stripes_[detail::kStripes];
};

/// Default latency bucket edges in microseconds: 1-2-5 decades from 1 µs
/// to 5 s. Fine enough for p50/p99 on µs-scale decode stages, coarse
/// enough that a histogram costs ~2 cache lines per stripe.
const std::vector<double>& latency_buckets_us();

/// Log-spaced edges `lo * ratio^k` up to `hi` — the bench uses a fine grid
/// (ratio ~1.25) so interpolated percentiles carry real resolution.
std::vector<double> log_buckets(double lo, double hi, double ratio);

/// Interpolated quantile (q in [0,1]) from a histogram snapshot —
/// Prometheus `histogram_quantile` semantics: linear within the bucket,
/// the +Inf bucket clamps to the highest finite edge.
double histogram_quantile(const Histogram::Snapshot& snap, double q);

struct MetricValue {
  std::string name;
  std::string help;
  const char* type;  // "counter" | "gauge"
  double value;
};
struct HistogramValue {
  std::string name;
  std::string help;
  Histogram::Snapshot snap;
};

/// Named metric registry. Registration (startup / first-touch) takes a
/// mutex; the returned references are stable for the registry's lifetime
/// and all mutation on them is lock-free. Duplicate names throw
/// InvalidArgument — silently merging two call sites' counters is how
/// dashboards end up lying.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help,
                       std::vector<double> bounds = latency_buckets_us());

  /// Callback metrics: sampled at scrape time — how externally-owned
  /// counters (TileCacheStats, HttpServerStats) surface without migrating
  /// their storage.
  void counter_fn(const std::string& name, const std::string& help,
                  std::function<double()> fn);
  void gauge_fn(const std::string& name, const std::string& help,
                std::function<double()> fn);

  /// Scalar + histogram snapshots, name-sorted (deterministic exposition).
  void snapshot(std::vector<MetricValue>& values,
                std::vector<HistogramValue>& histograms) const;

  /// Prometheus text format: # HELP / # TYPE preambles, _bucket{le=...} /
  /// _sum / _count expansion for histograms.
  std::string exposition() const;

 private:
  struct Entry {
    std::string help;
    const char* type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
    std::function<double()> fn;
  };
  void check_new_name(const std::string& name) const;

  mutable std::mutex m_;
  std::map<std::string, Entry> entries_;
};

/// Process-global registry (codec + HTTP-layer metrics).
Registry& registry();

// -- Core global metrics -----------------------------------------------------
// Accessors, not globals-with-constructors: each registers on first touch
// (thread-safe static-local init) so instrumentation sites stay one-liners
// and ensure_core_metrics() can pre-register everything for /metrics.

Histogram& http_request_us();    ///< wall time per dispatched HTTP request
Histogram& tile_decode_us();     ///< ArchiveReader::read_tile wall time
Histogram& huffman_build_us();   ///< Huffman decode-table construction
Histogram& lossless_decode_us(); ///< store/rle/miniflate tail expansion
Histogram& predict_decode_us();  ///< entropy + predict/dequant sweep
Histogram& train_step_us();      ///< one forward/backward/Adam step
Counter& huffman_cache_hits();   ///< deserialize_cached table reuses
Counter& http_shed_total();      ///< 503 + Retry-After overload sheds
Counter& faults_injected_total();///< FaultInjector errors/shorts/flips
Gauge& train_epoch_loss();       ///< most recent training epoch mean loss
Counter& trace_dropped_spans_total();  ///< spans lost to Trace's span cap

/// Registers process-level gauges (RSS, open fds, thread count, uptime) as
/// scrape-time callbacks over /proc/self — nothing is read until /metrics
/// is, so the hot path pays zero. Idempotent; linux-only values, 0
/// elsewhere. Called by ensure_core_metrics().
void ensure_process_metrics();

/// Touches every accessor above so `/metrics` lists the full inventory
/// even before traffic has exercised each path.
void ensure_core_metrics();

}  // namespace xfc::obs

#endif  // XFC_OBS_METRICS_HPP
