#ifndef XFC_OBS_TRACE_HPP
#define XFC_OBS_TRACE_HPP

/// \file trace.hpp
/// Request-scoped tracing: a span tree recorded against the monotonic
/// clock, carried through the decode pipeline by a thread-local pointer so
/// deep call sites (huffman table build, lossless tail, predict sweep)
/// need no plumbed-through context argument.
///
/// Model: the HTTP layer activates a Trace for the dispatching thread,
/// instrumented scopes open spans via the RAII SpanScope, and the layer
/// renders the finished tree as a `Server-Timing` header, a `?trace=1`
/// JSON debug view, or a slow-request log line. When no trace is active
/// (CLI decode paths, pool workers inside a tile-parallel decode) a
/// SpanScope still feeds its stage histogram but records no span — one
/// thread-local load and a null check.
///
/// Span discipline is strictly LIFO per thread (guaranteed by RAII), so
/// the parent is just the innermost open span. The span buffer is capped:
/// a request touching hundreds of tiles keeps its first kMaxSpans spans
/// and counts the overflow rather than growing unboundedly.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace xfc::obs {

/// Nanoseconds on the monotonic clock (steady_clock).
std::uint64_t monotonic_ns();

struct Span {
  const char* name;       // string literal owned by the call site
  std::int32_t parent;    // index into the span vector; -1 = root
  std::uint64_t start_ns; // relative to the trace's t0
  std::uint64_t dur_ns;   // kOpen until the scope closes
  static constexpr std::uint64_t kOpen = ~std::uint64_t{0};
};

class Trace {
 public:
  static constexpr std::size_t kMaxSpans = 256;

  Trace();

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// The trace active on this thread, nullptr when none.
  static Trace* current();

  std::int32_t begin_at(const char* name, std::uint64_t now_ns);
  void end_at(std::int32_t idx, std::uint64_t now_ns);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t t0_ns() const { return t0_ns_; }
  std::size_t dropped_spans() const { return dropped_; }

  /// `Server-Timing` header value from the completed depth-1 spans
  /// (children of span 0), aggregated by name in first-seen order:
  /// `etag;dur=0.012, tiles;dur=1.254, encode;dur=0.087` (dur in ms).
  /// Empty when there is nothing at depth 1.
  std::string server_timing() const;

  /// Span tree as a JSON array (completed spans only), each element
  /// {"name":..,"parent":..,"start_us":..,"dur_us":..}.
  std::string spans_json() const;

  // Per-request pipeline tallies, bumped by the cache layer.
  std::uint32_t cache_hits = 0;
  std::uint32_t cache_misses = 0;
  std::uint32_t inflight_waits = 0;

 private:
  friend class TraceActivation;
  std::vector<Span> spans_;
  std::uint64_t t0_ns_ = 0;
  std::int32_t open_ = -1;  // innermost open span (parent for the next)
  std::size_t dropped_ = 0;
};

/// Binds a trace to the current thread for its scope (nullptr = explicitly
/// deactivate, restoring on exit — used around handler dispatch).
class TraceActivation {
 public:
  explicit TraceActivation(Trace* t);
  ~TraceActivation();
  TraceActivation(const TraceActivation&) = delete;
  TraceActivation& operator=(const TraceActivation&) = delete;

 private:
  Trace* prev_;
};

/// One instrumented stage: records a span on the active trace (if any) and
/// optionally feeds a stage histogram, sharing a single clock-read pair.
/// Costs one relaxed load when obs is runtime-disabled.
class SpanScope {
 public:
  explicit SpanScope(const char* name, Histogram* hist = nullptr) {
    if (!enabled()) return;
    t_ = Trace::current();
    h_ = hist;
    if (t_ == nullptr && h_ == nullptr) return;
    start_ns_ = monotonic_ns();
    if (t_ != nullptr) idx_ = t_->begin_at(name, start_ns_);
  }
  ~SpanScope() {
    if (t_ == nullptr && h_ == nullptr) return;
    const std::uint64_t now = monotonic_ns();
    if (t_ != nullptr) t_->end_at(idx_, now);
    if (h_ != nullptr)
      h_->observe(static_cast<double>(now - start_ns_) * 1e-3);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Trace* t_ = nullptr;
  Histogram* h_ = nullptr;
  std::int32_t idx_ = -1;
  std::uint64_t start_ns_ = 0;
};

}  // namespace xfc::obs

#endif  // XFC_OBS_TRACE_HPP
