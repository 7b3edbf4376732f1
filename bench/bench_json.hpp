#ifndef XFC_BENCH_BENCH_JSON_HPP
#define XFC_BENCH_BENCH_JSON_HPP

/// \file bench_json.hpp
/// Minimal wall-clock benchmark harness with machine-readable output.
///
/// Every perf-tracked bench funnels its measurements through BenchJson so
/// the repo's performance trajectory (BENCH_*.json at the repo root, plus
/// per-run artifacts under --outdir) is reproducible with one command and
/// diffable across PRs. Records are intentionally tiny:
///   {"name": ..., "wall_ms": ..., "bytes_per_sec": ...}
/// where bytes_per_sec is 0 for benches without a natural byte volume.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace xfc::bench {

/// JSON string escaping for record names (the CLI feeds user-derived field
/// names through add_value).
inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

inline double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Measurement budget. Benches run each stage until both limits are met.
inline constexpr double kBenchMinMs = 300.0;
inline constexpr int kBenchMinIters = 3;

/// Smoke runs (the bench-smoke ctest) set this instead of a budget: each
/// stage is then timed as the fastest of this many single calls, so the
/// bench binaries stay exercised by CI without CI paying bench runtimes,
/// and one badly scheduled call does not read as a regression.
inline int& bench_smoke_calls() {
  static int v = 0;
  return v;
}

/// Runs fn() until at least `min_ms` of wall clock and `min_iters` calls
/// have elapsed (defaults: the budget above); returns mean wall
/// milliseconds per call. With bench_smoke_calls() set, returns the
/// fastest of that many calls instead.
template <class F>
double time_ms(F&& fn, double min_ms = kBenchMinMs,
               int min_iters = kBenchMinIters) {
  // One untimed warmup call settles lazy initialisation (thread pool,
  // scratch arenas, page faults on freshly allocated buffers).
  fn();
  if (bench_smoke_calls() > 0) {
    double best = 1e300;
    for (int i = 0; i < bench_smoke_calls(); ++i) {
      const double t = now_ms();
      fn();
      best = std::min(best, now_ms() - t);
    }
    return best;
  }
  const double t0 = now_ms();
  int iters = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++iters;
    elapsed = now_ms() - t0;
  } while (elapsed < min_ms || iters < min_iters);
  return elapsed / static_cast<double>(iters);
}

struct BenchRecord {
  std::string name;
  double wall_ms = 0.0;
  double bytes_per_sec = 0.0;
  /// Plain metric record ({"name", "value"}) rather than a timing — used by
  /// the CLI's --json mode for sizes, ratios and error bounds.
  bool value_only = false;
  double value = 0.0;
};

class BenchJson {
 public:
  /// Records one measurement and echoes it to stdout as a table row.
  void add(std::string name, double wall_ms, double processed_bytes = 0.0) {
    const double bps =
        wall_ms > 0.0 ? processed_bytes / (wall_ms / 1000.0) : 0.0;
    std::printf("%-28s %12.3f ms %14.1f MB/s\n", name.c_str(), wall_ms,
                bps / (1024.0 * 1024.0));
    std::fflush(stdout);
    records_.push_back({std::move(name), wall_ms, bps});
  }

  /// Records a non-timing metric, echoed as a table row.
  void add_value(std::string name, double value) {
    std::printf("%-28s %14.6g\n", name.c_str(), value);
    std::fflush(stdout);
    BenchRecord r;
    r.name = std::move(name);
    r.value_only = true;
    r.value = value;
    records_.push_back(std::move(r));
  }

  const std::vector<BenchRecord>& records() const { return records_; }

  /// Writes all records as a JSON array to `path`; returns false on I/O
  /// failure (benches warn but do not abort — the table already printed).
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "[\n");
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      const char* sep = i + 1 < records_.size() ? "," : "";
      const std::string name = json_escape(r.name);
      if (r.value_only)
        std::fprintf(f, "  {\"name\": \"%s\", \"value\": %.6g}%s\n",
                     name.c_str(), r.value, sep);
      else
        std::fprintf(f,
                     "  {\"name\": \"%s\", \"wall_ms\": %.6f, "
                     "\"bytes_per_sec\": %.1f}%s\n",
                     name.c_str(), r.wall_ms, r.bytes_per_sec, sep);
    }
    std::fprintf(f, "]\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<BenchRecord> records_;
};

}  // namespace xfc::bench

#endif  // XFC_BENCH_BENCH_JSON_HPP
