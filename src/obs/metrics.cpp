#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__linux__)
#include <dirent.h>
#include <unistd.h>
#endif

#include "core/error.hpp"

namespace xfc::obs {

namespace detail {

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{std::getenv("XFC_OBS_DISABLE") == nullptr};
  return flag;
}

std::size_t thread_stripe() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t idx =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return idx;
}

}  // namespace detail

namespace {

/// %g with enough digits to round-trip counters exactly up to 2^53 and
/// keep exposition lines compact for small values.
std::string fmt_double(double v) {
  char buf[40];
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.9g", v);
  }
  return buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  expects(!bounds_.empty(), "Histogram: needs at least one bucket bound");
  expects(std::is_sorted(bounds_.begin(), bounds_.end()),
          "Histogram: bounds must be ascending");
  for (auto& s : stripes_)
    s.counts = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  snap.counts.assign(bounds_.size() + 1, 0);
  std::uint64_t sum_micro = 0;
  for (const Stripe& s : stripes_) {
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
      snap.counts[b] += s.counts[b].load(std::memory_order_relaxed);
    sum_micro += s.sum_micro.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : snap.counts) snap.count += c;
  snap.sum = static_cast<double>(sum_micro) * 1e-6;
  return snap;
}

const std::vector<double>& latency_buckets_us() {
  static const std::vector<double> edges = {
      1,     2,     5,     10,    20,    50,    100,   200,   500,
      1e3,   2e3,   5e3,   1e4,   2e4,   5e4,   1e5,   2e5,   5e5,
      1e6,   2e6,   5e6};
  return edges;
}

std::vector<double> log_buckets(double lo, double hi, double ratio) {
  expects(lo > 0 && hi > lo && ratio > 1.0, "log_buckets: bad parameters");
  std::vector<double> edges;
  for (double e = lo; e <= hi * ratio; e *= ratio) edges.push_back(e);
  return edges;
}

double histogram_quantile(const Histogram::Snapshot& snap, double q) {
  // Empty histogram (or a hand-built snapshot with no buckets at all):
  // there is no sensible quantile, so the defined answer is 0.0 — never
  // NaN, never a read past bounds.back().
  if (snap.count == 0 || snap.bounds.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(snap.count);
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < snap.counts.size(); ++b) {
    const std::uint64_t c = snap.counts[b];
    if (static_cast<double>(cum + c) < rank || c == 0) {
      cum += c;
      continue;
    }
    if (b >= snap.bounds.size()) return snap.bounds.back();  // +Inf: clamp
    const double hi = snap.bounds[b];
    const double lo = b == 0 ? 0.0 : snap.bounds[b - 1];
    const double frac = (rank - static_cast<double>(cum)) /
                        static_cast<double>(c);
    return lo + (hi - lo) * frac;
  }
  return snap.bounds.back();
}

void Registry::check_new_name(const std::string& name) const {
  expects(!name.empty(), "Registry: empty metric name");
  if (entries_.count(name) != 0)
    throw InvalidArgument("Registry: duplicate metric name: " + name);
}

Counter& Registry::counter(const std::string& name, const std::string& help) {
  const std::lock_guard<std::mutex> lock(m_);
  check_new_name(name);
  Entry& e = entries_[name];
  e.help = help;
  e.type = "counter";
  e.counter = std::make_unique<Counter>();
  return *e.counter;
}

Gauge& Registry::gauge(const std::string& name, const std::string& help) {
  const std::lock_guard<std::mutex> lock(m_);
  check_new_name(name);
  Entry& e = entries_[name];
  e.help = help;
  e.type = "gauge";
  e.gauge = std::make_unique<Gauge>();
  return *e.gauge;
}

Histogram& Registry::histogram(const std::string& name,
                               const std::string& help,
                               std::vector<double> bounds) {
  const std::lock_guard<std::mutex> lock(m_);
  check_new_name(name);
  Entry& e = entries_[name];
  e.help = help;
  e.type = "histogram";
  e.histogram = std::make_unique<Histogram>(std::move(bounds));
  return *e.histogram;
}

void Registry::counter_fn(const std::string& name, const std::string& help,
                          std::function<double()> fn) {
  const std::lock_guard<std::mutex> lock(m_);
  check_new_name(name);
  Entry& e = entries_[name];
  e.help = help;
  e.type = "counter";
  e.fn = std::move(fn);
}

void Registry::gauge_fn(const std::string& name, const std::string& help,
                        std::function<double()> fn) {
  const std::lock_guard<std::mutex> lock(m_);
  check_new_name(name);
  Entry& e = entries_[name];
  e.help = help;
  e.type = "gauge";
  e.fn = std::move(fn);
}

void Registry::snapshot(std::vector<MetricValue>& values,
                        std::vector<HistogramValue>& histograms) const {
  const std::lock_guard<std::mutex> lock(m_);
  for (const auto& [name, e] : entries_) {
    if (e.histogram != nullptr) {
      histograms.push_back({name, e.help, e.histogram->snapshot()});
    } else {
      double v = 0.0;
      if (e.counter != nullptr) v = static_cast<double>(e.counter->value());
      else if (e.gauge != nullptr) v = e.gauge->value();
      else if (e.fn) v = e.fn();
      values.push_back({name, e.help, e.type, v});
    }
  }
}

std::string Registry::exposition() const {
  std::vector<MetricValue> values;
  std::vector<HistogramValue> histograms;
  snapshot(values, histograms);

  // Re-interleave sorted by name so the output is one deterministic,
  // name-ordered document (snapshot() emits each kind name-sorted already).
  std::string out;
  out.reserve(1024 + 256 * histograms.size());
  std::size_t vi = 0, hi = 0;
  auto emit_value = [&out](const MetricValue& m) {
    out += "# HELP " + m.name + " " + m.help + "\n";
    out += "# TYPE " + m.name + " " + m.type + "\n";
    out += m.name + " " + fmt_double(m.value) + "\n";
  };
  auto emit_histogram = [&out](const HistogramValue& h) {
    out += "# HELP " + h.name + " " + h.help + "\n";
    out += "# TYPE " + h.name + " histogram\n";
    std::uint64_t cum = 0;
    for (std::size_t b = 0; b < h.snap.bounds.size(); ++b) {
      cum += h.snap.counts[b];
      out += h.name + "_bucket{le=\"" + fmt_double(h.snap.bounds[b]) +
             "\"} " + std::to_string(cum) + "\n";
    }
    out += h.name + "_bucket{le=\"+Inf\"} " + std::to_string(h.snap.count) +
           "\n";
    out += h.name + "_sum " + fmt_double(h.snap.sum) + "\n";
    out += h.name + "_count " + std::to_string(h.snap.count) + "\n";
  };
  while (vi < values.size() || hi < histograms.size()) {
    const bool take_value =
        hi >= histograms.size() ||
        (vi < values.size() && values[vi].name < histograms[hi].name);
    if (take_value) emit_value(values[vi++]);
    else emit_histogram(histograms[hi++]);
  }
  return out;
}

Registry& registry() {
  static Registry r;
  return r;
}

// -- Core global metrics -----------------------------------------------------

Histogram& http_request_us() {
  static Histogram& h = registry().histogram(
      "xfs_http_request_us", "Wall time per dispatched HTTP request (us)");
  return h;
}
Histogram& tile_decode_us() {
  static Histogram& h = registry().histogram(
      "xfc_tile_decode_us", "ArchiveReader::read_tile wall time (us)");
  return h;
}
Histogram& huffman_build_us() {
  static Histogram& h = registry().histogram(
      "xfc_huffman_table_build_us",
      "Huffman decode table construction wall time (us)");
  return h;
}
Histogram& lossless_decode_us() {
  static Histogram& h = registry().histogram(
      "xfc_lossless_decode_us",
      "Lossless tail (store/rle/miniflate) expansion wall time (us)");
  return h;
}
Histogram& predict_decode_us() {
  static Histogram& h = registry().histogram(
      "xfc_predict_decode_us",
      "Entropy decode + predict/dequant sweep wall time (us)");
  return h;
}
Histogram& train_step_us() {
  static Histogram& h = registry().histogram(
      "xfc_train_step_us",
      "CFNN training step (forward+backward+Adam) wall time (us)");
  return h;
}
Counter& huffman_cache_hits() {
  static Counter& c = registry().counter(
      "xfc_huffman_table_cache_hits_total",
      "Huffman decode tables served from the per-thread cache");
  return c;
}
Counter& http_shed_total() {
  static Counter& c = registry().counter(
      "xfs_http_shed_total",
      "Requests answered 503 + Retry-After under overload shedding");
  return c;
}
Counter& faults_injected_total() {
  static Counter& c = registry().counter(
      "xfc_faults_injected_total",
      "Faults injected by FaultInjector (errors, short ops, bit flips)");
  return c;
}
Gauge& train_epoch_loss() {
  static Gauge& g = registry().gauge(
      "xfc_train_epoch_loss", "Most recent training epoch mean loss");
  return g;
}
Counter& trace_dropped_spans_total() {
  static Counter& c = registry().counter(
      "xfc_trace_dropped_spans_total",
      "Spans discarded because a request trace hit its span cap");
  return c;
}

namespace {

#if defined(__linux__)
/// Resident set from /proc/self/statm field 2 (pages).
double proc_resident_bytes() {
  FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE));
}

double proc_open_fds() {
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) return 0.0;
  double n = 0;
  while (const dirent* e = readdir(d))
    if (e->d_name[0] != '.') n += 1;  // skip . and ..
  closedir(d);
  return n > 0 ? n - 1 : 0;  // the opendir itself holds one fd
}

/// Thread count and process start time from /proc/self/stat. The comm
/// field may contain spaces/parens, so parse from the last ')'.
bool proc_stat_fields(double* threads, double* starttime_ticks) {
  FILE* f = std::fopen("/proc/self/stat", "r");
  if (f == nullptr) return false;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
  std::fclose(f);
  buf[n] = '\0';
  const char* p = std::strrchr(buf, ')');
  if (p == nullptr) return false;
  // After ')': state is field 3; threads field 20; starttime field 22.
  double fields[22] = {0};
  char state = 0;
  int got = std::sscanf(
      p + 1,
      " %c %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf %lf"
      " %lf %lf %lf",
      &state, &fields[3], &fields[4], &fields[5], &fields[6], &fields[7],
      &fields[8], &fields[9], &fields[10], &fields[11], &fields[12],
      &fields[13], &fields[14], &fields[15], &fields[16], &fields[17],
      &fields[18], &fields[19], &fields[20], &fields[21]);
  if (got < 20) return false;
  *threads = fields[19];          // num_threads
  *starttime_ticks = fields[21];  // starttime
  return true;
}

double proc_threads() {
  double threads = 0, start = 0;
  return proc_stat_fields(&threads, &start) ? threads : 0.0;
}

double proc_uptime_seconds() {
  double threads = 0, start = 0;
  if (!proc_stat_fields(&threads, &start)) return 0.0;
  FILE* f = std::fopen("/proc/uptime", "r");
  if (f == nullptr) return 0.0;
  double system_uptime = 0;
  const int n = std::fscanf(f, "%lf", &system_uptime);
  std::fclose(f);
  if (n != 1) return 0.0;
  const double hz = static_cast<double>(sysconf(_SC_CLK_TCK));
  return hz > 0 ? system_uptime - start / hz : 0.0;
}
#else
double proc_resident_bytes() { return 0.0; }
double proc_open_fds() { return 0.0; }
double proc_threads() { return 0.0; }
double proc_uptime_seconds() { return 0.0; }
#endif

}  // namespace

void ensure_process_metrics() {
  static const bool registered = [] {
    Registry& r = registry();
    r.gauge_fn("xfc_process_resident_bytes",
               "Resident set size (bytes, /proc/self/statm)",
               proc_resident_bytes);
    r.gauge_fn("xfc_process_open_fds",
               "Open file descriptors (/proc/self/fd)", proc_open_fds);
    r.gauge_fn("xfc_process_threads",
               "Threads in this process (/proc/self/stat)", proc_threads);
    r.gauge_fn("xfc_process_uptime_seconds",
               "Seconds since process start (/proc)", proc_uptime_seconds);
    return true;
  }();
  (void)registered;
}

void ensure_core_metrics() {
  http_request_us();
  tile_decode_us();
  huffman_build_us();
  lossless_decode_us();
  predict_decode_us();
  train_step_us();
  huffman_cache_hits();
  http_shed_total();
  faults_injected_total();
  train_epoch_loss();
  trace_dropped_spans_total();
  ensure_process_metrics();
}

}  // namespace xfc::obs
