#include "common.hpp"

#include <sys/resource.h>

#include <cstdio>
#include <limits>

namespace pb {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.size() < 11) return t;
  std::sort(v.begin(), v.end());
  // Sample i (0-based) has n-1-i samples beyond it; the highest one with
  // ten beyond is i = n-11, which is percentile 100*(n-10)/n.
  const std::size_t i = v.size() - 11;
  t.value = v[i];
  t.percentile = 100.0 * static_cast<double>(i + 1) /
                 static_cast<double>(v.size());
  return t;
}

// -- Tracer --------------------------------------------------------------------

namespace {
thread_local std::uint32_t t_thread = 0;  // 1-based index into bufs_
thread_local std::vector<std::uint64_t> t_stack;  // open span ids
}  // namespace

Tracer& Tracer::get() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::local() {
  const std::lock_guard<std::mutex> lock(m_);
  if (t_thread == 0) {
    bufs_.push_back(std::make_unique<ThreadBuf>());
    t_thread = static_cast<std::uint32_t>(bufs_.size());
  }
  return *bufs_[t_thread - 1];
}

void Tracer::record(const SpanRec& rec) {
  ThreadBuf& buf = local();
  const std::lock_guard<std::mutex> lock(buf.m);
  buf.spans.push_back(rec);
  buf.spans.back().thread = t_thread;
}

std::vector<SpanRec> Tracer::collect() const {
  std::vector<SpanRec> out;
  const std::lock_guard<std::mutex> lock(m_);
  for (const auto& buf : bufs_) {
    const std::lock_guard<std::mutex> buf_lock(buf->m);
    out.insert(out.end(), buf->spans.begin(), buf->spans.end());
  }
  return out;
}

Span::Span(const char* name) : name_(name), t0_(now_s()) {
  Tracer& tr = Tracer::get();
  if (!tr.on()) return;
  id_ = tr.next_id();
  parent_ = t_stack.empty() ? 0 : t_stack.back();
  t_stack.push_back(id_);
}

double Span::stop() {
  if (elapsed_ >= 0.0) return elapsed_;
  const double t1 = now_s();
  elapsed_ = t1 - t0_;
  if (id_ != 0) {
    if (!t_stack.empty() && t_stack.back() == id_) t_stack.pop_back();
    SpanRec rec;
    rec.id = id_;
    rec.parent = parent_;
    rec.name = name_;
    rec.t0 = t0_;
    rec.t1 = t1;
    Tracer::get().record(rec);
  }
  return elapsed_;
}

std::vector<double> span_ms(const std::vector<SpanRec>& spans,
                            const std::string& name) {
  std::vector<double> out;
  for (const SpanRec& s : spans)
    if (name == s.name) out.push_back((s.t1 - s.t0) * 1e3);
  return out;
}

std::map<std::string, double> self_time_ms(const std::vector<SpanRec>& spans) {
  std::map<std::uint64_t, double> child_s;  // parent id -> child time
  for (const SpanRec& s : spans)
    if (s.parent != 0) child_s[s.parent] += s.t1 - s.t0;
  std::map<std::string, double> out;
  for (const SpanRec& s : spans) {
    const auto it = child_s.find(s.id);
    const double child = it == child_s.end() ? 0.0 : it->second;
    out[s.name] += (s.t1 - s.t0 - child) * 1e3;
  }
  return out;
}

// -- CountingSink ----------------------------------------------------------------

void CountingSink::append(std::span<const std::uint8_t> data) {
  counters_.bytes_written += data.size();
  inner_.append(data);
}

void CountingSink::sync() {
  Span span("io.sync");
  ++counters_.sync_calls;
  inner_.sync();
  counters_.sync_s += span.stop();
}

void CountingSink::commit() {
  Span span("io.sync");
  ++counters_.sync_calls;
  inner_.commit();
  counters_.sync_s += span.stop();
}

// -- Oracle ----------------------------------------------------------------------

double bound_tolerance(double abs_eb, const xfc::Field& original) {
  const auto [lo, hi] = original.min_max();
  const double maxabs = std::max(std::abs(static_cast<double>(lo)),
                                 std::abs(static_cast<double>(hi)));
  return abs_eb * (1.0 + 1e-9) + maxabs * 6.0e-8;
}

double max_error(const xfc::Field& original, const xfc::Field& recon) {
  if (original.shape() != recon.shape())
    return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double e = std::abs(static_cast<double>(original.data()[i]) -
                              static_cast<double>(recon.data()[i]));
    if (std::isnan(e)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, e);
  }
  return worst;
}

// -- Report ------------------------------------------------------------------------

void Report::fail(const std::string& what) {
  const std::uint64_t n = failed_.fetch_add(1) + 1;
  const std::lock_guard<std::mutex> lock(fail_m_);
  if (n <= 20) std::fprintf(stderr, "ORACLE FAIL: %s\n", what.c_str());
  if (n == 20) std::fprintf(stderr, "ORACLE FAIL: (further failures muted)\n");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace pb
