// xfc benchmark harness. Runs one workload with one seed and prints, as the
// last line of standard output, one JSON object:
//
//   {"correct": bool, "attempted": n, "failed": m,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// Untraced runs print the end-to-end metrics, traced runs (--trace 1) the
// per-layer ones; traced runs also write every span to
// <outdir>/trace-<workload>-<seed>.json. Exit status: 0 when every oracle
// check passed, 1 when one failed, 3 when the run is invalid (the load
// generator fell behind), 2 on bad arguments. perfbench/run.py builds this
// program and is the command to use.
//
//   xfc_perfbench --workload ingest|serve-hot|serve-cold-put --seed N
//                 --seconds S --trace 0|1 --outdir DIR [--all-metrics]

#include <sys/statfs.h>
#include <sys/utsname.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/utils.hpp"
#include "workloads.hpp"

namespace {

using namespace pb;

const std::vector<std::string> kEndToEnd = {
    "setup_s",       "train_s",        "ingest_mbps",   "read_mbps",
    "ratio",         "xf_gain_pct",    "psnr_db",       "region_p50_ms",
    "region_tail_ms", "region_rps",    "put_p50_ms",    "peak_rss_mb",
    "ops_ok_pct"};

const std::vector<std::string> kPerLayer = {
    "cfnn.train_ms", "cfnn.train_steps", "cfnn.infer_ms", "cfnn.model_bytes",
    "crossfield.analyze_ms", "crossfield.compress_ms",
    "crossfield.decompress_ms", "crossfield.mono_gain_pct",
    "sz.compress_ms", "sz.decompress_ms", "sz.bytes",
    "encode.lossless_ms", "encode.lossless_ratio",
    "archive.write_ms", "archive.finish_ms", "archive.index_bytes",
    "archive.open_ms", "archive.read_all_ms",
    "archive.tile_decode_ms.plain", "archive.tile_decode_ms.xf",
    "io.bytes_written", "io.sync_calls", "io.sync_ms",
    "service.region_us", "service.put_us",
    "http.overhead_us", "http.shed", "http.bad_requests",
    "cache.hit_ratio", "cache.misses", "cache.evictions",
    "cache.inflight_waits", "cache.bytes",
    "decode.tile_us.p50", "decode.tile_us.p99", "decode.predict_us",
    "decode.lossless_us", "decode.huffman_build_us",
    "decode.huffman_cache_hits", "gen.lag_ms", "gen.offered_rps",
    "trace.overhead_pct"};

int usage() {
  std::fprintf(stderr,
               "usage: xfc_perfbench --workload ingest|serve-hot|serve-cold-put"
               " --seed N --seconds S --trace 0|1 --outdir DIR"
               " [--all-metrics]\n");
  return 2;
}

/// Per-layer metrics read off the recorded spans (median span duration).
void set_span_metrics(const std::vector<SpanRec>& spans, Report& rep) {
  const std::pair<const char*, const char*> from_spans[] = {
      {"cfnn.train_ms", "cfnn.train"},
      {"archive.write_ms", "archive.write"},
      {"archive.finish_ms", "archive.finish"},
      {"archive.open_ms", "archive.open"},
      {"archive.read_all_ms", "archive.read_all"},
  };
  for (const auto& [metric, span] : from_spans)
    rep.set(metric, median(span_ms(spans, span)), "ms");
}

std::string filesystem_type(const std::string& dir) {
  struct statfs fs {};
  if (statfs(dir.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx", static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void write_trace(const Options& opt, const std::vector<SpanRec>& spans) {
  const std::string path = opt.outdir + "/trace-" + opt.workload + "-" +
                           std::to_string(opt.seed) + ".json";
  std::ofstream out(path);
  out << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"xfc_threads\": " << xfc::hardware_threads()
      << ", \"filesystem\": \"" << filesystem_type(opt.outdir) << "\",\n"
      << " \"self_time_ms\": {";
  bool first = true;
  for (const auto& [name, ms] : self_time_ms(spans)) {
    out << (first ? "" : ", ") << "\"" << name << "\": " << ms;
    first = false;
  }
  out << "},\n \"spans\": [\n";
  char line[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    std::snprintf(line, sizeof line,
                  "  {\"id\": %llu, \"parent\": %llu, \"thread\": %u, "
                  "\"name\": \"%s\", \"t0\": %.9f, \"t1\": %.9f}%s\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.thread, s.name,
                  s.t0, s.t1, i + 1 < spans.size() ? "," : "");
    out << line;
  }
  out << " ]}\n";
  std::fprintf(stderr, "trace: %zu spans -> %s\n", spans.size(), path.c_str());
  std::fprintf(stderr, "%-32s %12s\n", "span (self time)", "ms");
  for (const auto& [name, ms] : self_time_ms(spans))
    std::fprintf(stderr, "%-32s %12.3f\n", name.c_str(), ms);
}

/// Jiffies the host took from this VM's vCPUs (steal) and all jiffies, from
/// the first line of /proc/stat; zeros when it cannot be read.
std::pair<double, double> cpu_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[8] = {};
  in >> cpu;
  for (double& x : v) in >> x;
  double total = 0.0;
  for (const double x : v) total += x;
  return {v[7], total};
}

void print_result(const Report& rep, const std::vector<std::string>& names,
                  bool correct) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted());
  json += ", \"failed\": " + std::to_string(rep.failed());
  json += ", \"metrics\": {";
  char buf[96];
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& m = rep.metrics().at(names[i]);
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + names[i] + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool all_metrics = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) opt.workload = argv[++i];
    else if (a == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds" && has_value) opt.seconds = std::atof(argv[++i]);
    else if (a == "--trace" && has_value) opt.trace = std::atoi(argv[++i]) != 0;
    else if (a == "--outdir" && has_value) opt.outdir = argv[++i];
    else if (a == "--all-metrics") all_metrics = true;
    else return usage();
  }
  if (!have_seed) return usage();
  if (opt.seconds <= 0.0) return usage();
  std::filesystem::create_directories(opt.outdir);

  utsname un{};
  uname(&un);
  std::fprintf(stderr,
               "xfc_perfbench %s seed=%llu seconds=%g trace=%d XFC_THREADS=%d "
               "fs=%s kernel=%s\n",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               opt.seconds, opt.trace ? 1 : 0, xfc::hardware_threads(),
               filesystem_type(opt.outdir).c_str(), un.release);

  const auto [steal0, total0] = cpu_steal_jiffies();
  Report rep;
  RunStatus status;
  try {
    if (opt.workload == "ingest") status = run_ingest(opt, rep);
    else if (opt.workload == "serve-hot") status = run_serve(opt, true, rep);
    else if (opt.workload == "serve-cold-put") status = run_serve(opt, false, rep);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FAIL: %s\n", e.what());
    return 1;
  }
  const auto [steal1, total1] = cpu_steal_jiffies();
  // Time the host ran other guests on this VM's vCPUs: the noise floor
  // of every timing in this run.
  if (total1 > total0)
    std::fprintf(stderr, "host steal during the run: %.2f%% of CPU time\n",
                 100.0 * (steal1 - steal0) / (total1 - total0));
  if (status == RunStatus::kInvalid) return 3;

  const double attempted = static_cast<double>(rep.attempted());
  rep.set("peak_rss_mb", peak_rss_mb(), "MB");
  rep.set("ops_ok_pct",
          attempted > 0 ? 100.0 * (attempted - static_cast<double>(rep.failed())) / attempted
                        : 0.0,
          "%");
  if (opt.trace) {
    Tracer::get().set_on(false);
    const std::vector<SpanRec> spans = Tracer::get().collect();
    set_span_metrics(spans, rep);
    write_trace(opt, spans);
  }

  std::vector<std::string> names;
  if (!opt.trace || all_metrics) names.insert(names.end(), kEndToEnd.begin(), kEndToEnd.end());
  if (opt.trace) names.insert(names.end(), kPerLayer.begin(), kPerLayer.end());
  bool correct = rep.failed() == 0 && rep.attempted() > 0;
  for (const std::string& n : names) {
    const auto it = rep.metrics().find(n);
    if (it == rep.metrics().end() || !std::isfinite(it->second.value)) {
      std::fprintf(stderr, "FAIL: metric %s was not measured\n", n.c_str());
      rep.set(n, 0.0, it == rep.metrics().end() ? "count" : it->second.unit);
      correct = false;
    }
  }
  if (!correct)
    std::fprintf(stderr, "FAIL: %llu of %llu checked operations failed\n",
                 static_cast<unsigned long long>(rep.failed()),
                 static_cast<unsigned long long>(rep.attempted()));
  print_result(rep, names, correct);
  return correct ? 0 : 1;
}
