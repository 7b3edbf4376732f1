// Command-line compressor for raw float32 fields (SDRBench layout). With
// real SDRBench files this runs the paper's pipeline on the paper's actual
// data:
//
//   xfc_cli compress   in.f32 out.xfc D H W [rel_eb]       (baseline)
//   xfc_cli decompress in.xfc out.f32
//   xfc_cli xcompress  tgt.f32 out.xfc D H W rel_eb a1.f32 a2.f32 ...
//   xfc_cli xdecompress in.xfc out.f32 D H W a1.f32 a2.f32 ...
//   xfc_cli info       in.xfc                       (stream header dump;
//                                                    cross-field: hybrid
//                                                    weights, payload size)
//   xfc_cli verify     ref.f32 test.f32             (PSNR/SSIM/max error)
//
// Tiled archives (XFA1, random access + tile-parallel decode):
//   xfc_cli archive create  out.xfa D H W rel_eb in1.f32 [in2.f32 ...]
//   xfc_cli archive extract in.xfa FIELD out.f32
//   xfc_cli archive region  in.xfa FIELD out.f32 lo0 hi0 [lo1 hi1 [lo2 hi2]]
//   xfc_cli archive info    in.xfa
//   xfc_cli archive verify  in.xfa            (CRC-walk every tile; exit 1
//                                              when any tile is damaged)
//   xfc_cli archive repair  in.xfa out.xfa    (salvage intact tiles into a
//                                              fresh archive)
//
// Archive serving (XFS: HTTP region queries through the decoded-tile cache):
//   xfc_cli serve in.xfa [--ingest] [--port P] [--cache-mb M] [--threads N]
// SIGTERM/SIGQUIT drain gracefully (stop accepting, finish in-flight);
// SIGINT stops immediately; SIGHUP reopens the access log (logrotate).
//
// For 2D data pass D=1 (a leading extent of 1 is dropped). Global flags:
//   --json FILE   machine-readable stats (bench_json records)
//   --tile N      archive tile edge per axis (default 256^2 / 64^3)
//   --codec C     archive tile codec: sz | classic | interp | zfp
//   --port P      serve: TCP port (default 8080)
//   --cache-mb M  serve: decoded-tile cache budget in MiB (default 256)
//   --threads N   serve: worker-pool width (default: hardware)
//   --profile F   sample CPU for the whole run; folded stacks land in F

#include <atomic>
#include <charconv>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "archive/repair.hpp"
#include "archive/tile.hpp"
#include "bench/bench_json.hpp"
#include "core/utils.hpp"
#include "crossfield/crossfield.hpp"
#include "data/sdr.hpp"
#include "io/file.hpp"
#include "metrics/metrics.hpp"
#include "obs/access_log.hpp"
#include "obs/profiler.hpp"
#include "server/http.hpp"
#include "server/service.hpp"
#include "sz/compressor.hpp"
#include "sz/container.hpp"

namespace {

using namespace xfc;

const char* codec_names[] = {"sz (dual-quant)", "zfp-style", "cross-field",
                             "interpolation", "sz (classic)"};

/// The one parser for integer arguments: the whole string must be decimal
/// digits (no sign, no spaces, no trailing text) naming a value in
/// [min, max]. Anything else is an InvalidArgument, which main() reports as
/// an `error:` line and exit status 1.
std::size_t parse_uint(const std::string& what, const std::string& text,
                       std::size_t min, std::size_t max) {
  std::size_t value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value < min || value > max)
    throw InvalidArgument(what + " wants an integer in [" +
                          std::to_string(min) + ", " + std::to_string(max) +
                          "], got: '" + text + "'");
  return value;
}

/// Error bounds, by the same rules: a whole finite number above zero.
double parse_bound(const std::string& text) {
  double value = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !std::isfinite(value) ||
      !(value > 0))
    throw InvalidArgument("rel_eb wants a positive number, got: '" + text +
                          "'");
  return value;
}

/// Flags shared across subcommands, stripped from argv before positional
/// parsing so they may appear anywhere on the command line.
struct CliFlags {
  std::string json_path;       // --json FILE
  std::size_t tile_edge = 0;   // --tile N (0 = default tile shape)
  std::string codec = "sz";    // --codec C
  std::size_t port = 8080;     // --port P (serve)
  std::size_t cache_mb = 256;  // --cache-mb M (serve)
  std::size_t threads = 0;     // --threads N (serve; 0 = hardware)
  std::string access_log;      // --access-log FILE|- (serve; empty = off)
  std::size_t slow_ms = 100;   // --slow-ms N (serve; slow-request logging)
  std::string profile;         // --profile FILE|- (folded CPU samples)
  bool ingest = false;         // --ingest (serve: enable PUT /field/<name>)
};

CliFlags strip_flags(std::vector<std::string>& args) {
  CliFlags flags;
  std::vector<std::string> kept;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const bool is_flag = args[i] == "--json" || args[i] == "--tile" ||
                         args[i] == "--codec" || args[i] == "--port" ||
                         args[i] == "--cache-mb" || args[i] == "--threads" ||
                         args[i] == "--access-log" || args[i] == "--slow-ms" ||
                         args[i] == "--profile";
    if (is_flag && i + 1 >= args.size())
      throw InvalidArgument(args[i] + " needs a value");
    if (args[i] == "--json") {
      flags.json_path = args[++i];
    } else if (args[i] == "--tile") {
      flags.tile_edge = parse_uint("--tile", args[++i], 1, kMaxShapeExtent);
    } else if (args[i] == "--codec") {
      flags.codec = args[++i];
    } else if (args[i] == "--port") {
      flags.port = parse_uint("--port", args[++i], 1, 65535);
    } else if (args[i] == "--cache-mb") {
      flags.cache_mb = parse_uint("--cache-mb", args[++i], 1,
                                  std::numeric_limits<std::size_t>::max() >>
                                      20);
    } else if (args[i] == "--threads") {
      // The pool honours XFC_THREADS up to 1024.
      flags.threads = parse_uint("--threads", args[++i], 1, 1024);
    } else if (args[i] == "--access-log") {
      flags.access_log = args[++i];
    } else if (args[i] == "--ingest") {
      flags.ingest = true;
    } else if (args[i] == "--slow-ms") {
      flags.slow_ms = parse_uint("--slow-ms", args[++i], 0, INT_MAX);
    } else if (args[i] == "--profile") {
      flags.profile = args[++i];
    } else {
      kept.push_back(args[i]);
    }
  }
  args = std::move(kept);
  return flags;
}

CodecId parse_codec(const std::string& name) {
  if (name == "sz") return CodecId::kSz;
  if (name == "classic") return CodecId::kSzClassic;
  if (name == "interp") return CodecId::kInterp;
  if (name == "zfp") return CodecId::kZfp;
  throw InvalidArgument("unknown --codec (want sz|classic|interp|zfp): " +
                        name);
}

/// Writes collected stats when --json was given; warns on I/O failure.
void finish_json(const bench::BenchJson& json, const CliFlags& flags) {
  if (flags.json_path.empty()) return;
  if (!json.write(flags.json_path))
    std::fprintf(stderr, "warning: could not write %s\n",
                 flags.json_path.c_str());
}

Shape parse_shape(const std::string& d, const std::string& h,
                  const std::string& w) {
  const std::size_t D = parse_uint("D", d, 1, kMaxShapeExtent);
  const std::size_t H = parse_uint("H", h, 1, kMaxShapeExtent);
  const std::size_t W = parse_uint("W", w, 1, kMaxShapeExtent);
  if (D == 1) return Shape{H, W};
  return Shape{D, H, W};
}

std::string stem(const std::string& path) {
  const auto slash = path.find_last_of('/');
  const auto base = slash == std::string::npos ? path : path.substr(slash + 1);
  const auto dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  xfc_cli compress   in.f32 out.xfc D H W [rel_eb]\n"
               "  xfc_cli decompress in.xfc out.f32\n"
               "  xfc_cli xcompress  tgt.f32 out.xfc D H W rel_eb "
               "anchor1.f32 [anchor2.f32 ...]\n"
               "  xfc_cli xdecompress in.xfc out.f32 D H W "
               "anchor1.f32 [anchor2.f32 ...]\n"
               "  xfc_cli info in.xfc\n"
               "  xfc_cli verify ref.f32 test.f32\n"
               "  xfc_cli archive create  out.xfa D H W rel_eb in1.f32 "
               "[in2.f32 ...]\n"
               "  xfc_cli archive extract in.xfa FIELD out.f32\n"
               "  xfc_cli archive region  in.xfa FIELD out.f32 "
               "lo0 hi0 [lo1 hi1 [lo2 hi2]]\n"
               "  xfc_cli archive info    in.xfa\n"
               "  xfc_cli archive verify  in.xfa\n"
               "  xfc_cli archive repair  in.xfa out.xfa\n"
               "  xfc_cli serve in.xfa [--ingest] [--port P] [--cache-mb M] "
               "[--threads N]\n"
               "           [--access-log FILE|-] [--slow-ms N]\n"
               "flags: --json FILE  --tile N  --codec sz|classic|interp|zfp\n"
               "       --port P  --cache-mb M  --threads N\n"
               "       --access-log FILE|-  (serve: JSON line per request)\n"
               "       --slow-ms N  (serve: log span tree over N ms; "
               "default 100)\n"
               "       --profile FILE|-  (sample CPU at 97 Hz for the whole "
               "run; folded\n"
               "                          stacks for flamegraph.pl land in "
               "FILE at exit)\n");
  return 2;
}

volatile std::sig_atomic_t g_stop_serving = 0;   // SIGINT: stop now
volatile std::sig_atomic_t g_drain_serving = 0;  // SIGTERM/SIGQUIT: drain
volatile std::sig_atomic_t g_rotate_log = 0;     // SIGHUP: reopen logs

void handle_stop_signal(int) { g_stop_serving = 1; }
void handle_drain_signal(int) { g_drain_serving = 1; }
void handle_rotate_signal(int) { g_rotate_log = 1; }

/// --profile: arms the sampling profiler for the process lifetime and
/// writes folded stacks where the flag said, whatever exit path runs.
struct ProfileScope {
  std::string path;
  bool armed = false;
  explicit ProfileScope(const std::string& file) : path(file) {
    if (path.empty()) return;
    armed = obs::profiler_arm({});
    if (!armed)
      std::fprintf(stderr, "warning: --profile ignored (already armed)\n");
  }
  ~ProfileScope() {
    if (!armed) return;
    const obs::ProfileReport report = obs::profiler_disarm();
    std::FILE* f =
        path == "-" ? stdout : std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
      return;
    }
    std::fwrite(report.folded.data(), 1, report.folded.size(), f);
    if (f != stdout) std::fclose(f);
    std::fprintf(stderr,
                 "profile: %llu samples (%llu dropped) from %u thread(s) "
                 "at %.0f Hz -> %s\n",
                 static_cast<unsigned long long>(report.samples),
                 static_cast<unsigned long long>(report.dropped),
                 report.threads, report.hz, path.c_str());
  }
};

int run_serve(const std::string& archive_path, const CliFlags& flags) {
  // The pool sizes itself on first use; pin it before anything parallel
  // runs so --threads governs both tile decode and request handling.
  if (flags.threads > 0) {
    const std::string n = std::to_string(flags.threads);
    setenv("XFC_THREADS", n.c_str(), 1);
  }

  auto reader = std::make_shared<const ArchiveReader>(
      ArchiveReader::open_file(archive_path));
  server::ServiceConfig service_config;
  service_config.cache_bytes = flags.cache_mb << 20;
  if (flags.ingest) service_config.archive_path = archive_path;
  server::ArchiveService service(reader, service_config);

  server::HttpConfig http_config;
  http_config.port = static_cast<std::uint16_t>(flags.port);
  http_config.slow_ms = static_cast<int>(flags.slow_ms);
  if (flags.ingest) {
    // PUT bodies carry whole fields; the default 64 KiB request cap is a
    // read-path guard. Cap at the ingest value budget plus header room.
    http_config.max_request_bytes =
        service_config.max_ingest_values * sizeof(float) + (64u << 10);
  }
  if (!flags.access_log.empty())
    http_config.access_log = obs::AccessLog::open(flags.access_log);
  server::HttpServer http(http_config,
                          [&service](const server::HttpRequest& request) {
                            return service.handle(request);
                          });
  http.start();

  std::printf("XFS: serving %s on http://127.0.0.1:%u/\n",
              archive_path.c_str(), http.port());
  std::printf("     %zu fields, cache %zu MiB, %d pool threads\n",
              reader->fields().size(), flags.cache_mb, hardware_threads());
  std::printf("     endpoints: /fields /field/<name>/region?lo=..&hi=.. "
              "/stats /metrics /healthz /readyz\n");
  if (flags.ingest)
    std::printf("     live ingest enabled: PUT /field/<name>?shape=..&eb=.. "
                "(raw f32 body)\n");

  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_drain_signal);
  std::signal(SIGQUIT, handle_drain_signal);
  std::signal(SIGHUP, handle_rotate_signal);
  while (g_stop_serving == 0 && g_drain_serving == 0) {
    if (g_rotate_log != 0) {
      // logrotate convention: the rotator renamed the file and HUPped us;
      // reopen the original path so new lines land in a fresh file.
      g_rotate_log = 0;
      if (http_config.access_log != nullptr &&
          !http_config.access_log->reopen())
        std::fprintf(stderr, "warning: access-log reopen failed; "
                             "keeping the rotated file handle\n");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  }
  if (g_drain_serving != 0 && g_stop_serving == 0) {
    // Graceful: flip /readyz to "draining" so load balancers route away,
    // stop accepting, and let in-flight requests finish.
    service.set_ready(false);
    std::printf("\ndraining (finishing in-flight requests)...\n");
    const bool clean = http.drain();
    std::printf(clean ? "drained cleanly\n"
                      : "drain deadline expired; stopped hard\n");
  } else {
    http.stop();
  }

  const server::HttpServerStats hs = http.stats();
  const server::TileCacheStats cs = service.cache().stats();
  std::printf("\nstopped: %llu requests (%llu bad), cache %llu hits / "
              "%llu misses / %llu evictions\n",
              static_cast<unsigned long long>(hs.requests),
              static_cast<unsigned long long>(hs.bad_requests),
              static_cast<unsigned long long>(cs.hits),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.evictions));
  return 0;
}

int run_archive(const std::vector<std::string>& args, const CliFlags& flags) {
  bench::BenchJson json;
  const std::string& sub = args[0];

  if (sub == "create" && args.size() >= 7) {
    const Shape shape =
        parse_shape(args[2], args[3], args[4]);
    const double rel_eb = parse_bound(args[5]);

    ArchiveFieldOptions opts;
    opts.eb = ErrorBound::relative(rel_eb);
    opts.codec = parse_codec(flags.codec);
    if (flags.tile_edge > 0) {
      std::vector<std::size_t> t(shape.ndim(), flags.tile_edge);
      opts.tile = Shape(std::span<const std::size_t>(t.data(), t.size()));
    }

    FileSink sink(args[1]);
    ArchiveWriter writer(sink);
    std::size_t original = 0;
    const double t0 = bench::now_ms();
    for (std::size_t i = 6; i < args.size(); ++i) {
      const Field field = load_f32(args[i], shape, stem(args[i]));
      original += field.size() * sizeof(float);
      writer.add_field(field, opts);
    }
    writer.finish();
    const double wall = bench::now_ms() - t0;

    const double ratio = static_cast<double>(original) / sink.size();
    std::printf("%s: %zu fields, %zu -> %zu bytes (%.2fx)\n",
                args[1].c_str(), writer.fields_written(), original,
                sink.size(), ratio);
    json.add("archive_create", wall, static_cast<double>(original));
    json.add_value("archive_bytes", static_cast<double>(sink.size()));
    json.add_value("archive_ratio", ratio);
    finish_json(json, flags);
    return 0;
  }

  if (sub == "extract" && args.size() >= 4) {
    ArchiveReader reader = ArchiveReader::open_file(args[1]);
    const double t0 = bench::now_ms();
    const Field field = reader.read_field(args[2]);
    const double wall = bench::now_ms() - t0;
    store_f32(args[3], field);
    std::printf("%s: wrote %zu values of field '%s'\n", args[3].c_str(),
                field.size(), field.name().c_str());
    json.add("archive_extract", wall,
             static_cast<double>(field.size() * sizeof(float)));
    finish_json(json, flags);
    return 0;
  }

  if (sub == "region" && args.size() >= 6) {
    ArchiveReader reader = ArchiveReader::open_file(args[1]);
    const ArchiveFieldInfo* info = reader.find(args[2]);
    if (info == nullptr) {
      std::fprintf(stderr, "error: no such field: %s\n", args[2].c_str());
      return 1;
    }
    const std::size_t ndim = info->shape.ndim();
    if (args.size() != 4 + 2 * ndim) {
      std::fprintf(stderr, "error: field is %zuD; need %zu bounds\n", ndim,
                   2 * ndim);
      return 1;
    }
    std::size_t lo[3], hi[3];
    for (std::size_t d = 0; d < ndim; ++d) {
      const std::string axis = std::to_string(d);
      lo[d] = parse_uint("lo" + axis, args[4 + 2 * d], 0, info->shape[d] - 1);
      hi[d] = parse_uint("hi" + axis, args[5 + 2 * d], lo[d] + 1,
                         info->shape[d]);
    }
    const double t0 = bench::now_ms();
    const Field region =
        reader.read_region(args[2], std::span<const std::size_t>(lo, ndim),
                           std::span<const std::size_t>(hi, ndim));
    const double wall = bench::now_ms() - t0;
    store_f32(args[3], region);
    std::printf("%s: wrote %zu values of region of '%s'\n", args[3].c_str(),
                region.size(), args[2].c_str());
    json.add("archive_region", wall,
             static_cast<double>(region.size() * sizeof(float)));
    finish_json(json, flags);
    return 0;
  }

  if (sub == "info" && args.size() >= 2) {
    ArchiveReader reader = ArchiveReader::open_file(args[1]);
    std::printf("fields:    %zu\n", reader.fields().size());
    std::printf("epochs:    %u\n", reader.epoch_count());
    if (reader.recovered_bytes_discarded() != 0)
      std::printf("recovered: discarded %zu bytes of torn tail past the "
                  "last sealed epoch\n",
                  reader.recovered_bytes_discarded());
    std::size_t total_compressed = 0;
    std::size_t total_values = 0;
    for (const ArchiveFieldInfo& f : reader.fields()) {
      total_compressed += f.compressed_bytes();
      total_values += f.shape.size();
    }
    for (const ArchiveFieldInfo& f : reader.fields()) {
      std::printf("  %-12s %-16s", f.name.c_str(),
                  codec_names[static_cast<int>(f.codec)]);
      std::printf(" shape");
      for (std::size_t d = 0; d < f.shape.ndim(); ++d)
        std::printf(" %zu", f.shape[d]);
      std::printf("  tile");
      for (std::size_t d = 0; d < f.tile.ndim(); ++d)
        std::printf(" %zu", f.tile[d]);
      const std::size_t compressed = f.compressed_bytes();
      std::printf("  %zu tiles  %zu bytes (%.2fx)  abs_eb %.3g",
                  f.tiles.size(), compressed,
                  static_cast<double>(f.shape.size() * 4) / compressed,
                  f.abs_eb);
      if (!f.anchors.empty()) {
        std::printf("  anchors");
        for (const std::string& a : f.anchors) std::printf(" %s", a.c_str());
      }
      if (reader.epoch_count() > 1) std::printf("  epoch %u", f.epoch);
      std::printf("\n");
    }
    if (!flags.json_path.empty()) {
      json.add_value("archive_fields",
                     static_cast<double>(reader.fields().size()));
      json.add_value("archive_epochs",
                     static_cast<double>(reader.epoch_count()));
      json.add_value("tile_bytes_total",
                     static_cast<double>(total_compressed));
      json.add_value("ratio", static_cast<double>(total_values * 4) /
                                  static_cast<double>(total_compressed));
      for (const ArchiveFieldInfo& f : reader.fields())
        json.add_value(f.name + "_bytes",
                       static_cast<double>(f.compressed_bytes()));
      finish_json(json, flags);
    }
    return 0;
  }

  if (sub == "verify" && args.size() >= 2) {
    ArchiveReader reader = ArchiveReader::open_file(args[1]);
    const double t0 = bench::now_ms();
    const ArchiveScrubReport report = reader.scrub();
    const double wall = bench::now_ms() - t0;
    std::printf("%s: %zu/%zu tiles ok, %u epoch(s)\n", args[1].c_str(),
                report.tiles_ok, report.tiles_total, reader.epoch_count());
    if (reader.recovered_bytes_discarded() != 0)
      std::printf("  recovered: opened at the last sealed epoch; %zu bytes "
                  "of torn tail discarded\n",
                  reader.recovered_bytes_discarded());
    for (const ArchiveTileError& e : report.errors)
      std::printf("  BAD field '%s' tile %zu @%llu: %s\n", e.field.c_str(),
                  e.ordinal, static_cast<unsigned long long>(e.offset),
                  e.message.c_str());
    if (!flags.json_path.empty()) {
      json.add("archive_verify", wall,
               static_cast<double>(report.tiles_total));
      json.add_value("scrub_tiles_total",
                     static_cast<double>(report.tiles_total));
      json.add_value("scrub_tiles_ok", static_cast<double>(report.tiles_ok));
      json.add_value("scrub_errors",
                     static_cast<double>(report.errors.size()));
      json.add_value("scrub_epochs",
                     static_cast<double>(reader.epoch_count()));
      json.add_value("recovered_bytes_discarded",
                     static_cast<double>(reader.recovered_bytes_discarded()));
      finish_json(json, flags);
    }
    return report.clean() ? 0 : 1;
  }

  if (sub == "repair" && args.size() >= 3) {
    ArchiveReader reader = ArchiveReader::open_file(args[1]);
    FileSink sink(args[2]);
    const RepairReport report = archive_repair(reader, sink);
    for (const RepairFieldOutcome& f : report.fields) {
      const char* verb =
          f.action == RepairFieldOutcome::Action::kIntact    ? "intact "
          : f.action == RepairFieldOutcome::Action::kPatched ? "patched"
                                                             : "DROPPED";
      std::printf("  %s %-12s %zu/%zu tiles salvaged", verb, f.name.c_str(),
                  f.tiles_salvaged, f.tiles_total);
      if (!f.reason.empty()) std::printf("  (%s)", f.reason.c_str());
      std::printf("\n");
    }
    std::printf("%s: %zu tiles salvaged, %zu patched, %zu field(s) "
                "dropped\n",
                args[2].c_str(), report.tiles_salvaged, report.tiles_patched,
                report.fields_dropped);
    if (!flags.json_path.empty()) {
      json.add_value("repair_tiles_salvaged",
                     static_cast<double>(report.tiles_salvaged));
      json.add_value("repair_tiles_patched",
                     static_cast<double>(report.tiles_patched));
      json.add_value("repair_fields_dropped",
                     static_cast<double>(report.fields_dropped));
      finish_json(json, flags);
    }
    return 0;
  }

  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> all(argv + 1, argv + argc);
  try {
    const CliFlags flags = strip_flags(all);
    if (all.size() < 2) return usage();
    const ProfileScope profile(flags.profile);
    const std::string cmd = all[0];
    // Positional arguments after the command, re-exposed with the historic
    // argv numbering (arg(i) below corresponds to the old argv[i]).
    auto arg = [&](std::size_t i) -> const std::string& {
      return all[i - 1];
    };
    const std::size_t nargs = all.size() + 1;  // historic argc equivalent
    if (cmd == "archive")
      return run_archive(
          std::vector<std::string>(all.begin() + 1, all.end()), flags);
    if (cmd == "serve") return run_serve(all[1], flags);
    bench::BenchJson json;
    if (cmd == "compress" && nargs >= 7) {
      const Shape shape =
          parse_shape(arg(4), arg(5), arg(6));
      const Field field = load_f32(arg(2), shape, stem(arg(2)));
      SzOptions opt;
      opt.eb = ErrorBound::relative(nargs > 7 ? parse_bound(arg(7)) : 1e-3);
      SzStats stats;
      const double t0 = bench::now_ms();
      const auto stream = sz_compress(field, opt, &stats);
      const double wall = bench::now_ms() - t0;
      write_file(arg(3), stream);
      std::printf("%s: %zu -> %zu bytes (%.2fx)\n", arg(2).c_str(),
                  stats.original_bytes, stats.compressed_bytes,
                  stats.compression_ratio);
      json.add("compress", wall, static_cast<double>(stats.original_bytes));
      json.add_value("compressed_bytes",
                     static_cast<double>(stats.compressed_bytes));
      json.add_value("ratio", stats.compression_ratio);
      json.add_value("bit_rate", stats.bit_rate);
      json.add_value("abs_eb", stats.abs_eb);
      finish_json(json, flags);
      return 0;
    }
    if (cmd == "decompress" && nargs >= 4) {
      const auto stream = read_file(arg(2));
      const double t0 = bench::now_ms();
      const Field field = sz_decompress(stream);
      const double wall = bench::now_ms() - t0;
      store_f32(arg(3), field);
      std::printf("%s: wrote %zu values of field '%s'\n", arg(3).c_str(),
                  field.size(), field.name().c_str());
      json.add("decompress", wall,
               static_cast<double>(field.size() * sizeof(float)));
      finish_json(json, flags);
      return 0;
    }
    if (cmd == "xcompress" && nargs >= 9) {
      const Shape shape =
          parse_shape(arg(4), arg(5), arg(6));
      const Field target = load_f32(arg(2), shape, stem(arg(2)));
      const double rel_eb = parse_bound(arg(7));
      std::vector<Field> anchor_storage;
      std::vector<const Field*> anchors;
      for (std::size_t i = 8; i <= nargs - 1; ++i)
        anchor_storage.push_back(load_f32(arg(i), shape, stem(arg(i))));
      for (const Field& a : anchor_storage) anchors.push_back(&a);

      std::printf("training CFNN on %zu anchors ...\n", anchors.size());
      CfnnConfig cfg{32, 8, 3};
      CfnnTrainOptions train;
      train.epochs = 15;
      train.verbose = true;
      const double t0 = bench::now_ms();
      const CfnnModel model =
          train_cross_field_model(target, anchors, cfg, train);
      const double train_wall = bench::now_ms() - t0;

      CrossFieldOptions opt;
      opt.eb = ErrorBound::relative(rel_eb);
      SzStats stats;
      const double t1 = bench::now_ms();
      const auto stream =
          cross_field_compress(target, anchors, model, opt, &stats);
      const double wall = bench::now_ms() - t1;
      write_file(arg(3), stream);
      std::printf("%s: %zu -> %zu bytes (%.2fx, model included)\n",
                  arg(2).c_str(), stats.original_bytes,
                  stats.compressed_bytes, stats.compression_ratio);
      json.add("cfnn_train", train_wall);
      json.add("xcompress", wall,
               static_cast<double>(stats.original_bytes));
      json.add_value("compressed_bytes",
                     static_cast<double>(stats.compressed_bytes));
      json.add_value("ratio", stats.compression_ratio);
      json.add_value("bit_rate", stats.bit_rate);
      json.add_value("abs_eb", stats.abs_eb);
      finish_json(json, flags);
      return 0;
    }
    if (cmd == "xdecompress" && nargs >= 8) {
      const Shape shape =
          parse_shape(arg(4), arg(5), arg(6));
      const auto stream = read_file(arg(2));
      std::vector<Field> anchor_storage;
      std::vector<const Field*> anchors;
      for (std::size_t i = 7; i <= nargs - 1; ++i)
        anchor_storage.push_back(load_f32(arg(i), shape, stem(arg(i))));
      for (const Field& a : anchor_storage) anchors.push_back(&a);
      const double t0 = bench::now_ms();
      const Field field = cross_field_decompress(stream, anchors);
      const double wall = bench::now_ms() - t0;
      store_f32(arg(3), field);
      std::printf("%s: wrote %zu values of field '%s'\n", arg(3).c_str(),
                  field.size(), field.name().c_str());
      json.add("xdecompress", wall,
               static_cast<double>(field.size() * sizeof(float)));
      finish_json(json, flags);
      return 0;
    }
    if (cmd == "info" && nargs >= 3) {
      const auto stream = read_file(arg(2));
      const auto parsed = parse_container(stream);
      std::printf("codec:     %s\n",
                  codec_names[static_cast<int>(parsed.codec)]);
      ByteReader in(parsed.body);
      const Shape shape = read_shape(in);
      std::printf("shape:    ");
      for (std::size_t d = 0; d < shape.ndim(); ++d)
        std::printf(" %zu", shape[d]);
      std::printf("  (%zu values)\n", shape.size());
      std::printf("field:     %s\n", in.str().c_str());
      if (parsed.codec == CodecId::kZfp) {
        std::printf("bound:     absolute tolerance %.3g\n", in.f64());
      } else {
        const int eb_mode = in.u8();
        const double eb_value = in.f64();
        const double abs_eb = in.f64();
        std::printf("bound:     %s %.3g (absolute %.3g)\n",
                    eb_mode == 0 ? "absolute" : "relative", eb_value,
                    abs_eb);
      }
      std::printf("size:      %zu bytes (%.2fx vs float32, %.3f bits/value)\n",
                  stream.size(),
                  static_cast<double>(shape.size() * 4) / stream.size(),
                  8.0 * stream.size() / static_cast<double>(shape.size()));
      if (parsed.codec == CodecId::kCrossField) {
        (void)in.varint();  // radius
        const std::uint64_t n_anchors = in.varint();
        std::printf("anchors:  ");
        for (std::uint64_t i = 0; i < n_anchors; ++i)
          std::printf(" %s", in.str().c_str());
        const auto model_bytes = in.blob();
        std::printf("\nmodel:     %zu bytes embedded\n", model_bytes.size());
        const HybridModel hybrid = HybridModel::deserialize(in);
        std::printf("hybrid:    weights");
        for (double w : hybrid.weights()) std::printf(" %.6g", w);
        std::printf(", bias %.6g\n", hybrid.bias());
        std::printf("payload:   %zu bytes (lossless-coded deltas)\n",
                    in.blob_view().size());
      }
      json.add_value("stream_bytes", static_cast<double>(stream.size()));
      json.add_value("ratio",
                     static_cast<double>(shape.size() * 4) / stream.size());
      json.add_value("bits_per_value",
                     8.0 * stream.size() / static_cast<double>(shape.size()));
      finish_json(json, flags);
      return 0;
    }
    if (cmd == "verify" && nargs >= 4) {
      const auto ref_data = read_f32_file(arg(2));
      const auto test_data = read_f32_file(arg(3));
      if (ref_data.size() != test_data.size()) {
        std::fprintf(stderr, "error: size mismatch (%zu vs %zu values)\n",
                     ref_data.size(), test_data.size());
        return 1;
      }
      const Shape shape{ref_data.size()};
      const Field ref("ref", F32Array(shape, std::move(ref_data)));
      const Field test("test", F32Array(shape, std::move(test_data)));
      const double max_err =
          max_abs_error(ref.array().span(), test.array().span());
      const double mse_v = mse(ref.array().span(), test.array().span());
      const double psnr_v = psnr(ref, test);
      const double nrmse_v = nrmse(ref, test);
      std::printf("max |error|: %.6g\n", max_err);
      std::printf("MSE:         %.6g\n", mse_v);
      std::printf("PSNR:        %.2f dB\n", psnr_v);
      std::printf("NRMSE:       %.6g\n", nrmse_v);
      json.add_value("max_abs_error", max_err);
      json.add_value("mse", mse_v);
      json.add_value("psnr", psnr_v);
      json.add_value("nrmse", nrmse_v);
      finish_json(json, flags);
      return 0;
    }
  } catch (const XfcError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return usage();
}
