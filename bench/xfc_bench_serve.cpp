// Loopback QPS/latency bench for the XFS archive-serving subsystem.
//
// Builds an in-memory XFA1 archive (CESM-like 512x512 field at 64^2 and
// 128^2 tiles), then measures four layers:
//
//   1. the raw per-tile decode entry point (ArchiveReader::read_tile) —
//      the per-tile fixed costs the decode scratch arena targets,
//   2. the service layer with a cold vs warm decoded-tile cache — the
//      cache's amortization of the expensive decode paths,
//   3. real HTTP over loopback (keep-alive client) — end-to-end region
//      QPS and latency including socket + parse + serialize overhead, and
//   4. a latency distribution sweep — N concurrent keep-alive connections
//      hammering the warm region target, per-request timings observed into
//      an obs::Histogram with a fine log-spaced grid so p50/p99/p999 come
//      from the same interpolation (`histogram_quantile`) the /metrics
//      consumers use.
//
// `--overhead-check` runs a different experiment instead: an interleaved
// min-of-5 A/B of the warm service path with observability enabled vs
// runtime-disabled (`obs::set_enabled(false)`). It exits nonzero when the
// instrumented path exceeds a generous 1.5x of the disabled path — wired
// into ctest as `bench_obs_overhead` so an accidental lock or allocation on
// the hot path fails CI rather than a dashboard.
//
// `--profile-check` exercises the sampling profiler end to end (wired into
// ctest as `profiler_smoke`): it profiles a compress + cross-field
// region-decode workload and requires the folded stacks to name the known
// hot kernels (conv_rows, huffman, miniflate), then runs an interleaved
// min-of-5 A/B of the warm service path armed at 97 Hz vs disarmed and
// fails if sampling costs more than a noise-margin ceiling.
//
// JSON lands in <outdir>/serve.json; the checked-in BENCH_pr4.json at the
// repo root adds before/after numbers for the records that existed before
// this PR (see ROADMAP "Performance").

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive_appender.hpp"
#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "archive/tile.hpp"
#include "bench_json.hpp"
#include "bench_util.hpp"
#include "core/rng.hpp"
#include "crossfield/crossfield.hpp"
#include "data/dataset.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "server/http.hpp"
#include "server/service.hpp"

namespace {

using namespace xfc;
using namespace xfc::bench;

std::shared_ptr<const ArchiveReader> build_archive(
    std::vector<std::uint8_t>& storage) {
  auto ds = make_dataset(DatasetKind::kCesm, Shape{512, 512}, 7);
  Field field = ds.fields[0];

  VectorSink sink;
  ArchiveWriter writer(sink);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{64, 64};
  field.set_name("flut64");
  writer.add_field(field, opts);
  opts.tile = Shape{128, 128};
  field.set_name("flut128");
  writer.add_field(field, opts);
  writer.finish();
  storage = sink.take();
  return std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(storage));
}

server::HttpRequest region_request() {
  server::HttpRequest r;
  r.method = "GET";
  r.path = "/field/flut64/region";
  r.query = "lo=64,64&hi=192,192";
  return r;
}

/// Instrumentation-overhead gate: interleaved A/B of the warm service path
/// (cache hits, region assembly, ETag) with metrics+tracing enabled vs
/// runtime-disabled. Min-of-5 on both sides kills scheduler noise; the
/// 1.5x ceiling is deliberately generous — the hooks cost nanoseconds
/// against a tens-of-µs request, so tripping it means something structural
/// (a lock, an allocation, a syscall) landed on the hot path.
int run_overhead_check(const BenchOptions& opt) {
  std::vector<std::uint8_t> storage;
  const auto reader = build_archive(storage);
  BenchJson json;

  print_header("observability overhead  [warm region, obs on vs off]");
  server::ArchiveService service(reader);
  const server::HttpRequest req = region_request();
  (void)service.handle(req);  // warm the tile cache

  constexpr int kReps = 5;
  constexpr int kIters = 40;
  auto sample_ms = [&] {
    const double t0 = now_ms();
    for (int i = 0; i < kIters; ++i) {
      const auto resp = service.handle(req);
      if (resp.status != 200) std::abort();
    }
    return (now_ms() - t0) / kIters;
  };

  double best_on = 1e300, best_off = 1e300;
  sample_ms();  // warmup (page faults, branch predictors) outside the A/B
  for (int rep = 0; rep < kReps; ++rep) {
    obs::set_enabled(true);
    best_on = std::min(best_on, sample_ms());
    obs::set_enabled(false);
    best_off = std::min(best_off, sample_ms());
  }
  obs::set_enabled(true);

  const double ratio = best_on / best_off;
  json.add("serve_obs_on", best_on);
  json.add("serve_obs_off", best_off);
  json.add_value("serve_obs_overhead_ratio", ratio);

  const std::string out = opt.outdir + "/serve_overhead.json";
  if (!json.write(out))
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());

  if (ratio > 1.5) {
    std::fprintf(stderr,
                 "FAIL: instrumented hot path is %.2fx the disabled path "
                 "(ceiling 1.5x)\n",
                 ratio);
    return 1;
  }
  std::printf("OK: overhead ratio %.3f (ceiling 1.5)\n", ratio);
  return 0;
}

/// Anchor + cross-field target so region decodes run the CFNN (conv_rows)
/// in addition to miniflate/huffman — the three kernels the folded-stack
/// check greps for. Wider model than the unit tests so inference is a
/// visible slice of each tile decode.
std::shared_ptr<const ArchiveReader> build_cross_field_archive(
    std::vector<std::uint8_t>& storage) {
  const Shape shape{64, 64};
  Rng rng(31);
  Field target("TGT", F32Array(shape));
  Field a0("A0", F32Array(shape));
  for (std::size_t i = 0; i < target.size(); ++i) {
    const double x = static_cast<double>(i % 64) / 6.0;
    const double y = static_cast<double>(i / 64) / 9.0;
    const double base = std::sin(x) * std::cos(y) * 15.0;
    a0.array()[i] = static_cast<float>(base + rng.normal(0, 0.05));
    target.array()[i] = static_cast<float>(0.8 * base + rng.normal(0, 0.05));
  }
  CfnnTrainOptions train;
  train.epochs = 4;
  train.patches_per_epoch = 16;
  train.patch = 16;
  train.batch = 8;
  const CfnnModel model =
      train_cross_field_model(target, {&a0}, CfnnConfig{16, 8, 3}, train);

  VectorSink sink;
  ArchiveWriter writer(sink);
  ArchiveFieldOptions opts;
  opts.eb = ErrorBound::relative(1e-3);
  opts.tile = Shape{16, 16};
  opts.keep_reconstruction = true;
  writer.add_field(a0, opts);
  writer.add_cross_field(target, {"A0"}, model, opts);
  writer.finish();
  storage = sink.take();
  return std::make_shared<const ArchiveReader>(
      ArchiveReader::open_memory(storage));
}

/// Profiler smoke: (a) folded stacks from a compress + region-decode
/// workload must name conv_rows, huffman and miniflate frames; (b) the warm
/// service path armed at 97 Hz must stay within a noise ceiling of the
/// disarmed path (the paper number is <=1.05x; the gate uses 1.25x so CI
/// scheduler jitter cannot flake it — the measured ratio lands in the
/// artifact either way).
int run_profile_check(const BenchOptions& opt) {
  print_header("profiler smoke  [folded frames + armed-vs-disarmed A/B]");
  BenchJson json;

  std::vector<std::uint8_t> storage;
  const auto reader = build_cross_field_archive(storage);

  // Tiny single-shard cache: every region request re-decodes every tile,
  // keeping the decode kernels hot for the whole sampling window.
  server::ServiceConfig tiny;
  tiny.cache_bytes = 1u << 12;
  tiny.cache_shards = 1;
  server::ArchiveService cold_service(reader, tiny);
  server::HttpRequest req;
  req.method = "GET";
  req.path = "/field/TGT/region";
  req.query = "lo=0,0&hi=64,64";
  if (cold_service.handle(req).status != 200) {
    std::fprintf(stderr, "FAIL: region request rejected\n");
    return 1;
  }

  // Compress-side slice of the workload: archive writes rebuild Huffman
  // tables and run miniflate_compress, the out-of-line "uffman"/"iniflate"
  // frames (the decode-side Huffman inner loop is inlined into callers).
  auto ds = make_dataset(DatasetKind::kCesm, Shape{96, 96}, 11);
  auto compress_once = [&ds] {
    VectorSink sink;
    ArchiveWriter writer(sink);
    ArchiveFieldOptions o;
    o.eb = ErrorBound::relative(1e-3);
    o.tile = Shape{32, 32};
    writer.add_field(ds.fields[0], o);
    writer.finish();
  };

  // (a) Frame check. Sampling is statistical, so retry a few times before
  // declaring the stacks broken; each attempt is an independent window.
  obs::ProfileReport report;
  bool frames_ok = false;
  constexpr int kAttempts = 4;
  for (int attempt = 0; attempt < kAttempts && !frames_ok; ++attempt) {
    obs::ProfilerOptions popt;
    popt.hz = 997.0;  // smoke window is short; dense sampling keeps it so
    if (!obs::profiler_arm(popt)) {
      std::fprintf(stderr, "FAIL: profiler_arm refused (already armed?)\n");
      return 1;
    }
    const double window_ms = opt.smoke ? 400.0 : 1500.0;
    const double t0 = now_ms();
    do {
      compress_once();
      if (cold_service.handle(req).status != 200) std::abort();
    } while (now_ms() - t0 < window_ms);
    report = obs::profiler_disarm();
    frames_ok = report.folded.find("conv_rows") != std::string::npos &&
                report.folded.find("uffman") != std::string::npos &&
                report.folded.find("iniflate") != std::string::npos;
    std::printf("attempt %d: %llu samples (%llu dropped), frames %s\n",
                attempt + 1, static_cast<unsigned long long>(report.samples),
                static_cast<unsigned long long>(report.dropped),
                frames_ok ? "ok" : "missing");
  }
  const std::string folded_out = opt.outdir + "/profile_check.folded";
  if (std::FILE* f = std::fopen(folded_out.c_str(), "w")) {
    std::fwrite(report.folded.data(), 1, report.folded.size(), f);
    std::fclose(f);
  }
  json.add_value("prof_check_samples", static_cast<double>(report.samples));
  json.add_value("prof_check_dropped", static_cast<double>(report.dropped));

  // (b) Armed-vs-disarmed A/B on the warm path (default cache, every tile
  // a hit) — the configuration a production operator would profile.
  server::ArchiveService warm_service(reader);
  (void)warm_service.handle(req);
  constexpr int kReps = 5;
  constexpr int kIters = 40;
  auto sample_ms = [&] {
    const double t0 = now_ms();
    for (int i = 0; i < kIters; ++i)
      if (warm_service.handle(req).status != 200) std::abort();
    return (now_ms() - t0) / kIters;
  };
  sample_ms();  // warmup outside the A/B
  double best_armed = 1e300, best_off = 1e300;
  for (int rep = 0; rep < kReps; ++rep) {
    obs::ProfilerOptions popt;  // the documented operating point
    popt.hz = 97.0;
    if (!obs::profiler_arm(popt)) std::abort();
    best_armed = std::min(best_armed, sample_ms());
    (void)obs::profiler_disarm();
    best_off = std::min(best_off, sample_ms());
  }
  const double ab_ratio = best_armed / best_off;
  json.add("serve_prof_armed_97hz", best_armed);
  json.add("serve_prof_disarmed", best_off);
  json.add_value("serve_prof_overhead_ratio", ab_ratio);

  const std::string out = opt.outdir + "/profile_check.json";
  if (!json.write(out))
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());

  if (!frames_ok) {
    std::fprintf(stderr,
                 "FAIL: folded stacks missing expected kernel frames after "
                 "%d attempts (see %s)\n",
                 kAttempts, folded_out.c_str());
    return 1;
  }
  if (ab_ratio > 1.25) {
    std::fprintf(stderr,
                 "FAIL: armed path is %.3fx the disarmed path "
                 "(ceiling 1.25x)\n",
                 ab_ratio);
    return 1;
  }
  std::printf("OK: kernel frames present, armed/disarmed ratio %.3f\n",
              ab_ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opt = parse_args(argc, argv);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--overhead-check") == 0)
      return run_overhead_check(opt);
    if (std::strcmp(argv[i], "--profile-check") == 0)
      return run_profile_check(opt);
  }
  BenchJson json;

  std::vector<std::uint8_t> storage;
  const auto reader = build_archive(storage);
  const ArchiveFieldInfo& f64 = *reader->find("flut64");
  const double tile_bytes = 64.0 * 64.0 * sizeof(float);

  print_header("per-tile decode  [512x512 field, 64^2 tiles]");
  {
    // The scratch-arena target: decode every tile through the public
    // per-tile entry point (what the cache calls on every miss).
    const std::size_t n_tiles = f64.tiles.size();
    const double per_pass = time_ms([&] {
      for (std::size_t t = 0; t < n_tiles; ++t) reader->read_tile(f64, t);
    });
    json.add("archive_tile_decode_64", per_pass / n_tiles, tile_bytes);
  }

  print_header("live ingest  [epoch append + recovery open]");
  {
    // The write half of the serving story: seal one single-field epoch
    // onto a file-backed archive (bodies -> fsync -> footer+trailer ->
    // fsync), and reopen an archive whose tail is a torn epoch — the
    // recovery scan a crashed ingester pays once at startup.
    const std::string path = opt.outdir + "/serve_ingest.xfa";
    std::remove(path.c_str());
    {
      FileSink sink(path);
      ArchiveWriter writer(sink);
      ArchiveFieldOptions opts;
      opts.eb = ErrorBound::relative(1e-3);
      opts.tile = Shape{64, 64};
      Field base = make_dataset(DatasetKind::kCesm, Shape{512, 512}, 7)
                       .fields[0];
      base.set_name("base");
      writer.add_field(base, opts);
      writer.finish();
    }
    const ArchiveReader file_reader = ArchiveReader::open_file(path);
    const std::size_t sealed = file_reader.logical_size();
    Field epoch_field =
        make_dataset(DatasetKind::kCesm, Shape{256, 256}, 11).fields[0];
    epoch_field.set_name("live");
    const double field_bytes =
        static_cast<double>(epoch_field.size() * sizeof(float));

    const double append_ms = time_ms([&] {
      // Each iteration re-seals the same epoch: the sink's resume
      // truncates the previous run's epoch back off the file first.
      AppendFileSink sink(path, sealed);
      ArchiveAppender appender(sink, file_reader);
      ArchiveFieldOptions opts;
      opts.eb = ErrorBound::relative(1e-3);
      opts.tile = Shape{64, 64};
      appender.append_field(epoch_field, opts);
      appender.finish_epoch();
    });
    json.add("ingest_append_epoch_256", append_ms, field_bytes);

    // Torn tail: 256 KiB of garbage past the last sealed trailer; the
    // open must scan back and land on the sealed epoch.
    {
      AppendFileSink sink(path, sealed);
      const std::vector<std::uint8_t> garbage(256u << 10, 0xAA);
      sink.append(garbage);
      sink.sync();
    }
    const double recover_ms = time_ms([&] {
      const ArchiveReader r = ArchiveReader::open_file(path);
      if (r.recovered_bytes_discarded() == 0) std::abort();
    });
    json.add("ingest_recovery_open_torn256k", recover_ms);
    { AppendFileSink truncate_tail(path, sealed); }  // drop the torn tail
    const double open_ms = time_ms([&] {
      const ArchiveReader r = ArchiveReader::open_file(path);
      if (r.recovered_bytes_discarded() != 0) std::abort();
    });
    json.add("ingest_clean_open", open_ms);
    std::remove(path.c_str());
  }

  print_header("service layer  [64x64-aligned region, 4 tiles]");
  const std::string region_target =
      "/field/flut64/region?lo=64,64&hi=192,192";
  const server::HttpRequest req = region_request();
  const double region_bytes = 128.0 * 128.0 * sizeof(float);
  {
    // Cold: a fresh cache every call — every tile decodes.
    const double cold = time_ms([&] {
      server::ArchiveService service(reader);
      const auto resp = service.handle(req);
      if (resp.status != 200) std::abort();
    });
    json.add("serve_region_cold", cold, region_bytes);

    // Warm: same service, tiles cached — the steady state of hot regions.
    server::ArchiveService service(reader);
    (void)service.handle(req);
    const double warm = time_ms([&] {
      const auto resp = service.handle(req);
      if (resp.status != 200) std::abort();
    });
    json.add("serve_region_warm", warm, region_bytes);
    json.add_value("serve_warm_speedup", cold / warm);
  }

  print_header("HTTP loopback  [keep-alive client, warm cache]");
  {
    server::ArchiveService service(reader);
    server::HttpServer http(
        server::HttpConfig{},
        [&service](const server::HttpRequest& r) { return service.handle(r); });
    http.start();
    // Retries configured the way an operational client would run: a
    // loopback bench never needs them, but they must cost nothing on the
    // happy path — the timings below keep that honest.
    server::HttpClientConfig client_config;
    client_config.max_retries = 3;
    client_config.backoff_base_ms = 5;
    client_config.backoff_max_ms = 100;
    server::HttpClient client("127.0.0.1", http.port(), client_config);

    (void)client.get(region_target);  // prime cache + connection
    const double per_request = time_ms([&] {
      const auto resp = client.get(region_target);
      if (resp.status != 200) std::abort();
    });
    json.add("serve_http_region", per_request, region_bytes);
    json.add_value("serve_http_qps", 1000.0 / per_request);

    const double healthz = time_ms([&] {
      if (client.get("/healthz").status != 200) std::abort();
    });
    json.add("serve_http_healthz", healthz);

    // Sweep distinct straddling regions so tiles keep entering the cache.
    const double sweep = time_ms([&] {
      for (std::size_t i = 0; i < 8; ++i) {
        const std::size_t lo = 32 + 8 * i;
        const auto resp = client.get(
            "/field/flut128/region?lo=" + std::to_string(lo) + ",0&hi=" +
            std::to_string(lo + 96) + ",512");
        if (resp.status != 200) std::abort();
      }
    });
    json.add("serve_http_straddle_x8", sweep, 8 * 96.0 * 512 * 4);
    http.stop();
  }

  print_header("HTTP loopback latency  [p50/p99/p999 vs connections]");
  {
    // Tail latency is where the event loop's batching, the pool handoff and
    // the cache's single-flight waits actually show; means hide all of it.
    // Each connection count gets its own histogram (fine log grid, ~1.25x
    // per bucket ≈ 12% quantile resolution) shared across the client
    // threads — the striped observe path is exactly what production scrapes
    // rely on, so the bench doubles as a concurrency soak of it.
    server::ArchiveService service(reader);
    server::HttpServer http(
        server::HttpConfig{},
        [&service](const server::HttpRequest& r) { return service.handle(r); });
    http.start();
    {
      server::HttpClient warm("127.0.0.1", http.port());
      (void)warm.get(region_target);  // decode tiles once, outside timing
    }
    const double window_ms = opt.smoke ? 25.0 : std::max(kBenchMinMs, 250.0);
    for (const int conns : {1, 2, 4, 8}) {
      obs::Histogram lat(obs::log_buckets(10.0, 2e6, 1.25));
      std::atomic<std::uint64_t> total{0};
      const double t0 = now_ms();
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(conns));
      for (int c = 0; c < conns; ++c) {
        threads.emplace_back([&] {
          server::HttpClient client("127.0.0.1", http.port());
          std::uint64_t n = 0;
          do {
            const auto start = std::chrono::steady_clock::now();
            const auto resp = client.get(region_target);
            const auto stop = std::chrono::steady_clock::now();
            if (resp.status != 200) std::abort();
            lat.observe(
                std::chrono::duration<double, std::micro>(stop - start)
                    .count());
            ++n;
          } while (now_ms() - t0 < window_ms || n < 8);
          total.fetch_add(n, std::memory_order_relaxed);
        });
      }
      for (auto& t : threads) t.join();
      const double elapsed_s = (now_ms() - t0) / 1000.0;
      const auto snap = lat.snapshot();
      const std::string tag = "_c" + std::to_string(conns);
      json.add_value("serve_p50_us" + tag,
                     obs::histogram_quantile(snap, 0.50));
      json.add_value("serve_p99_us" + tag,
                     obs::histogram_quantile(snap, 0.99));
      json.add_value("serve_p999_us" + tag,
                     obs::histogram_quantile(snap, 0.999));
      json.add_value("serve_qps" + tag,
                     static_cast<double>(total.load()) / elapsed_s);
    }
    http.stop();
  }

  const std::string out = opt.outdir + "/serve.json";
  if (json.write(out))
    std::printf("\nwrote %s\n", out.c_str());
  else
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  return 0;
}
