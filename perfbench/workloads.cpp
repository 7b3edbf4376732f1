#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "archive/archive_appender.hpp"
#include "crossfield/multifield.hpp"
#include "serve.hpp"
#include "snapshot.hpp"

namespace pb {

using namespace xfc;

namespace {

// Frozen workload parameters (see perfbench/README.md).
constexpr int kSetups = 9;              // ingest set-ups per run, median kept
constexpr int kTrainReps = 3;           // ingest trainings per run, median kept
constexpr int kServeWrites = 5;         // serve set-up archive writes, median kept
constexpr int kRestores = 3;            // ingest read_all restores per pass
// serve-hot open-loop offered rate: over half a 30 s run it gives 300
// samples, so the tail (ten samples beyond it) is p96.7.
constexpr double kHotRps = 20.0;
constexpr double kColdRps = 6.0;        // serve-cold-put open-loop offered rate
constexpr double kPutInterval = 1.0;    // seconds between live PUTs
constexpr int kSetupPuts = 21;          // live PUTs closing the serve set-up
constexpr std::size_t kHotCacheBytes = std::size_t{64} << 20;
// serve-hot PUT interval, open loop only: its samples spread over that
// phase while the server is otherwise lightly loaded.
constexpr double kHotPutInterval = 0.5;
constexpr int kRegionReadsPerField = 3; // ingest region reads per field, per cycle
// Times each ingest pass reads its cycle. With two rounds the ten reads
// beyond region_tail_ms are the costliest read's six and four of the next
// cost class's twelve, so the tail sits inside a class of reads, not in
// the gap between two (see perfbench/README.md).
constexpr int kReadRounds = 2;
constexpr double kPassSeconds = 8.0;    // budgeted length of one ingest pass
// Seed of the request order: the traffic pattern is part of the workload,
// the run's seed picks data and region offsets.
constexpr std::uint64_t kPatternSeed = 0x5EEDC0DEull;

double mb_per_s(double bytes, double seconds) { return bytes / seconds / 1e6; }

std::string archive_path(const Options& opt, const std::string& tag) {
  return opt.outdir + "/" + opt.workload + "-" + tag + ".xfa";
}

std::string eb_tag(double eb) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.0e", eb);
  return buf;
}

std::vector<std::string> snapshot_names(const Snapshot& snap) {
  std::vector<std::string> names;
  for (const Field& f : snap.ds.fields) names.push_back(f.name());
  return names;
}

/// Expected answers of the static regions: crops of the full decode.
void fill_expected(std::vector<Region>& pool, const std::vector<Field>& decoded) {
  for (Region& r : pool) {
    if (r.live) continue;
    for (const Field& f : decoded)
      if (f.name() == r.field) r.expected = crop_bytes(f.array(), r.lo, r.hi);
  }
}

void check_lag(const TrafficResult& tr, const char* what, RunStatus& status) {
  const double p99 = quantile(tr.lag_ms, 0.99);
  if (p99 > kMaxLagP99Ms) {
    std::fprintf(stderr,
                 "INVALID RUN: %s load generator fell behind its schedule "
                 "(p99 send lag %.2f ms > %.0f ms)\n",
                 what, p99, kMaxLagP99Ms);
    status = RunStatus::kInvalid;
  }
}

/// region_p50_ms and region_tail_ms over every sample of the run; the
/// tail's percentile and the shape of the distribution go to stderr.
void set_region_latency(const std::vector<double>& ms, Report& rep) {
  const Tail tail = tail_of(ms);
  std::fprintf(stderr,
               "region latency: %zu samples, tail = p%.2f; p50 %.3f p90 %.3f "
               "p99 %.3f p99.9 %.3f max %.3f ms\n",
               ms.size(), tail.percentile, quantile(ms, 0.5), quantile(ms, 0.9),
               quantile(ms, 0.99), quantile(ms, 0.999), quantile(ms, 1.0));
  rep.set("region_p50_ms", median(ms), "ms");
  rep.set("region_tail_ms", tail.value, "ms");
}

/// Trains the snapshot's CFNNs `reps` times. Training is deterministic, so
/// each repetition yields the same models.
struct Training {
  double median_s = 0.0;
  std::uint64_t steps = 0;  // optimizer steps of one training
};
Training train_repeated(Snapshot& snap, int reps) {
  Training t;
  std::vector<double> secs;
  for (int k = 0; k < reps; ++k) {
    const std::uint64_t steps0 = train_steps_so_far();
    const double t0 = now_s();
    train_models(snap);
    secs.push_back(now_s() - t0);
    t.steps = train_steps_so_far() - steps0;
  }
  t.median_s = median(secs);
  return t;
}

/// Server-layer probe for the ingest workload's traced run: the cold serve
/// path in miniature — a cache of a quarter of the decoded working set,
/// GETs over every field including a live one, PUTs replacing it — on one
/// connection, against the archive the ingest passes wrote.
void serve_probe(const Options& opt, const Snapshot& snap,
                 const std::string& path, const std::vector<Field>& reference,
                 Report& rep) {
  Server server(path, static_cast<std::size_t>(snap.raw_bytes() / 4));
  std::vector<std::string> names = snapshot_names(snap);
  std::vector<bool> live_flags(names.size(), false);
  names.push_back("probe");
  live_flags.push_back(true);
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 5);
  std::vector<Region> pool =
      make_region_pool(names, live_flags, kHeight, kWidth, rng);
  fill_expected(pool, reference);
  Rng pattern(kPatternSeed);
  const std::vector<Request> cycle = make_cycle(
      pool, names, std::vector<int>(names.size(), 2), 0, pattern);
  LiveField live("probe", opt.seed, 8);
  {
    server::HttpClient client("127.0.0.1", server.port());
    live.put_next(client, server, rep);
  }
  TrafficSpec spec;
  spec.open_threads = 1;
  spec.threads = 1;
  spec.open_s = 2.0;
  spec.open_rps = 5.0;
  spec.closed_s = 1.0;
  spec.put_interval_s = 1.0;
  const server::HttpServerStats stats0 = server.http().stats();
  const server::TileCacheStats cache0 = server.service().cache().stats();
  const TrafficResult tr = run_traffic(server, spec, pool, cycle, &live, rep);
  set_server_metrics(server, tr, stats0, cache0, rep);
}

}  // namespace

// -- ingest ---------------------------------------------------------------------

RunStatus run_ingest(const Options& opt, Report& rep) {
  Tracer& tracer = Tracer::get();
  tracer.set_on(opt.trace);

  std::vector<double> setup_s;
  Snapshot snap;
  for (int k = 0; k < kSetups; ++k) {
    Span span("setup");
    snap = make_snapshot(opt.seed);
    setup_s.push_back(span.stop());
  }
  const double raw = snap.raw_bytes();
  const std::vector<double>& grid = table2_bounds();
  const std::string xf_path = archive_path(opt, eb_tag(kServeEb));
  const std::string base_path = archive_path(opt, "baseline");

  // Region reads: a fixed-composition cycle over every field's pool.
  const std::vector<std::string> names = snapshot_names(snap);
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<Region> pool = make_region_pool(
      names, std::vector<bool>(names.size(), false), kHeight, kWidth, rng);
  Rng pattern(kPatternSeed);
  const std::vector<Request> reads = make_cycle(
      pool, names, std::vector<int>(names.size(), kRegionReadsPerField), 0,
      pattern);
  // The pass count follows from --seconds alone, so every run of one
  // setting aggregates the same number of passes.
  const int passes = std::max(2, static_cast<int>(opt.seconds / kPassSeconds));
  const std::size_t appends_per_pass = table2_bounds().size() + 3;
  const std::vector<Field> live = live_versions(
      "live", opt.seed, 1 + appends_per_pass * static_cast<std::size_t>(passes));

  const DecodeSnap dec0 = decode_snap();
  const Training training = train_repeated(snap, kTrainReps);
  // The compressor trains its own copies of the same models, untimed.
  MultiFieldCompressor mfc = make_compressor(snap);
  prime_compressor(mfc);

  // The live field's archive, apart from the snapshot's so its epochs
  // change neither ratio nor the reads. Each pass replaces the field in new
  // epochs after every write and read step — the storage work of a PUT,
  // without the server, sampled across the whole run instead of in bursts.
  const std::string live_path = archive_path(opt, "live");
  {
    FileSink file(live_path);
    ArchiveWriter writer(file);
    ArchiveFieldOptions o;
    o.eb = ErrorBound::relative(kLiveEb);
    writer.add_field(live[0], o);
    writer.finish();
  }
  auto live_reader =
      std::make_unique<ArchiveReader>(ArchiveReader::open_file(live_path));
  std::size_t live_next = 1;
  std::vector<double> put_ms;
  IoCounters io;
  const auto append_live = [&] {
    const Field& v = live[live_next++];
    rep.attempt();
    Span span("archive.append_epoch");
    try {
      AppendFileSink file(live_path, live_reader->logical_size());
      CountingSink sink(file, io);
      ArchiveAppender appender(sink, *live_reader);
      ArchiveFieldOptions o;
      o.eb = ErrorBound::relative(kLiveEb);
      appender.replace_field(v, o);
      appender.finish_epoch();
      live_reader = std::make_unique<ArchiveReader>(ArchiveReader::open_file(live_path));
    } catch (const std::exception& e) {
      rep.fail(std::string("live epoch append: ") + e.what());
      return;
    }
    put_ms.push_back(span.stop() * 1e3);
    const double abs_eb = ErrorBound::relative(kLiveEb).absolute_for(v.value_range());
    if (!(max_error(v, live_reader->read_field(v.name())) <= bound_tolerance(abs_eb, v)))
      rep.fail("appended live epoch exceeds its bound");
  };

  std::vector<double> ingest_mbps, read_mbps, region_ms, region_rps;
  std::vector<double> traced_pass_s, plain_pass_s, sync_ms;
  Quality q;
  std::vector<Field> reference;
  for (int pass = 0; pass < passes; ++pass) {
    // A traced run alternates untraced and traced passes; their time ratio
    // is the tracing overhead.
    const bool traced = opt.trace && pass % 2 == 1;
    tracer.set_on(traced);
    const double t_pass = now_s();
    io = IoCounters{};

    double write_s = 0.0;
    for (const double eb : grid) {
      const WriteTimes w =
          write_archive_file(archive_path(opt, eb_tag(eb)), mfc, eb, io);
      write_s += w.write_s + w.finish_s;
      rep.attempt(snap.ds.fields.size());
      append_live();
    }
    ingest_mbps.push_back(mb_per_s(raw * static_cast<double>(grid.size()), write_s));
    write_baseline_file(base_path, snap, kServeEb, io);
    append_live();

    ReadBack rb;
    for (int k = 0; k < kRestores; ++k) {
      rb = read_archive_file(xf_path);
      read_mbps.push_back(mb_per_s(raw, rb.open_s + rb.read_s));
    }
    append_live();
    check_bounds(snap, rb.fields, kServeEb, "ingest read_all", rep);
    q = quality(snap, xf_path, base_path, rb.fields);
    fill_expected(pool, rb.fields);
    reference = std::move(rb.fields);

    // Region reads straight off the archive (no server, no cache), one at a
    // time: each latency is that read's own decode work.
    const ArchiveReader reader = ArchiveReader::open_file(xf_path);
    const double t_reads = now_s();
    for (int round = 0; round < kReadRounds; ++round) {
      for (const Request& req : reads) {
        const Region& r = pool[req.region];
        rep.attempt();
        Span span("archive.read_region");
        Field out;
        try {
          out = reader.read_region(r.field, r.lo, r.hi);
        } catch (const std::exception& e) {
          rep.fail("read_region " + r.target + ": " + e.what());
          continue;
        }
        region_ms.push_back(span.stop() * 1e3);
        if (out.size() * sizeof(float) != r.expected.size() ||
            std::memcmp(out.data(), r.expected.data(), r.expected.size()) != 0)
          rep.fail("read_region " + r.target + ": differs from read_all");
      }
    }
    region_rps.push_back(static_cast<double>(kReadRounds * reads.size()) /
                         (now_s() - t_reads));
    append_live();
    sync_ms.push_back(io.sync_s * 1e3);
    (traced ? traced_pass_s : plain_pass_s).push_back(now_s() - t_pass);
  }
  tracer.set_on(false);

  // Oracle over the rest of the grid (the 1e-3 archive was checked above).
  for (const double eb : grid) {
    if (eb == kServeEb) continue;
    const ReadBack rb = read_archive_file(archive_path(opt, eb_tag(eb)));
    check_bounds(snap, rb.fields, eb, "ingest bound " + eb_tag(eb), rep);
  }

  rep.set("setup_s", median(setup_s), "s");
  rep.set("train_s", training.median_s, "s");
  rep.set("ingest_mbps", median(ingest_mbps), "MB/s");
  rep.set("read_mbps", median(read_mbps), "MB/s");
  rep.set("ratio", q.ratio, "x");
  rep.set("xf_gain_pct", q.xf_gain_pct, "%");
  rep.set("psnr_db", q.psnr_db, "dB");
  set_region_latency(region_ms, rep);
  rep.set("region_rps", median(region_rps), "1/s");
  rep.set("put_p50_ms", median(put_ms), "ms");

  if (opt.trace) {
    tracer.set_on(true);
    rep.set("cfnn.train_steps", static_cast<double>(training.steps), "count");
    rep.set("archive.index_bytes", static_cast<double>(q.index_bytes), "bytes");
    rep.set("io.bytes_written", static_cast<double>(io.bytes_written), "bytes");
    rep.set("io.sync_calls", static_cast<double>(io.sync_calls), "count");
    rep.set("io.sync_ms", median(sync_ms), "ms");
    rep.set("trace.overhead_pct",
            100.0 * (median(traced_pass_s) / median(plain_pass_s) - 1.0), "%");
    run_codec_probes(snap, xf_path, rep);
    set_decode_metrics(dec0, decode_snap(), rep);
    serve_probe(opt, snap, xf_path, reference, rep);
  }
  return RunStatus::kOk;
}

// -- serve ------------------------------------------------------------------------

namespace {

/// Hot-field weights: Zipf over a shuffled field order, as a fixed count
/// per field so every cycle has the same composition.
std::vector<int> zipf_weights(std::size_t n, Rng& rng) {
  std::vector<std::size_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(rank[i - 1], rank[rng.uniform_index(i)]);
  std::vector<int> w(n);
  for (std::size_t i = 0; i < n; ++i)
    w[i] = static_cast<int>(std::lround(24.0 / static_cast<double>(rank[i] + 1)));
  return w;
}

/// Warms every tile through the service and records, per pool region, the
/// ETag revalidations send; each answer must be the set-up decode's crop.
void warm(server::ArchiveService& service, const std::vector<Field>& decoded,
          std::vector<Region>& pool, Report& rep) {
  for (const Field& f : decoded) {
    server::HttpRequest req;
    req.method = "GET";
    req.path = "/field/" + f.name() + "/region";
    req.query = "lo=0,0&hi=" + std::to_string(kHeight) + "," + std::to_string(kWidth);
    rep.attempt();
    if (service.handle(req).status != 200) rep.fail("warm-up of " + f.name());
  }
  for (Region& r : pool) {
    server::HttpRequest req;
    req.method = "GET";
    const std::size_t q = r.target.find('?');
    req.path = r.target.substr(0, q);
    req.query = r.target.substr(q + 1);
    rep.attempt();
    const server::HttpResponse resp = service.handle(req);
    for (const auto& [k, v] : resp.headers)
      if (k == "ETag") r.etag = v;
    if (resp.status != 200 || resp.body != r.expected || r.etag.empty())
      rep.fail("set-up read of " + r.target + " differs from the full decode");
  }
}

}  // namespace

RunStatus run_serve(const Options& opt, bool hot, Report& rep) {
  Tracer& tracer = Tracer::get();
  tracer.set_on(opt.trace);
  RunStatus status = RunStatus::kOk;
  const DecodeSnap dec0 = decode_snap();

  // Set-up: synthesise, train, write the 1e-3 archive durably and decode
  // it all (the oracle's reference) - the write and decode repeated for a
  // steady median, the last archive written is the one served - write the
  // baseline targets, start the server, create the live field and replace
  // it over PUT, and - for the hot workload - warm every tile. Training is
  // not repeated: its run-to-run spread comes from the host, not from
  // within a run.
  Span setup("setup");
  Snapshot snap = make_snapshot(opt.seed);
  const double raw = snap.raw_bytes();
  const Training training = train_repeated(snap, 1);
  MultiFieldCompressor mfc = make_compressor(snap);
  prime_compressor(mfc);

  const std::string xf_path = archive_path(opt, eb_tag(kServeEb));
  const std::string base_path = archive_path(opt, "baseline");
  IoCounters io;
  std::vector<double> ingest_mbps, read_mbps;
  ReadBack rb;
  for (int k = 0; k < kServeWrites; ++k) {
    io = IoCounters{};
    const WriteTimes w = write_archive_file(xf_path, mfc, kServeEb, io);
    ingest_mbps.push_back(mb_per_s(raw, w.write_s + w.finish_s));
    rb = read_archive_file(xf_path);
    read_mbps.push_back(mb_per_s(raw, rb.open_s + rb.read_s));
  }
  write_baseline_file(base_path, snap, kServeEb, io);
  check_bounds(snap, rb.fields, kServeEb, "serve archive", rep);
  const Quality q = quality(snap, xf_path, base_path, rb.fields);

  std::vector<std::string> names = snapshot_names(snap);
  std::vector<bool> live_flags(names.size(), false);
  if (!hot) {
    names.push_back("live");
    live_flags.push_back(true);
  }
  Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 7);
  std::vector<Region> pool = make_region_pool(names, live_flags, kHeight, kWidth, rng);
  fill_expected(pool, rb.fields);

  const double working_set =
      raw + static_cast<double>(kLiveEdge * kLiveEdge * sizeof(float));
  Server server(xf_path,
                hot ? kHotCacheBytes : static_cast<std::size_t>(working_set / 4));
  const double put_interval = hot ? kHotPutInterval : kPutInterval;
  const std::size_t window_puts =
      static_cast<std::size_t>(opt.seconds / put_interval) + 4;
  LiveField live("live", opt.seed, kSetupPuts + window_puts);
  {
    server::HttpClient client("127.0.0.1", server.port());
    for (int k = 0; k < kSetupPuts; ++k) live.put_next(client, server, rep);
  }
  if (hot) warm(server.service(), rb.fields, pool, rep);
  const double setup_s = setup.stop();

  Rng pattern(kPatternSeed);
  const std::vector<int> weights =
      hot ? zipf_weights(names.size(), pattern) : std::vector<int>(names.size(), 3);
  const std::vector<Request> cycle =
      make_cycle(pool, names, weights, hot ? 4 : 0, pattern);

  TrafficSpec spec;
  spec.open_s = opt.seconds / 2;
  spec.open_rps = hot ? kHotRps : kColdRps;
  spec.closed_s = opt.seconds / 2;
  spec.put_interval_s = put_interval;
  // The hot loop's GETs never read the live field, so its PUTs leave every
  // tile they read cached.
  spec.closed_puts = !hot;

  TrafficResult tr;
  if (!opt.trace) {
    tr = run_traffic(server, spec, pool, cycle, &live, rep);
    check_lag(tr, opt.workload.c_str(), status);
  } else {
    // Half the open loop untraced, then the other half and the closed loop
    // traced: the p50 ratio of the two open-loop halves is the overhead.
    TrafficSpec plain = spec;
    plain.open_s /= 2;
    plain.closed_s = 0.0;
    tracer.set_on(false);
    const TrafficResult tr_plain = run_traffic(server, plain, pool, cycle, &live, rep);
    check_lag(tr_plain, opt.workload.c_str(), status);
    TrafficSpec traced = spec;
    traced.open_s /= 2;
    tracer.set_on(true);
    const server::HttpServerStats stats0 = server.http().stats();
    const server::TileCacheStats cache0 = server.service().cache().stats();
    tr = run_traffic(server, traced, pool, cycle, &live, rep);
    check_lag(tr, opt.workload.c_str(), status);
    set_server_metrics(server, tr, stats0, cache0, rep);
    rep.set("trace.overhead_pct",
            100.0 * (median(tr.open_ms) / median(tr_plain.open_ms) - 1.0), "%");
    rep.set("cfnn.train_steps", static_cast<double>(training.steps), "count");
    rep.set("archive.index_bytes", static_cast<double>(q.index_bytes), "bytes");
    rep.set("io.bytes_written", static_cast<double>(io.bytes_written), "bytes");
    rep.set("io.sync_calls", static_cast<double>(io.sync_calls), "count");
    rep.set("io.sync_ms", io.sync_s * 1e3, "ms");
    run_codec_probes(snap, xf_path, rep);
    set_decode_metrics(dec0, decode_snap(), rep);
  }

  rep.set("setup_s", setup_s, "s");
  rep.set("train_s", training.median_s, "s");
  rep.set("ingest_mbps", median(ingest_mbps), "MB/s");
  rep.set("read_mbps", median(read_mbps), "MB/s");
  rep.set("ratio", q.ratio, "x");
  rep.set("xf_gain_pct", q.xf_gain_pct, "%");
  rep.set("psnr_db", q.psnr_db, "dB");
  set_region_latency(tr.open_ms, rep);
  rep.set("region_rps", tr.closed_rps, "1/s");
  rep.set("put_p50_ms", median(tr.put_ms), "ms");
  return status;
}

}  // namespace pb
