#include "serve.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "core/error.hpp"
#include "quant/error_bound.hpp"

namespace pb {

using namespace xfc;
using server::HttpClient;
using server::HttpClientResponse;

namespace {

Clock::time_point to_time_point(double s) {
  return Clock::time_point(std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s)));
}

std::string region_target(const std::string& field, const std::size_t lo[2],
                          const std::size_t hi[2]) {
  return "/field/" + field + "/region?lo=" + std::to_string(lo[0]) + "," +
         std::to_string(lo[1]) + "&hi=" + std::to_string(hi[0]) + "," +
         std::to_string(hi[1]) + "&fmt=f32";
}

/// Start of a span of length `len` that crosses the `pick`-th (modulo) tile
/// boundary below `extent`, at an offset drawn from `rng`; a uniform start
/// when no boundary can be crossed.
std::size_t straddling_start(std::size_t extent, std::size_t len,
                             std::size_t pick, Rng& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;  // [first, last]
  for (std::size_t b = kTile; b < extent; b += kTile) {
    const std::size_t first = b >= len ? b - len + 1 : 0;
    const std::size_t last = std::min(b - 1, extent - len);
    if (first <= last) ranges.emplace_back(first, last);
  }
  if (ranges.empty()) return rng.uniform_index(extent - len + 1);
  const auto& [first, last] = ranges[pick % ranges.size()];
  return first + rng.uniform_index(last - first + 1);
}

/// Tile-aligned start: the origin of the `pick`-th (modulo) tile whose
/// extent along this axis holds `len`.
std::size_t aligned_start(std::size_t extent, std::size_t len,
                          std::size_t pick) {
  std::vector<std::size_t> origins;
  for (std::size_t o = 0; o + len <= extent; o += kTile)
    if (std::min(kTile, extent - o) >= len) origins.push_back(o);
  return origins[pick % origins.size()];
}

}  // namespace

std::string crop_bytes(const F32Array& f, const std::size_t lo[2],
                       const std::size_t hi[2]) {
  const std::size_t w = f.shape()[1];
  const std::size_t row = hi[1] - lo[1];
  std::string out((hi[0] - lo[0]) * row * sizeof(float), '\0');
  char* dst = out.data();
  for (std::size_t i = lo[0]; i < hi[0]; ++i) {
    std::memcpy(dst, f.data() + i * w + lo[1], row * sizeof(float));
    dst += row * sizeof(float);
  }
  return out;
}

std::vector<Region> make_region_pool(const std::vector<std::string>& fields,
                                     const std::vector<bool>& live,
                                     std::size_t height, std::size_t width,
                                     Rng& rng) {
  std::vector<Region> pool;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    const std::size_t h = live[f] ? kLiveEdge : height;
    const std::size_t w = live[f] ? kLiveEdge : width;
    std::size_t pick = f;
    for (const std::size_t edge : {64, 128, 192, 256}) {
      for (const bool straddle : {false, true}) {
        Region r;
        r.field = fields[f];
        r.live = live[f];
        ++pick;
        r.lo[0] = straddle ? straddling_start(h, edge, pick, rng)
                           : aligned_start(h, edge, pick);
        r.lo[1] = straddle ? straddling_start(w, edge, pick / 2, rng)
                           : aligned_start(w, edge, pick / 2);
        r.hi[0] = r.lo[0] + edge;
        r.hi[1] = r.lo[1] + edge;
        r.target = region_target(r.field, r.lo, r.hi);
        pool.push_back(std::move(r));
      }
    }
  }
  return pool;
}

std::vector<Request> make_cycle(const std::vector<Region>& pool,
                                const std::vector<std::string>& fields,
                                const std::vector<int>& weight,
                                int revalidate_every, Rng& rng) {
  std::vector<Request> cycle;
  for (std::size_t f = 0; f < fields.size(); ++f) {
    std::vector<std::uint32_t> mine;
    for (std::size_t i = 0; i < pool.size(); ++i)
      if (pool[i].field == fields[f]) mine.push_back(static_cast<std::uint32_t>(i));
    for (int k = 0; k < weight[f]; ++k)
      cycle.push_back(Request{mine[rng.uniform_index(mine.size())], false});
  }
  for (std::size_t i = cycle.size(); i > 1; --i)
    std::swap(cycle[i - 1], cycle[rng.uniform_index(i)]);
  if (revalidate_every > 0)
    for (std::size_t i = 0; i < cycle.size(); i += revalidate_every)
      cycle[i].revalidate = !pool[cycle[i].region].live;
  return cycle;
}

// -- LiveField ---------------------------------------------------------------------

std::vector<Field> live_versions(const std::string& name, std::uint64_t seed,
                                 std::size_t versions) {
  // Smooth, seeded and different in every version: a phase-shifted wave
  // pattern plus small noise, the shape SZ-style coders are built for.
  Rng rng(seed ^ 0x11FEull);
  std::vector<Field> out;
  for (std::size_t v = 0; v < versions; ++v) {
    Field f(name, Shape{kLiveEdge, kLiveEdge});
    const double phase = rng.uniform(0.0, 6.283);
    const double amp = rng.uniform(50.0, 150.0);
    for (std::size_t i = 0; i < kLiveEdge; ++i)
      for (std::size_t j = 0; j < kLiveEdge; ++j)
        f.array()(i, j) = static_cast<float>(
            amp * std::sin(0.031 * static_cast<double>(i) + phase) *
                std::cos(0.017 * static_cast<double>(j) - phase) +
            rng.normal(0.0, 0.2));
    out.push_back(std::move(f));
  }
  return out;
}

LiveField::LiveField(std::string name, std::uint64_t seed,
                     std::size_t versions)
    : name_(std::move(name)), data_(live_versions(name_, seed, versions)) {}

std::size_t LiveField::versions_sent() const {
  const std::lock_guard<std::mutex> lock(m_);
  return acked_.size();
}

std::vector<double> LiveField::put_handler_us() const {
  const std::lock_guard<std::mutex> lock(m_);
  return put_handler_us_;
}

double LiveField::put_next(HttpClient& client, Server& server,
                           Report& rep) {
  const std::size_t k = versions_sent();
  rep.attempt();
  if (k >= data_.size()) {
    rep.fail("live field " + name_ + ": PUT schedule outran its bodies");
    return -1.0;
  }
  const Field& f = data_[k];
  const std::string body(reinterpret_cast<const char*>(f.data()),
                         f.size() * sizeof(float));
  const std::string edge = std::to_string(kLiveEdge);
  const std::uint64_t id = server.next_id();
  const double send = now_s();
  HttpClientResponse resp;
  try {
    resp = client.put("/field/" + name_ + "?shape=" + edge + "," + edge +
                          "&eb=0.001&mode=rel",
                      body, "application/octet-stream",
                      {{"X-Bench-Id", std::to_string(id)}});
  } catch (const XfcError& e) {
    rep.fail("PUT " + name_ + ": " + e.what());
    return -1.0;
  }
  const double recv = now_s();
  const int want = k == 0 ? 201 : 200;
  if (resp.status != want) {
    rep.fail("PUT " + name_ + " v" + std::to_string(k) + ": status " +
             std::to_string(resp.status) + ", want " + std::to_string(want));
    return -1.0;
  }
  const double handler_us = server.handler_us(id);

  // Read the whole field back; it must hold the bound.
  const std::size_t lo[2] = {0, 0}, hi[2] = {kLiveEdge, kLiveEdge};
  HttpClientResponse back;
  try {
    back = client.get(region_target(name_, lo, hi));
  } catch (const XfcError& e) {
    rep.fail("read-back of " + name_ + ": " + e.what());
    return -1.0;
  }
  Field decoded(name_, Shape{kLiveEdge, kLiveEdge});
  if (back.status != 200 || back.body.size() != f.size() * sizeof(float)) {
    rep.fail("read-back of " + name_ + ": status " +
             std::to_string(back.status));
    return -1.0;
  }
  std::memcpy(decoded.data(), back.body.data(), back.body.size());
  const double abs_eb = ErrorBound::relative(kLiveEb).absolute_for(f.value_range());
  if (!(max_error(f, decoded) <= bound_tolerance(abs_eb, f))) {
    rep.fail("read-back of " + name_ + " v" + std::to_string(k) +
             " exceeds its bound");
    return -1.0;
  }
  const std::lock_guard<std::mutex> lock(m_);
  acked_.push_back(Version{send, recv, std::move(decoded.array())});
  if (handler_us > 0.0) put_handler_us_.push_back(handler_us);
  return (recv - send) * 1e3;
}

bool LiveField::matches(const Region& r, double send, double recv,
                        const std::string& body) const {
  const std::lock_guard<std::mutex> lock(m_);
  for (std::size_t k = 0; k < acked_.size(); ++k) {
    const bool published = acked_[k].send <= recv;
    const bool superseded = k + 1 < acked_.size() && acked_[k + 1].recv < send;
    if (published && !superseded && crop_bytes(acked_[k].decoded, r.lo, r.hi) == body)
      return true;
  }
  return false;
}

// -- Server ------------------------------------------------------------------------

Server::Server(const std::string& archive_path, std::size_t cache_bytes) {
  server::ServiceConfig sc;
  sc.cache_bytes = cache_bytes;
  sc.archive_path = archive_path;
  service_ = std::make_unique<server::ArchiveService>(
      std::make_shared<const ArchiveReader>(ArchiveReader::open_file(archive_path)),
      sc);
  handler_us_ = std::make_unique<std::atomic<float>[]>(kMaxIds);
  server::HttpConfig hc;
  hc.max_request_bytes = std::size_t{1} << 20;  // a 256^2 PUT body is 256 KiB
  hc.slow_ms = -1;
  http_ = std::make_unique<server::HttpServer>(
      hc, [this](const server::HttpRequest& r) {
        Span span(r.method == "PUT" ? "service.put" : "service.handle");
        server::HttpResponse resp = service_->handle(r);
        const double s = span.stop();
        if (const std::string* id = r.header("X-Bench-Id"); id != nullptr) {
          const std::uint64_t n = std::strtoull(id->c_str(), nullptr, 10);
          if (n < kMaxIds)
            handler_us_[n].store(static_cast<float>(s * 1e6),
                                 std::memory_order_relaxed);
        }
        return resp;
      });
  http_->start();
}

Server::~Server() { http_->stop(); }

double Server::handler_us(std::uint64_t id) const {
  if (id >= kMaxIds) return 0.0;
  return handler_us_[id].load(std::memory_order_relaxed);
}

// -- Load generator ------------------------------------------------------------------

namespace {

struct LiveObservation {
  std::uint32_t region;
  double send, recv;
  std::string body;
};

/// Per-thread results, merged after the join.
struct ThreadResult {
  std::vector<double> lag_ms, put_ms;
  std::vector<double> get_handler_us, put_handler_us, overhead_us;
  std::vector<LiveObservation> live;
  std::vector<double> closed_done;  // completion times of closed-loop GETs
  double first_send = 1e300, last_send = 0.0;
  std::uint64_t sends = 0;
};

/// One checked region GET. Returns the receive time (0 on failure).
double do_get(HttpClient& client, Server& server, const std::vector<Region>& pool,
              const Request& req, ThreadResult& out, Report& rep) {
  const Region& r = pool[req.region];
  const std::uint64_t id = server.next_id();
  std::vector<std::pair<std::string, std::string>> headers{
      {"X-Bench-Id", std::to_string(id)}};
  if (req.revalidate) headers.emplace_back("If-None-Match", r.etag);
  rep.attempt();
  const double send = now_s();
  HttpClientResponse resp;
  try {
    resp = client.get(r.target, headers);
  } catch (const XfcError& e) {
    rep.fail("GET " + r.target + ": " + e.what());
    return 0.0;
  }
  const double recv = now_s();
  const double handler = server.handler_us(id);
  if (handler > 0.0) {
    out.get_handler_us.push_back(handler);
    out.overhead_us.push_back((recv - send) * 1e6 - handler);
  }
  if (req.revalidate) {
    const std::string* etag = resp.header("ETag");
    if (resp.status != 304 || etag == nullptr || *etag != r.etag)
      rep.fail("revalidation of " + r.target + ": status " +
               std::to_string(resp.status) + " or ETag differs from set-up");
  } else if (resp.status != 200) {
    rep.fail("GET " + r.target + ": status " + std::to_string(resp.status));
  } else if (r.live) {
    out.live.push_back({req.region, send, recv, std::move(resp.body)});
  } else if (resp.body != r.expected) {
    rep.fail("GET " + r.target + ": body differs from the full decode");
  }
  return recv;
}

}  // namespace

TrafficResult run_traffic(Server& server, const TrafficSpec& spec,
                          const std::vector<Region>& pool,
                          const std::vector<Request>& cycle, LiveField* live,
                          Report& rep) {
  const bool puts = live != nullptr && spec.put_interval_s > 0.0;
  const int n_open = std::clamp(spec.open_threads, 1, kLoadThreads);
  const int n_threads = std::clamp(spec.threads, 1, kLoadThreads);
  std::vector<ThreadResult> results(static_cast<std::size_t>(kLoadThreads));
  server::HttpClientConfig client_cfg;
  client_cfg.max_retries = 0;  // a retry would hide a failure

  // Open loop: the whole schedule exists before the first send.
  struct Event {
    double due;
    bool put;
    Request req;
  };
  std::vector<Event> events;
  const auto n_gets =
      static_cast<std::size_t>(std::llround(spec.open_s * spec.open_rps));
  for (std::size_t i = 0; i < n_gets; ++i)
    events.push_back({static_cast<double>(i) / spec.open_rps, false,
                      cycle[i % cycle.size()]});
  if (puts)
    for (double t = spec.put_interval_s / 2; t < spec.open_s; t += spec.put_interval_s)
      events.push_back({t, true, {}});
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) { return a.due < b.due; });

  // Open-loop GET latencies by event index (each index has one owner
  // thread), so they merge back in send order.
  std::vector<double> open_by_event(events.size(), -1.0);
  const double t0 = now_s() + 0.05;  // every thread connected before t0
  std::vector<std::thread> threads;
  for (int k = 0; k < n_open; ++k) {
    threads.emplace_back([&, k] {
      ThreadResult& out = results[static_cast<std::size_t>(k)];
      HttpClient client("127.0.0.1", server.port(), client_cfg);
      double free_at = t0;
      for (std::size_t j = static_cast<std::size_t>(k); j < events.size();
           j += static_cast<std::size_t>(n_open)) {
        const Event& ev = events[j];
        const double due = t0 + ev.due;
        std::this_thread::sleep_until(to_time_point(due));
        const double send = now_s();
        out.lag_ms.push_back((send - std::max(due, free_at)) * 1e3);
        out.first_send = std::min(out.first_send, send);
        out.last_send = std::max(out.last_send, send);
        ++out.sends;
        if (ev.put) {
          const double ms = live->put_next(client, server, rep);
          if (ms >= 0.0) out.put_ms.push_back(ms);
        } else if (const double recv = do_get(client, server, pool, ev.req, out, rep);
                   recv > 0.0) {
          open_by_event[j] = (recv - due) * 1e3;
        }
        free_at = now_s();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  threads.clear();

  // Closed loop: each connection sends its next request as soon as the
  // previous one is answered; thread 0 also keeps the PUT schedule.
  const double t1 = now_s();
  const double end = t1 + spec.closed_s;
  for (int k = 0; k < n_threads && spec.closed_s > 0.0; ++k) {
    threads.emplace_back([&, k] {
      ThreadResult& out = results[static_cast<std::size_t>(k)];
      HttpClient client("127.0.0.1", server.port(), client_cfg);
      std::size_t idx = static_cast<std::size_t>(k) * cycle.size() /
                        static_cast<std::size_t>(n_threads);
      double next_put = t1 + spec.put_interval_s / 2;
      while (now_s() < end) {
        if (k == 0 && puts && spec.closed_puts && now_s() >= next_put) {
          const double ms = live->put_next(client, server, rep);
          if (ms >= 0.0) out.put_ms.push_back(ms);
          next_put += spec.put_interval_s;
          continue;
        }
        if (const double recv =
                do_get(client, server, pool, cycle[idx++ % cycle.size()], out, rep);
            recv > 0.0)
          out.closed_done.push_back(recv);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  TrafficResult tr;
  double first = 1e300, last = 0.0;
  std::uint64_t sends = 0;
  // Closed-loop throughput per whole second, so a stall costs one bin.
  std::vector<double> per_second(static_cast<std::size_t>(spec.closed_s), 0.0);
  for (ThreadResult& r : results) {
    const auto append = [](std::vector<double>& to, const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(tr.lag_ms, r.lag_ms);
    append(tr.put_ms, r.put_ms);
    append(tr.get_handler_us, r.get_handler_us);
    append(tr.overhead_us, r.overhead_us);
    for (const double t : r.closed_done)
      if (const auto bin = static_cast<std::size_t>(t - t1); bin < per_second.size())
        per_second[bin] += 1.0;
    first = std::min(first, r.first_send);
    last = std::max(last, r.last_send);
    sends += r.sends;
    for (const LiveObservation& o : r.live)
      if (!live->matches(pool[o.region], o.send, o.recv, o.body))
        rep.fail("GET " + pool[o.region].target +
                 ": body matches no version of the live field visible then");
  }
  for (const double ms : open_by_event)
    if (ms >= 0.0) tr.open_ms.push_back(ms);
  if (live != nullptr) tr.put_handler_us = live->put_handler_us();
  tr.open_send_rps = sends > 1 && last > first
                         ? static_cast<double>(sends - 1) / (last - first)
                         : 0.0;
  tr.closed_rps = per_second.empty() ? 0.0 : median(per_second);
  return tr;
}

// -- Per-layer metrics -------------------------------------------------------------------

DecodeSnap decode_snap() {
  DecodeSnap s;
  s.tile = obs::tile_decode_us().snapshot();
  s.predict = obs::predict_decode_us().snapshot();
  s.lossless = obs::lossless_decode_us().snapshot();
  s.huffman = obs::huffman_build_us().snapshot();
  s.huffman_hits = obs::huffman_cache_hits().value();
  return s;
}

namespace {

obs::Histogram::Snapshot delta(const obs::Histogram::Snapshot& a,
                               const obs::Histogram::Snapshot& b) {
  obs::Histogram::Snapshot d = b;
  for (std::size_t i = 0; i < d.counts.size() && i < a.counts.size(); ++i)
    d.counts[i] -= a.counts[i];
  d.sum -= a.sum;
  d.count -= a.count;
  return d;
}

double mean_of(const obs::Histogram::Snapshot& s) {
  return s.count == 0 ? 0.0 : s.sum / static_cast<double>(s.count);
}

}  // namespace

void set_decode_metrics(const DecodeSnap& before, const DecodeSnap& after,
                        Report& rep) {
  const obs::Histogram::Snapshot tile = delta(before.tile, after.tile);
  rep.set("decode.tile_us.p50", obs::histogram_quantile(tile, 0.50), "us");
  rep.set("decode.tile_us.p99", obs::histogram_quantile(tile, 0.99), "us");
  rep.set("decode.predict_us", mean_of(delta(before.predict, after.predict)), "us");
  rep.set("decode.lossless_us", mean_of(delta(before.lossless, after.lossless)), "us");
  rep.set("decode.huffman_build_us", mean_of(delta(before.huffman, after.huffman)), "us");
  rep.set("decode.huffman_cache_hits",
          static_cast<double>(after.huffman_hits - before.huffman_hits), "count");
}

void set_server_metrics(Server& server, const TrafficResult& tr,
                        const server::HttpServerStats& stats0,
                        const server::TileCacheStats& cache0, Report& rep) {
  const server::HttpServerStats stats = server.http().stats();
  const server::TileCacheStats cache = server.service().cache().stats();
  rep.set("service.region_us", median(tr.get_handler_us), "us");
  rep.set("service.put_us", median(tr.put_handler_us), "us");
  rep.set("http.overhead_us", median(tr.overhead_us), "us");
  rep.set("http.shed",
          static_cast<double>(stats.shed_requests - stats0.shed_requests), "count");
  rep.set("http.bad_requests",
          static_cast<double>(stats.bad_requests - stats0.bad_requests), "count");
  const double hits = static_cast<double>(cache.hits - cache0.hits);
  const double misses = static_cast<double>(cache.misses - cache0.misses);
  rep.set("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  rep.set("cache.misses", misses, "count");
  rep.set("cache.evictions", static_cast<double>(cache.evictions - cache0.evictions),
          "count");
  rep.set("cache.inflight_waits",
          static_cast<double>(cache.inflight_waits - cache0.inflight_waits), "count");
  rep.set("cache.bytes", static_cast<double>(cache.bytes), "bytes");
  rep.set("gen.lag_ms", quantile(tr.lag_ms, 0.99), "ms");
  rep.set("gen.offered_rps", tr.open_send_rps, "1/s");
}

}  // namespace pb
