#ifndef XFC_PERFBENCH_SERVE_HPP
#define XFC_PERFBENCH_SERVE_HPP

/// The serving side of the benchmark: an XFS server (ArchiveService behind
/// HttpServer on loopback) over a durable archive file, a seeded request
/// pool, and the load generator that drives it with an open-loop phase, a
/// closed-loop phase and, optionally, live PUTs — checking every answer.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/rng.hpp"
#include "obs/metrics.hpp"
#include "server/http.hpp"
#include "server/service.hpp"

namespace pb {

/// Load generator limits: threads and connections (one keep-alive
/// connection per thread).
inline constexpr int kLoadThreads = 4;
/// Tile edge of the served archives (TileGrid's 2-D default).
inline constexpr std::size_t kTile = 256;
/// Edge of the square field that PUTs create and replace.
inline constexpr std::size_t kLiveEdge = 256;

/// One region request target. Static regions carry their expected answer
/// (a crop of a full decode taken at set-up) and, when revalidated, the
/// ETag recorded at set-up; regions of the PUT field are checked against
/// the version they could have read.
struct Region {
  std::string field;
  std::size_t lo[2] = {0, 0}, hi[2] = {0, 0};
  std::string target;    // request path + query
  std::string expected;  // raw f32 bytes (static regions)
  std::string etag;      // recorded at set-up (revalidated regions)
  bool live = false;
};

/// Eight regions per field: edges 64, 128, 192 and 256, each once starting
/// on a tile origin and once straddling a tile boundary. Which tiles each
/// region covers is fixed by its field and size class; `rng` draws where a
/// straddling region sits across its boundaries. Every seed's pool thus has
/// the same tile footprint, and seeds differ in data and offsets only.
std::vector<Region> make_region_pool(const std::vector<std::string>& fields,
                                     const std::vector<bool>& live,
                                     std::size_t height, std::size_t width,
                                     xfc::Rng& rng);

struct Request {
  std::uint32_t region = 0;
  bool revalidate = false;  // send If-None-Match with the recorded ETag
};

/// Shuffled request cycle with an exact composition: each field appears
/// `weight[f]` times, each time with one of its pool regions, and every
/// `revalidate_every`-th entry (0 = none) is a revalidation. Workloads pass
/// a fixed-seed `rng`, so the order of tile accesses is part of the
/// workload definition, not of the run's seed.
std::vector<Request> make_cycle(const std::vector<Region>& pool,
                                const std::vector<std::string>& fields,
                                const std::vector<int>& weight,
                                int revalidate_every, xfc::Rng& rng);

class Server;

/// `versions` seeded kLiveEdge^2 fields named `name`, each different: the
/// bodies of successive PUTs (or epoch appends) of one live field.
std::vector<xfc::Field> live_versions(const std::string& name,
                                      std::uint64_t seed, std::size_t versions);

/// Relative bound of every live-field write.
inline constexpr double kLiveEb = 1e-3;

/// The PUT side: pre-generated bodies of the live field and every version
/// the server has acknowledged (with its decoded read-back). PUTs are
/// issued one at a time.
class LiveField {
 public:
  LiveField(std::string name, std::uint64_t seed, std::size_t versions);

  std::size_t versions_sent() const;

  /// PUTs the next version over `client`, checks the status (201 for the
  /// first version, 200 after), reads the whole field back and checks it
  /// against its bound. Returns the PUT latency in ms (negative on
  /// failure, which is also reported).
  double put_next(xfc::server::HttpClient& client, Server& server,
                  Report& rep);

  /// Handler time (µs) of every acknowledged PUT.
  std::vector<double> put_handler_us() const;

  /// Checks a region body read from the live field between `send` and
  /// `recv` against every version visible in that window.
  bool matches(const Region& r, double send, double recv,
               const std::string& body) const;

 private:
  struct Version {
    double send = 0.0, recv = 0.0;  // PUT request window
    xfc::F32Array decoded;          // read back after the PUT
  };
  std::string name_;
  std::vector<xfc::Field> data_;  // the bodies, in PUT order
  mutable std::mutex m_;          // guards acked_ and put_handler_us_
  std::vector<Version> acked_;
  std::vector<double> put_handler_us_;
};

/// ArchiveService + HttpServer over one archive file, PUT ingest enabled.
/// The handler records its own time per request (keyed by the client's
/// X-Bench-Id header) so the client can split latency into handler time
/// and HTTP overhead.
class Server {
 public:
  Server(const std::string& archive_path, std::size_t cache_bytes);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  std::uint16_t port() const { return http_->port(); }
  xfc::server::ArchiveService& service() { return *service_; }
  xfc::server::HttpServer& http() { return *http_; }
  /// Handler time of request `id` in µs (0 if unknown).
  double handler_us(std::uint64_t id) const;
  std::uint64_t next_id() { return next_id_.fetch_add(1); }

 private:
  static constexpr std::size_t kMaxIds = std::size_t{1} << 20;
  std::unique_ptr<xfc::server::ArchiveService> service_;
  std::unique_ptr<std::atomic<float>[]> handler_us_;
  std::atomic<std::uint64_t> next_id_{1};
  std::unique_ptr<xfc::server::HttpServer> http_;  // last: stops first
};

struct TrafficSpec {
  int open_threads = kLoadThreads;  // connections of the open-loop phase
  int threads = kLoadThreads;       // connections of the closed-loop phase
  double open_s = 0.0;    // open-loop phase length
  double open_rps = 0.0;  // offered rate of region GETs
  double closed_s = 0.0;  // closed-loop phase length
  double put_interval_s = 0.0;  // 0 = no PUTs
  bool closed_puts = true;      // PUTs in the closed-loop phase as well
};

struct TrafficResult {
  std::vector<double> open_ms;  // GET latency from its due time, send order
  std::vector<double> lag_ms;   // send time past max(due, connection free)
  double open_send_rps = 0.0;   // sends / open-loop span
  double closed_rps = 0.0;  // median over the closed loop's whole seconds
  std::vector<double> put_ms;
  std::vector<double> get_handler_us, put_handler_us, overhead_us;
};

/// Runs one open-loop phase then one closed-loop phase of `cycle` against
/// `server`, checking every response into `rep`.
TrafficResult run_traffic(Server& server, const TrafficSpec& spec,
                          const std::vector<Region>& pool,
                          const std::vector<Request>& cycle, LiveField* live,
                          Report& rep);

/// Window deltas of the decode-path registry histograms.
struct DecodeSnap {
  xfc::obs::Histogram::Snapshot tile, predict, lossless, huffman;
  std::uint64_t huffman_hits = 0;
};
DecodeSnap decode_snap();
void set_decode_metrics(const DecodeSnap& before, const DecodeSnap& after,
                        Report& rep);

/// Server-layer per-layer metrics (service, http, cache, gen) of one
/// traffic window; `stats0`/`cache0` are the counters before it.
void set_server_metrics(Server& server, const TrafficResult& tr,
                        const xfc::server::HttpServerStats& stats0,
                        const xfc::server::TileCacheStats& cache0,
                        Report& rep);

/// Raw float32 bytes of the [lo, hi) crop of `f` (row-major).
std::string crop_bytes(const xfc::F32Array& f, const std::size_t lo[2],
                       const std::size_t hi[2]);

/// The generator fell behind its schedule: p99 send lag past this makes the
/// run invalid.
inline constexpr double kMaxLagP99Ms = 25.0;

}  // namespace pb

#endif  // XFC_PERFBENCH_SERVE_HPP
