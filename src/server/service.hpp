#ifndef XFC_SERVER_SERVICE_HPP
#define XFC_SERVER_SERVICE_HPP

/// \file service.hpp
/// XFS endpoints: the glue between the HTTP layer and one XFA1 archive,
/// with every region read served through the sharded decoded-tile cache.
///
///   GET /healthz                      -> 200 "ok" (liveness: process up)
///   GET /readyz                       -> 200 "ready", or 503 "draining"
///       once set_ready(false) — readiness is what a load balancer should
///       poll; liveness stays 200 through a drain.
///   GET /fields                       -> JSON index of the archive
///   GET /field/<name>/region?lo=..&hi=..[&fmt=f32|json]
///       Half-open region [lo, hi) of the named field (comma-separated
///       per-axis bounds, rank must match). fmt=f32 (default) answers the
///       raw little-endian float32 values (row-major, X-Xfc-Shape header
///       carries the extents); fmt=json answers {"shape":[..],
///       "values":[..]}. Bytes are bit-identical to
///       ArchiveReader::read_region on the same archive. Responses carry a
///       strong ETag derived from the index (the covered fields' append
///       epochs and tile CRCs); If-None-Match answers 304 without decoding
///       a single tile.
///       Damaged tiles answer 502 naming the bad tiles — unless the client
///       opts in with allow_partial=1, which answers 200 with the failed
///       tiles filled (fill=zero|nan) and a tile-error manifest
///       (X-Xfc-Bad-Tiles header for f32, "tile_errors" array for json).
///       Partial responses carry no ETag: degraded bytes must never
///       validate a later 304.
///   GET /stats                        -> JSON cache + request counters
///       (legacy shape, frozen). /stats?format=v2 answers the full metric
///       registry snapshot (scalars + histogram buckets) as JSON.
///   GET /metrics                      -> Prometheus text exposition:
///       this service's registry followed by the process-global one
///       (codec-stage histograms, HTTP-layer counters). Includes per-shard
///       cache gauges (xfs_cache_shard<i>_*) and process gauges (RSS, fds,
///       threads, uptime).
///   GET /debug/cache                  -> JSON tile-access heatmap: per
///       field, per tile ordinal -> {hits, misses, hot, last_epoch}, plus
///       per-shard occupancy/eviction-age — the observed-locality data the
///       readahead and cache-policy work feeds on.
///   GET /debug/prof?seconds=N&hz=F    -> runs the in-process sampling CPU
///       profiler for N wall seconds (default 2, cap 30) at F Hz (default
///       97, cap 999) and answers text/plain folded stacks (flamegraph.pl
///       input). Blocks the handling worker for the duration; answers 409
///       if the profiler is already armed. X-Xfc-Prof-Samples /
///       X-Xfc-Prof-Dropped headers carry the sample accounting.
///
///   PUT /field/<name>?shape=..&eb=..[&mode=rel|abs][&codec=sz|classic|
///       interp|zfp][&tile=..]     (only when ServiceConfig::archive_path
///       is set). Body: raw little-endian float32 values, row-major,
///       exactly prod(shape) of them. Appends one crash-consistent epoch
///       to the archive file (bodies -> fsync -> footer+trailer -> fsync;
///       the trailer is the commit point), reopens it and swaps the
///       serving snapshot — nothing else. The tile cache keys tiles by the
///       field's append epoch, so the replacement's tiles are new keys and
///       no cached tile is invalidated: the superseded version ages out of
///       the LRU, and in-flight reads finish against the snapshot they
///       started with. A new field answers 201, a replacement 200; 403 when
///       ingest is disabled, 503 + Retry-After while draining or not ready,
///       409 for a field other fields anchor on.
///
/// Region requests additionally accept trace=1: the region is assembled
/// as usual but the response is a JSON debug view of the request's span
/// tree (stage timings, cache hit/miss counts) instead of the data bytes.
///
/// handle() is thread-safe (the HTTP layer fans request batches over the
/// worker pool): each request copies the serving snapshot once and works
/// off that immutable reader alone (the tile cache is keyed by the tile
/// versions it names), the cache locks internally, and service counters
/// live on a per-instance obs::Registry whose mutations are striped
/// relaxed atomics.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "archive/archive_reader.hpp"
#include "obs/metrics.hpp"
#include "server/http.hpp"
#include "server/tile_cache.hpp"

namespace xfc::server {

struct ServiceConfig {
  std::size_t cache_bytes = 256u << 20;
  std::size_t cache_shards = 8;
  /// Response-side caps, mirroring the request-side ones in HttpConfig: a
  /// region query larger than this answers 413 instead of materializing an
  /// arbitrarily large response. fmt=json costs ~13 bytes/value (vs 4 raw),
  /// hence its much lower ceiling.
  std::size_t max_region_values = 16u << 20;  // 64 MiB of f32 per response
  std::size_t max_json_values = 1u << 20;
  /// Per-request decode budget: a region request that has already spent
  /// this long answers 503 + Retry-After instead of holding a worker (0
  /// disables the deadline). Checked between tile decodes, so one tile's
  /// decode time bounds the overshoot.
  int request_deadline_ms = 0;
  /// Negative-cache TTL handed to the tile cache (see TileCacheConfig).
  std::uint32_t negative_ttl_ms = 250;
  /// Live ingest: when set, PUT /field/<name> appends an epoch to this
  /// archive file (which must be the file the service's reader was opened
  /// on). Empty disables ingest — every PUT answers 403.
  std::string archive_path;
  /// Cap on values in one ingested field (PUT bodies are additionally
  /// capped by HttpConfig::max_request_bytes upstream).
  std::size_t max_ingest_values = 16u << 20;
};

class ArchiveService {
 public:
  explicit ArchiveService(std::shared_ptr<const ArchiveReader> reader,
                          ServiceConfig config = {});

  /// Routes one request; never throws (internal failures answer 4xx/5xx).
  HttpResponse handle(const HttpRequest& request);

  /// Flips /readyz between 200 "ready" and 503 "draining". Call with
  /// false when a drain begins so load balancers stop routing here while
  /// in-flight requests finish. /healthz is unaffected.
  void set_ready(bool ready) {
    ready_.store(ready, std::memory_order_release);
  }
  bool ready() const { return ready_.load(std::memory_order_acquire); }

  const TileCache& cache() const { return cache_; }

  /// Snapshot of the reader serving right now. Ingest swaps the snapshot
  /// atomically after each sealed epoch; requests that already hold one
  /// finish against the archive state they started with.
  std::shared_ptr<const ArchiveReader> reader() const {
    const std::lock_guard<std::mutex> lock(reader_mutex_);
    return reader_;
  }

  /// Per-instance metric registry (serving counters + cache callbacks);
  /// the process-global obs::registry() carries the codec-stage metrics.
  const obs::Registry& metrics() const { return registry_; }

 private:
  HttpResponse handle_fields(const ArchiveReader& reader) const;
  HttpResponse handle_region(const ArchiveReader& reader,
                             const std::string& field_name,
                             const HttpRequest& request);
  HttpResponse handle_ingest(const std::string& field_name,
                             const HttpRequest& request);
  HttpResponse handle_stats(bool v2) const;
  HttpResponse handle_metrics() const;
  HttpResponse handle_debug_cache(const ArchiveReader& reader) const;
  HttpResponse handle_debug_prof(const HttpRequest& request) const;

  // Serving snapshot, swapped under reader_mutex_ by ingest; handlers copy
  // the shared_ptr once at entry and work off that archive state.
  mutable std::mutex reader_mutex_;
  std::shared_ptr<const ArchiveReader> reader_;
  // Serializes the whole append-reopen-swap ingest sequence (one writer at
  // a time on the archive file). Always acquired before reader_mutex_.
  std::mutex ingest_mutex_;
  ServiceConfig config_;
  TileCache cache_;

  std::atomic<bool> ready_{true};

  // Request counters, owned by registry_ (declared first: the references
  // below bind to registry entries created in the constructor).
  obs::Registry registry_;
  obs::Counter& requests_;
  obs::Counter& region_requests_;
  obs::Counter& client_errors_;
  obs::Counter& bytes_served_;
  obs::Counter& not_modified_;
  obs::Counter& degraded_requests_;   // partial 200s
  obs::Counter& failed_regions_;      // 502s
  obs::Counter& deadline_exceeded_;   // 503s
  obs::Counter& ingest_requests_;     // PUT /field/<name> received
  obs::Counter& ingest_bytes_;        // PUT body bytes of sealed epochs
  obs::Counter& ingest_errors_;       // PUTs answered 4xx/5xx
  obs::Counter& ingest_epochs_;       // epochs sealed by this service
};

}  // namespace xfc::server

#endif  // XFC_SERVER_SERVICE_HPP
