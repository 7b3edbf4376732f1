#ifndef XFC_SERVER_TILE_CACHE_HPP
#define XFC_SERVER_TILE_CACHE_HPP

/// \file tile_cache.hpp
/// Sharded, byte-budgeted LRU cache of decoded archive tiles — the memory
/// layer of the XFS serving subsystem. Region queries touch the same hot
/// tiles over and over; decoding a tile (entropy decode, CFNN cross-field
/// reconstruction) costs milliseconds while copying a cached tile costs
/// microseconds, so the cache is what turns the archive's random access
/// into sub-millisecond repeat reads.
///
/// The cache holds no reader of its own. Every get() names the snapshot
/// (ArchiveReader) its request holds for the request's whole life, and the
/// key is the tile *version* that snapshot names: (field index, the field's
/// append epoch, tile ordinal). One cache serves the snapshots of one
/// archive file: field indices are append-stable and every replacement
/// seals a new epoch, so one key always means the same bytes, whichever
/// snapshot decoded it. Live ingest therefore needs no invalidation — a
/// superseded version is never requested again and ages out of the LRU
/// within the same byte budget — and a request never mixes versions.
/// Entries are immutable decoded tiles handed out as
/// shared_ptr<const Field>, so eviction never invalidates a response that
/// is still being assembled.
///
/// Single-flight: when N threads miss on the same cold tile, exactly one
/// decodes it; the rest block on the in-flight entry and share the result.
/// Cross-field tiles resolve their anchor tiles back through the cache
/// against the same snapshot (get() hands the reader a TileFetch bound to
/// itself), so anchors are decoded once and shared too. Every ArchiveReader
/// validates its anchor graph at open (a dangling or cyclic anchor is a
/// corrupt index), and a version's anchors are fixed by its index entry, so
/// the recursive gets — and the cross-thread single-flight waits that
/// follow anchor edges — always terminate.
///
/// Heat: each tile's access counters are keyed by (field index, ordinal),
/// across versions, and live in the tile's shard under the lock every
/// access already holds (all versions of a tile share a shard). stats()
/// hits/misses are their sums.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "archive/archive_reader.hpp"
#include "core/field.hpp"

namespace xfc::server {

struct TileCacheConfig {
  /// Target decoded-tile budget across all shards. A shard may transiently
  /// exceed its slice while a response to an oversized tile is in flight.
  std::size_t capacity_bytes = 256u << 20;
  /// Lock shard count, used as-is (0 is clamped to 1; any count works —
  /// tiles map by hash modulo). More shards = less contention between
  /// unrelated tiles; 8 is plenty below ~32 threads.
  std::size_t shards = 8;
  /// Negative caching: when a tile's decode fails, the error is cached for
  /// this long so concurrent and follow-up requests get the typed error
  /// immediately instead of stampeding re-decodes of a poisoned tile. Each
  /// consecutive failure after expiry doubles the TTL up to the max
  /// (exponential backoff); a successful decode clears the penalty. 0
  /// disables negative caching (every request retries the decode).
  std::uint32_t negative_ttl_ms = 250;
  std::uint32_t negative_ttl_max_ms = 8000;
  /// Per-shard cap on cached failures (oldest evicted first), so a scan
  /// across a damaged archive cannot grow the error map without bound.
  std::size_t negative_entries_max = 1024;
};

/// One tile's access heat (see TileCache::field_heat), across every
/// version of the tile. `hits`/`misses` count the accesses that found the
/// tile resident or started its decode (in-flight waits and negative hits
/// are neither). `hot` is an epoch-decayed popularity score: halved once
/// per access epoch the tile sat untouched, +1 per touch — so it ranks
/// tiles by *recent* demand, which is what readahead and 2Q admission
/// decisions need, while hits/misses keep the all-time totals.
struct TileHeat {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint32_t hot = 0;
  std::uint32_t last_epoch = 0;  ///< access epoch of the last touch
};

/// Per-shard occupancy snapshot (see TileCache::shard_stats).
struct TileShardStats {
  std::uint64_t entries = 0;
  std::uint64_t bytes = 0;
  std::uint64_t budget_bytes = 0;
  std::uint64_t negative_entries = 0;
  /// Age of the LRU tail — the next eviction victim. 0 when empty. A large
  /// value means the shard is colder than its budget; near-zero under
  /// pressure means the shard is churning.
  double oldest_age_seconds = 0.0;
};

struct TileCacheStats {
  std::uint64_t hits = 0;            // sum of the tiles' heat hits
  std::uint64_t misses = 0;          // == decodes started; sum of heat misses
  std::uint64_t evictions = 0;
  std::uint64_t inflight_waits = 0;  // blocked on another thread's decode
  std::uint64_t decode_errors = 0;
  std::uint64_t negative_hits = 0;   // served a cached failure, no decode
  std::uint64_t entries = 0;         // current
  std::uint64_t bytes = 0;           // current decoded-tile bytes
  std::uint64_t negative_entries = 0;  // current cached failures
};

class TileCache {
 public:
  explicit TileCache(TileCacheConfig config = {});
  ~TileCache();

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Returns tile `ordinal` of field `field_index` (its position in
  /// `snapshot.fields()`) as `snapshot` names it, decoding at most once per
  /// tile version no matter how many threads ask concurrently. `snapshot`
  /// must be a reader of the archive file this cache serves, and must
  /// outlive the call. Throws InvalidArgument for an out-of-range field or
  /// ordinal. Decode failures propagate to every waiter and are negatively
  /// cached (config.negative_ttl_ms) so a poisoned tile costs one decode
  /// attempt per backoff window, not one per request.
  std::shared_ptr<const Field> get(const ArchiveReader& snapshot,
                                   std::size_t field_index,
                                   std::size_t ordinal);

  /// Name-keyed convenience overload (an O(fields) lookup per call; the
  /// serving path resolves the index once per request instead).
  std::shared_ptr<const Field> get(const ArchiveReader& snapshot,
                                   const std::string& field,
                                   std::size_t ordinal);

  TileCacheStats stats() const;
  std::size_t capacity_bytes() const { return capacity_bytes_; }

  /// Access heat of field `field_index` of `snapshot`, indexed by tile
  /// ordinal over that snapshot's tile grid. Empty for an out-of-range
  /// field. Heat outlives versions: a replaced field keeps its tiles' heat.
  std::vector<TileHeat> field_heat(const ArchiveReader& snapshot,
                                   std::size_t field_index) const;

  /// Current decay epoch. Advances automatically every ~65k cache accesses
  /// and manually via advance_access_epoch() (tests, policy experiments).
  std::uint32_t access_epoch() const;
  void advance_access_epoch();

  std::size_t shard_count() const { return n_shards_; }
  /// Snapshot of one shard (zeroes for an out-of-range index).
  TileShardStats shard_stats(std::size_t shard_index) const;

 private:
  struct Shard;
  /// One tile of one field across its versions: what heat and shard
  /// placement key on.
  struct TileId {
    std::uint32_t field = 0;  // index into the snapshot's fields()
    std::uint64_t ordinal = 0;
    bool operator==(const TileId&) const = default;
  };
  /// One version of a tile: the field's append epoch names its bytes.
  struct Key {
    TileId tile;
    std::uint32_t epoch = 0;
    bool operator==(const Key&) const = default;
  };

  std::shared_ptr<const Field> get_by_key(const ArchiveReader& snapshot,
                                          const Key& key);
  Shard& shard_for(const TileId& tile) const;
  /// Records one access in the tile's heat; caller holds the shard lock.
  void touch_heat(Shard& sh, const TileId& tile, bool hit);

  std::size_t capacity_bytes_;
  std::size_t n_shards_;
  std::uint32_t negative_ttl_ms_;
  std::uint32_t negative_ttl_max_ms_;
  std::size_t negative_entries_max_;
  std::unique_ptr<Shard[]> shards_;

  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> inflight_waits_{0};
  mutable std::atomic<std::uint64_t> decode_errors_{0};
  mutable std::atomic<std::uint64_t> negative_hits_{0};

  // Decay clock for the heat scores: epoch_ ticks once per ~65k accesses
  // (and on advance_access_epoch()); epoch_accesses_ is the access odometer
  // driving it. Both relaxed — the decay is an approximation by design.
  std::atomic<std::uint32_t> epoch_{0};
  std::atomic<std::uint64_t> epoch_accesses_{0};
};

}  // namespace xfc::server

#endif  // XFC_SERVER_TILE_CACHE_HPP
