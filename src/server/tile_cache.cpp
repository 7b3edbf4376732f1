#include "server/tile_cache.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <list>
#include <mutex>
#include <unordered_map>

#include "core/error.hpp"
#include "obs/trace.hpp"

namespace xfc::server {
namespace {

/// Fixed per-entry accounting overhead (map node, LRU node, Field header),
/// so a budget of N bytes cannot be defeated by millions of tiny tiles.
constexpr std::size_t kEntryOverhead = 160;

/// Accesses per automatic heat-decay epoch. Small enough that "an epoch
/// ago" means recent traffic, large enough that the epoch counter bump is
/// one relaxed add per access with a branch that almost never takes.
constexpr std::uint64_t kEpochAccesses = 1u << 16;

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

struct TileCache::Shard {
  /// Rendezvous for threads that missed while another thread decodes.
  struct InFlight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    std::shared_ptr<const Field> value;
    std::exception_ptr error;
  };

  struct Entry {
    std::shared_ptr<const Field> value;   // null while decoding
    std::shared_ptr<InFlight> inflight;   // null once ready
    std::list<Key>::iterator lru_it{};    // valid once ready
    std::size_t bytes = 0;
    // Last access; the LRU tail's value is the shard's eviction-age gauge.
    std::chrono::steady_clock::time_point touched{};
  };

  struct TileHash {
    std::size_t operator()(const TileId& t) const {
      return static_cast<std::size_t>(
          mix64((static_cast<std::uint64_t>(t.field) << 40) ^ t.ordinal));
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return TileHash{}(k.tile) ^
             static_cast<std::size_t>(mix64(k.epoch + 0x9e3779b97f4a7c15ULL));
    }
  };

  /// A cached decode failure: the typed error served until `expiry`. The
  /// TTL it was inserted with is kept so the next failure after expiry can
  /// double it (exponential backoff per poisoned tile version).
  struct NegEntry {
    std::exception_ptr error;
    std::chrono::steady_clock::time_point expiry;
    std::uint32_t ttl_ms = 0;
    std::list<Key>::iterator order_it{};
  };

  std::mutex m;
  std::unordered_map<Key, Entry, KeyHash> map;
  std::list<Key> lru;  // front = most recently used; in-flight keys absent
  std::unordered_map<Key, NegEntry, KeyHash> neg;
  std::list<Key> neg_order;  // front = newest failure
  std::unordered_map<TileId, TileHeat, TileHash> heat;
  std::size_t bytes = 0;
  std::size_t budget = 0;
};

TileCache::TileCache(TileCacheConfig config)
    : capacity_bytes_(config.capacity_bytes),
      n_shards_(config.shards == 0 ? 1 : config.shards),
      negative_ttl_ms_(config.negative_ttl_ms),
      negative_ttl_max_ms_(
          std::max(config.negative_ttl_max_ms, config.negative_ttl_ms)),
      negative_entries_max_(config.negative_entries_max),
      shards_(new Shard[config.shards == 0 ? 1 : config.shards]) {
  for (std::size_t i = 0; i < n_shards_; ++i)
    shards_[i].budget = capacity_bytes_ / n_shards_;
}

TileCache::~TileCache() = default;

TileCache::Shard& TileCache::shard_for(const TileId& tile) const {
  return shards_[Shard::TileHash{}(tile) % n_shards_];
}

void TileCache::touch_heat(Shard& sh, const TileId& tile, bool hit) {
  // One access: tick the odometer that drives the decay epoch.
  const std::uint64_t n =
      epoch_accesses_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % kEpochAccesses == 0)
    epoch_.fetch_add(1, std::memory_order_relaxed);
  TileHeat& h = sh.heat[tile];
  ++(hit ? h.hits : h.misses);
  // Decay-then-bump.
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  if (h.last_epoch != epoch) {
    const std::uint32_t age = epoch - h.last_epoch;
    h.hot = age >= 32 ? 0 : h.hot >> age;
    h.last_epoch = epoch;
  }
  ++h.hot;
}

std::uint32_t TileCache::access_epoch() const {
  return epoch_.load(std::memory_order_relaxed);
}

void TileCache::advance_access_epoch() {
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TileHeat> TileCache::field_heat(const ArchiveReader& snapshot,
                                            std::size_t field_index) const {
  const auto& fields = snapshot.fields();
  if (field_index >= fields.size()) return {};
  std::vector<TileHeat> out(fields[field_index].tiles.size());
  for (std::size_t t = 0; t < out.size(); ++t) {
    const TileId tile{static_cast<std::uint32_t>(field_index), t};
    Shard& sh = shard_for(tile);
    const std::lock_guard<std::mutex> lock(sh.m);
    const auto it = sh.heat.find(tile);
    if (it != sh.heat.end()) out[t] = it->second;
  }
  return out;
}

TileShardStats TileCache::shard_stats(std::size_t shard_index) const {
  TileShardStats s;
  if (shard_index >= n_shards_) return s;
  Shard& sh = shards_[shard_index];
  const std::lock_guard<std::mutex> lock(sh.m);
  s.entries = sh.lru.size();
  s.bytes = sh.bytes;
  s.budget_bytes = sh.budget;
  s.negative_entries = sh.neg.size();
  if (!sh.lru.empty()) {
    const auto vit = sh.map.find(sh.lru.back());
    if (vit != sh.map.end())
      s.oldest_age_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        vit->second.touched)
              .count();
  }
  return s;
}

std::shared_ptr<const Field> TileCache::get(const ArchiveReader& snapshot,
                                            const std::string& field,
                                            std::size_t ordinal) {
  const ArchiveFieldInfo* info = snapshot.find(field);
  if (info == nullptr)
    throw InvalidArgument("TileCache: no such field: " + field);
  return get(snapshot,
             static_cast<std::size_t>(info - snapshot.fields().data()),
             ordinal);
}

std::shared_ptr<const Field> TileCache::get(const ArchiveReader& snapshot,
                                            std::size_t field_index,
                                            std::size_t ordinal) {
  const auto& fields = snapshot.fields();
  if (field_index >= fields.size())
    throw InvalidArgument("TileCache: field index out of range");
  if (ordinal >= fields[field_index].tiles.size())
    throw InvalidArgument("TileCache: tile ordinal out of range");
  return get_by_key(
      snapshot, Key{TileId{static_cast<std::uint32_t>(field_index), ordinal},
                    fields[field_index].epoch});
}

std::shared_ptr<const Field> TileCache::get_by_key(
    const ArchiveReader& snapshot, const Key& key) {
  Shard& sh = shard_for(key.tile);
  std::unique_lock<std::mutex> lock(sh.m);
  const auto it = sh.map.find(key);
  if (it != sh.map.end()) {
    Shard::Entry& e = it->second;
    if (e.value != nullptr) {
      sh.lru.splice(sh.lru.begin(), sh.lru, e.lru_it);
      e.touched = std::chrono::steady_clock::now();
      touch_heat(sh, key.tile, /*hit=*/true);
      if (obs::Trace* tr = obs::Trace::current()) ++tr->cache_hits;
      return e.value;
    }
    // Another thread is decoding this tile right now: wait for its result
    // instead of decoding it again (single-flight).
    const auto inflight = e.inflight;
    inflight_waits_.fetch_add(1, std::memory_order_relaxed);
    if (obs::Trace* tr = obs::Trace::current()) ++tr->inflight_waits;
    lock.unlock();
    // The decode's own spans land on the leader's trace; this request only
    // sees the wait.
    const obs::SpanScope span_wait("cache_wait");
    std::unique_lock<std::mutex> wait_lock(inflight->m);
    inflight->cv.wait(wait_lock, [&] { return inflight->done; });
    if (inflight->error) std::rethrow_exception(inflight->error);
    return inflight->value;
  }

  // Poisoned tile: serve the cached failure until it expires — one decode
  // attempt per backoff window, however many requests hammer the key.
  std::uint32_t prev_neg_ttl_ms = 0;
  const auto nit = sh.neg.find(key);
  if (nit != sh.neg.end()) {
    if (std::chrono::steady_clock::now() < nit->second.expiry) {
      negative_hits_.fetch_add(1, std::memory_order_relaxed);
      const std::exception_ptr error = nit->second.error;
      lock.unlock();
      std::rethrow_exception(error);
    }
    // Expired: this thread retries the decode; remember the old TTL so a
    // repeat failure backs off harder.
    prev_neg_ttl_ms = nit->second.ttl_ms;
    sh.neg_order.erase(nit->second.order_it);
    sh.neg.erase(nit);
  }

  // Cold tile: this thread becomes the decode leader for the key. Nothing
  // else erases a pending entry (eviction walks only the LRU), so the entry
  // is still this leader's when it relocks below.
  const auto inflight = std::make_shared<Shard::InFlight>();
  sh.map.emplace(key, Shard::Entry{nullptr, inflight, {}, 0, {}});
  touch_heat(sh, key.tile, /*hit=*/false);
  if (obs::Trace* tr = obs::Trace::current()) ++tr->cache_misses;
  lock.unlock();

  std::shared_ptr<const Field> value;
  try {
    const auto& fields = snapshot.fields();
    // Anchor tiles resolve back through the cache against the same
    // snapshot, so a cross-field decode both reuses and populates the
    // anchor's entries.
    const TileFetch fetch = [this, &snapshot](const ArchiveFieldInfo& anchor,
                                              std::size_t ord) {
      const auto& fields = snapshot.fields();
      const std::size_t idx = static_cast<std::size_t>(&anchor - fields.data());
      if (idx >= fields.size())
        throw InvalidArgument("TileCache: anchor info not from this snapshot");
      return get_by_key(
          snapshot,
          Key{TileId{static_cast<std::uint32_t>(idx), ord}, anchor.epoch});
    };
    value = std::make_shared<const Field>(snapshot.read_tile(
        fields[key.tile.field], key.tile.ordinal, fetch));
  } catch (...) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    {
      // Drop the pending entry and negatively cache the failure: followers
      // already waiting get the error through the in-flight rendezvous;
      // later requests hit the cached entry until its TTL lapses.
      const std::lock_guard<std::mutex> relock(sh.m);
      sh.map.erase(key);
      if (negative_ttl_ms_ != 0) {
        const std::uint32_t ttl_ms =
            prev_neg_ttl_ms == 0
                ? negative_ttl_ms_
                : std::min(prev_neg_ttl_ms * 2, negative_ttl_max_ms_);
        sh.neg_order.push_front(key);
        Shard::NegEntry ne;
        ne.error = std::current_exception();
        ne.expiry = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(ttl_ms);
        ne.ttl_ms = ttl_ms;
        ne.order_it = sh.neg_order.begin();
        sh.neg[key] = std::move(ne);
        while (sh.neg.size() > negative_entries_max_) {
          const auto oldest = sh.neg.find(sh.neg_order.back());
          sh.neg.erase(oldest);
          sh.neg_order.pop_back();
        }
      }
    }
    {
      const std::lock_guard<std::mutex> wait_lock(inflight->m);
      inflight->done = true;
      inflight->error = std::current_exception();
    }
    inflight->cv.notify_all();
    throw;
  }

  const std::size_t entry_bytes =
      value->size() * sizeof(float) + kEntryOverhead;
  {
    const std::lock_guard<std::mutex> relock(sh.m);
    Shard::Entry& e = sh.map.find(key)->second;
    e.value = value;
    e.inflight.reset();
    e.bytes = entry_bytes;
    e.touched = std::chrono::steady_clock::now();
    sh.lru.push_front(key);
    e.lru_it = sh.lru.begin();
    sh.bytes += entry_bytes;
    // Evict cold tail entries down to budget. The entry just inserted is
    // never the victim (it is at the front and the loop keeps >= 1 entry),
    // so even a tile bigger than the whole budget serves from cache while
    // it is the hot one.
    while (sh.bytes > sh.budget && sh.lru.size() > 1) {
      const Key victim = sh.lru.back();
      const auto vit = sh.map.find(victim);
      sh.bytes -= vit->second.bytes;
      sh.map.erase(vit);
      sh.lru.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  {
    const std::lock_guard<std::mutex> wait_lock(inflight->m);
    inflight->done = true;
    inflight->value = value;
  }
  inflight->cv.notify_all();
  return value;
}

TileCacheStats TileCache::stats() const {
  TileCacheStats s;
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
  s.decode_errors = decode_errors_.load(std::memory_order_relaxed);
  s.negative_hits = negative_hits_.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < n_shards_; ++i) {
    Shard& sh = shards_[i];
    const std::lock_guard<std::mutex> lock(sh.m);
    s.entries += sh.lru.size();
    s.bytes += sh.bytes;
    s.negative_entries += sh.neg.size();
    for (const auto& [tile, h] : sh.heat) {
      s.hits += h.hits;
      s.misses += h.misses;
    }
  }
  return s;
}

}  // namespace xfc::server
