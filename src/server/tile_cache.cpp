#include "server/tile_cache.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <list>
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

  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          mix64(k.archive * 0x9e3779b97f4a7c15ULL ^
                (static_cast<std::uint64_t>(k.field) << 40) ^ k.ordinal));
    }
  };

  /// A cached decode failure: the typed error served until `expiry`. The
  /// TTL it was inserted with is kept so the next failure after expiry can
  /// double it (exponential backoff per poisoned tile).
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
  std::size_t bytes = 0;
  std::size_t budget = 0;
};

/// Per-archive heat storage: one TileStat per (field, tile ordinal),
/// allocated in full at add_archive() so the hot path never allocates and
/// never takes archives_mutex_ to record a touch.
struct TileCache::ArchiveHeat {
  struct TileStat {
    std::atomic<std::uint32_t> hits{0};
    std::atomic<std::uint32_t> misses{0};
    std::atomic<std::uint32_t> hot{0};
    std::atomic<std::uint32_t> last_epoch{0};
  };
  std::vector<std::unique_ptr<TileStat[]>> fields;  // [field][ordinal]
  std::vector<std::size_t> tiles;                   // per-field tile count
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

TileCache::Shard& TileCache::shard_for(const Key& key) const {
  return shards_[Shard::KeyHash{}(key) % n_shards_];
}

std::shared_ptr<TileCache::ArchiveHeat> TileCache::make_heat(
    const ArchiveReader& reader) {
  auto heat = std::make_shared<ArchiveHeat>();
  for (const ArchiveFieldInfo& info : reader.fields()) {
    const std::size_t n = info.tiles.size();
    heat->fields.push_back(n != 0
                               ? std::make_unique<ArchiveHeat::TileStat[]>(n)
                               : nullptr);
    heat->tiles.push_back(n);
  }
  return heat;
}

std::uint64_t TileCache::add_archive(
    std::shared_ptr<const ArchiveReader> reader) {
  expects(reader != nullptr, "TileCache: null reader");
  auto heat = make_heat(*reader);
  const std::lock_guard<std::mutex> lock(archives_mutex_);
  archives_.push_back(std::move(reader));
  heats_.push_back(std::move(heat));
  return archives_.size() - 1;
}

void TileCache::update_archive(std::uint64_t archive_id,
                               std::shared_ptr<const ArchiveReader> reader) {
  expects(reader != nullptr, "TileCache: null reader");
  // Fresh heat: tile grids may have grown (new fields, replaced geometry),
  // and heat is demand history anyway — the epoch decay would age it out.
  auto heat = make_heat(*reader);
  const std::lock_guard<std::mutex> lock(archives_mutex_);
  if (archive_id >= archives_.size())
    throw InvalidArgument("TileCache: unknown archive id");
  archives_[archive_id] = std::move(reader);
  heats_[archive_id] = std::move(heat);
}

std::shared_ptr<const ArchiveReader> TileCache::archive_and_heat(
    std::uint64_t archive_id, std::shared_ptr<ArchiveHeat>* heat) const {
  const std::lock_guard<std::mutex> lock(archives_mutex_);
  if (archive_id >= archives_.size()) return nullptr;
  *heat = heats_[archive_id];
  return archives_[archive_id];
}

void TileCache::touch_heat(ArchiveHeat* heat, const Key& key, bool hit) {
  // One access: tick the odometer that drives the decay epoch.
  const std::uint64_t n =
      epoch_accesses_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n % kEpochAccesses == 0)
    epoch_.fetch_add(1, std::memory_order_relaxed);
  if (heat == nullptr || key.field >= heat->fields.size() ||
      key.ordinal >= heat->tiles[key.field])
    return;
  ArchiveHeat::TileStat& ts = heat->fields[key.field][key.ordinal];
  if (hit)
    ts.hits.fetch_add(1, std::memory_order_relaxed);
  else
    ts.misses.fetch_add(1, std::memory_order_relaxed);
  // Decay-then-bump. Load/store rather than CAS: a lost update under a
  // concurrent touch costs one count on an approximate popularity score,
  // which is cheaper than putting a CAS loop on the cache hot path.
  const std::uint32_t epoch = epoch_.load(std::memory_order_relaxed);
  const std::uint32_t last = ts.last_epoch.load(std::memory_order_relaxed);
  std::uint32_t hot = ts.hot.load(std::memory_order_relaxed);
  if (last != epoch) {
    const std::uint32_t age = epoch - last;
    hot = age >= 32 ? 0 : hot >> age;
    ts.last_epoch.store(epoch, std::memory_order_relaxed);
  }
  ts.hot.store(hot + 1, std::memory_order_relaxed);
}

std::uint32_t TileCache::access_epoch() const {
  return epoch_.load(std::memory_order_relaxed);
}

void TileCache::advance_access_epoch() {
  epoch_.fetch_add(1, std::memory_order_relaxed);
}

std::vector<TileHeat> TileCache::field_heat(std::uint64_t archive_id,
                                            std::size_t field_index) const {
  std::shared_ptr<ArchiveHeat> heat;
  {
    const std::lock_guard<std::mutex> lock(archives_mutex_);
    if (archive_id >= heats_.size()) return {};
    heat = heats_[archive_id];
  }
  if (field_index >= heat->fields.size()) return {};
  const std::size_t n = heat->tiles[field_index];
  std::vector<TileHeat> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const ArchiveHeat::TileStat& ts = heat->fields[field_index][i];
    out[i].hits = ts.hits.load(std::memory_order_relaxed);
    out[i].misses = ts.misses.load(std::memory_order_relaxed);
    out[i].hot = ts.hot.load(std::memory_order_relaxed);
    out[i].last_epoch = ts.last_epoch.load(std::memory_order_relaxed);
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

std::shared_ptr<const ArchiveReader> TileCache::archive(
    std::uint64_t archive_id) const {
  const std::lock_guard<std::mutex> lock(archives_mutex_);
  if (archive_id >= archives_.size()) return nullptr;
  return archives_[archive_id];
}

std::shared_ptr<const Field> TileCache::get(std::uint64_t archive_id,
                                            const std::string& field,
                                            std::size_t ordinal) {
  const auto reader = archive(archive_id);
  if (reader == nullptr)
    throw InvalidArgument("TileCache: unknown archive id");
  const auto& fields = reader->fields();
  for (std::size_t i = 0; i < fields.size(); ++i)
    if (fields[i].name == field) return get(archive_id, i, ordinal);
  throw InvalidArgument("TileCache: no such field: " + field);
}

std::shared_ptr<const Field> TileCache::get(std::uint64_t archive_id,
                                            std::size_t field_index,
                                            std::size_t ordinal) {
  // The shared_ptr keeps the heat alive across a concurrent
  // update_archive; get_by_key and the anchor fetches it spawns borrow the
  // raw pointer under this frame.
  std::shared_ptr<ArchiveHeat> heat;
  const auto reader = archive_and_heat(archive_id, &heat);
  if (reader == nullptr)
    throw InvalidArgument("TileCache: unknown archive id");
  const auto& fields = reader->fields();
  if (field_index >= fields.size())
    throw InvalidArgument("TileCache: field index out of range");
  if (ordinal >= fields[field_index].tiles.size())
    throw InvalidArgument("TileCache: tile ordinal out of range");
  return get_by_key(
      reader, heat.get(),
      Key{archive_id, static_cast<std::uint32_t>(field_index), ordinal});
}

std::shared_ptr<const Field> TileCache::get_by_key(
    const std::shared_ptr<const ArchiveReader>& reader, ArchiveHeat* heat,
    const Key& key) {
  Shard& sh = shard_for(key);
  std::unique_lock<std::mutex> lock(sh.m);
  const auto it = sh.map.find(key);
  if (it != sh.map.end()) {
    Shard::Entry& e = it->second;
    if (e.value != nullptr) {
      sh.lru.splice(sh.lru.begin(), sh.lru, e.lru_it);
      e.touched = std::chrono::steady_clock::now();
      hits_.fetch_add(1, std::memory_order_relaxed);
      touch_heat(heat, key, /*hit=*/true);
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

  // Cold tile: this thread becomes the decode leader for the key.
  const auto inflight = std::make_shared<Shard::InFlight>();
  sh.map.emplace(key, Shard::Entry{nullptr, inflight, {}, 0, {}});
  misses_.fetch_add(1, std::memory_order_relaxed);
  touch_heat(heat, key, /*hit=*/false);
  if (obs::Trace* tr = obs::Trace::current()) ++tr->cache_misses;
  lock.unlock();

  std::shared_ptr<const Field> value;
  try {
    const ArchiveFieldInfo& info = reader->fields()[key.field];
    // Anchor tiles resolve back through the cache, so a cross-field decode
    // both reuses and populates the anchor's entries.
    const TileFetch fetch = [this, &key, &reader, heat](
                                const ArchiveFieldInfo& anchor,
                                std::size_t ord) {
      const auto& fields = reader->fields();
      const std::size_t idx = static_cast<std::size_t>(&anchor - fields.data());
      if (idx >= fields.size())
        throw InvalidArgument("TileCache: anchor info not from this archive");
      return get_by_key(
          reader, heat,
          Key{key.archive, static_cast<std::uint32_t>(idx), ord});
    };
    value = std::make_shared<const Field>(
        reader->read_tile(info, key.ordinal, fetch));
  } catch (...) {
    decode_errors_.fetch_add(1, std::memory_order_relaxed);
    {
      // Drop the pending entry and negatively cache the failure: followers
      // already waiting get the error through the in-flight rendezvous;
      // later requests hit the cached entry until its TTL lapses. Only if
      // the pending entry is still *ours* (same in-flight object) — an
      // invalidate may have erased it mid-decode, in which case the failure
      // belongs to a superseded tile and must not be cached.
      const std::lock_guard<std::mutex> relock(sh.m);
      const auto pit = sh.map.find(key);
      const bool ours =
          pit != sh.map.end() && pit->second.inflight == inflight;
      if (ours) sh.map.erase(pit);
      if (ours && negative_ttl_ms_ != 0) {
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
    // Publish only if the pending entry is still ours: an invalidate that
    // raced this decode erased it (the tile's source changed), and blindly
    // re-inserting here would resurrect a stale tile. Waiters still get
    // this value through the rendezvous below — their request predates the
    // invalidation, so pre-invalidate data is a consistent answer for it.
    const auto pit = sh.map.find(key);
    if (pit != sh.map.end() && pit->second.inflight == inflight) {
      Shard::Entry& e = pit->second;
      e.value = value;
      e.inflight.reset();
      e.bytes = entry_bytes;
      e.touched = std::chrono::steady_clock::now();
      sh.lru.push_front(key);
      e.lru_it = sh.lru.begin();
      sh.bytes += entry_bytes;
      // Evict cold tail entries down to budget. The entry just inserted is
      // never the victim (it is at the front and the loop keeps >= 1
      // entry), so even a tile bigger than the whole budget serves from
      // cache while it is the hot one.
      while (sh.bytes > sh.budget && sh.lru.size() > 1) {
        const Key victim = sh.lru.back();
        const auto vit = sh.map.find(victim);
        sh.bytes -= vit->second.bytes;
        sh.map.erase(vit);
        sh.lru.pop_back();
        evictions_.fetch_add(1, std::memory_order_relaxed);
      }
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

std::size_t TileCache::erase_key_locked(Shard& sh, const Key& key) {
  std::size_t removed = 0;
  const auto it = sh.map.find(key);
  if (it != sh.map.end()) {
    if (it->second.value != nullptr) {
      sh.bytes -= it->second.bytes;
      sh.lru.erase(it->second.lru_it);
    }
    // A pending entry (value null, decode in flight) is erased too; the
    // leader's identity check keeps it from re-publishing the stale tile.
    sh.map.erase(it);
    ++removed;
  }
  const auto nit = sh.neg.find(key);
  if (nit != sh.neg.end()) {
    sh.neg_order.erase(nit->second.order_it);
    sh.neg.erase(nit);
    ++removed;
  }
  return removed;
}

std::size_t TileCache::invalidate(std::uint64_t archive_id,
                                  std::size_t field_index) {
  // Keys are hash-scattered across shards, so a field-wide invalidate must
  // walk every shard's maps. Ingest-frequency operation, not hot path.
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n_shards_; ++i) {
    Shard& sh = shards_[i];
    const std::lock_guard<std::mutex> lock(sh.m);
    std::vector<Key> doomed;
    for (const auto& [key, entry] : sh.map)
      if (key.archive == archive_id && key.field == field_index)
        doomed.push_back(key);
    for (const auto& [key, entry] : sh.neg)
      if (key.archive == archive_id && key.field == field_index &&
          sh.map.find(key) == sh.map.end())
        doomed.push_back(key);
    for (const Key& key : doomed) removed += erase_key_locked(sh, key);
  }
  return removed;
}

std::size_t TileCache::invalidate_tile(std::uint64_t archive_id,
                                       std::size_t field_index,
                                       std::size_t ordinal) {
  const Key key{archive_id, static_cast<std::uint32_t>(field_index), ordinal};
  Shard& sh = shard_for(key);
  const std::lock_guard<std::mutex> lock(sh.m);
  return erase_key_locked(sh, key);
}

TileCacheStats TileCache::stats() const {
  TileCacheStats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
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
  }
  return s;
}

}  // namespace xfc::server
