#include "archive/repair.hpp"

#include <map>
#include <set>

#include "archive/archive_writer.hpp"
#include "archive/tile.hpp"
#include "core/error.hpp"
#include "sz/classic.hpp"
#include "sz/compressor.hpp"
#include "sz/interpolation.hpp"
#include "zfp/zfp_codec.hpp"

namespace xfc {
namespace {

/// Re-encodes a zero-filled tile through the field's own codec at its
/// stored absolute bound — the replacement body for a damaged plain tile.
std::vector<std::uint8_t> encode_fill_tile(const ArchiveFieldInfo& info,
                                           const TileBox& box) {
  const Field tile(info.name, F32Array(box.extents));  // zero-initialised
  switch (info.codec) {
    case CodecId::kSz: {
      SzOptions o;
      o.eb = ErrorBound::absolute(info.abs_eb);
      return sz_compress(tile, o);
    }
    case CodecId::kSzClassic: {
      ClassicOptions o;
      o.eb = ErrorBound::absolute(info.abs_eb);
      return classic_compress(tile, o);
    }
    case CodecId::kInterp: {
      InterpOptions o;
      o.eb = ErrorBound::absolute(info.abs_eb);
      return interp_compress(tile, o);
    }
    case CodecId::kZfp: {
      ZfpOptions o;
      o.tolerance = info.abs_eb;
      return zfp_compress(tile, o);
    }
    case CodecId::kCrossField:
      break;  // cross-field tiles are never patched (see header)
  }
  throw InvalidArgument("archive repair: cannot fill-encode this codec");
}

/// True when `name` and its whole transitive anchor closure have zero
/// damaged tiles — the precondition for keeping a cross-field target.
/// Memoised; the reader validated the anchor graph at open, so the
/// recursion walks a DAG.
bool closure_ok(const ArchiveReader& in, const std::string& name,
                const std::map<std::string, std::set<std::size_t>>& bad,
                std::map<std::string, bool>& memo) {
  const auto m = memo.find(name);
  if (m != memo.end()) return m->second;
  bool ok = bad.count(name) == 0;
  for (const std::string& a : in.find(name)->anchors)
    ok = ok && closure_ok(in, a, bad, memo);
  memo.emplace(name, ok);
  return ok;
}

}  // namespace

RepairReport archive_repair(const ArchiveReader& in, ByteSink& out) {
  RepairReport report;
  report.scrub = in.scrub();

  // Damage map: field name -> set of damaged tile ordinals.
  std::map<std::string, std::set<std::size_t>> bad_tiles;
  for (const ArchiveTileError& e : report.scrub.errors)
    bad_tiles[e.field].insert(e.ordinal);

  std::map<std::string, bool> closure_memo;
  ArchiveWriter writer(out);

  for (const ArchiveFieldInfo& info : in.fields()) {
    RepairFieldOutcome outcome;
    outcome.name = info.name;
    outcome.tiles_total = info.tiles.size();
    const auto bit = bad_tiles.find(info.name);
    const std::set<std::size_t> empty;
    const std::set<std::size_t>& bad =
        bit == bad_tiles.end() ? empty : bit->second;

    if (info.cross_field) {
      if (closure_ok(in, info.name, bad_tiles, closure_memo)) {
        writer.add_prebuilt_field(info, [&](std::size_t t) {
          return in.read_tile_bytes(info, t);
        });
        outcome.action = RepairFieldOutcome::Action::kIntact;
        outcome.tiles_salvaged = info.tiles.size();
      } else {
        outcome.action = RepairFieldOutcome::Action::kDropped;
        outcome.reason =
            bad.empty()
                ? "anchor closure damaged: residuals would decode against "
                  "the wrong reconstruction"
                : "cross-field target has damaged tiles and cannot be "
                  "re-encoded without its original data";
        ++report.fields_dropped;
      }
    } else if (bad.empty()) {
      writer.add_prebuilt_field(info, [&](std::size_t t) {
        return in.read_tile_bytes(info, t);
      });
      outcome.action = RepairFieldOutcome::Action::kIntact;
      outcome.tiles_salvaged = info.tiles.size();
    } else {
      const TileGrid grid(info.shape, info.tile);
      writer.add_prebuilt_field(info, [&](std::size_t t) {
        if (bad.count(t) != 0) return encode_fill_tile(info, grid.box(t));
        return in.read_tile_bytes(info, t);
      });
      outcome.action = RepairFieldOutcome::Action::kPatched;
      outcome.tiles_salvaged = info.tiles.size() - bad.size();
      outcome.patched_tiles.assign(bad.begin(), bad.end());
    }

    report.tiles_salvaged += outcome.tiles_salvaged;
    report.tiles_patched += outcome.patched_tiles.size();
    report.fields.push_back(std::move(outcome));
  }

  writer.finish();
  return report;
}

}  // namespace xfc
