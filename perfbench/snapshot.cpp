#include "snapshot.hpp"

#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>

#include "archive/tile.hpp"
#include "cfnn/difference.hpp"
#include "crossfield/crossfield.hpp"
#include "encode/backend.hpp"
#include "metrics/metrics.hpp"
#include "obs/metrics.hpp"
#include "sz/compressor.hpp"
#include "sz/fused_encode.hpp"

namespace pb {

using namespace xfc;

const std::vector<double>& table2_bounds() {
  static const std::vector<double> bounds{5e-3, 2e-3, 1e-3, 5e-4, 2e-4};
  return bounds;
}

bool Snapshot::is_target(const std::string& name) const {
  for (const TargetSpec& t : targets)
    if (t.target == name) return true;
  return false;
}

double Snapshot::raw_bytes() const {
  double total = 0.0;
  for (const Field& f : ds.fields)
    total += static_cast<double>(f.size() * sizeof(float));
  return total;
}

const Field& Snapshot::field(const std::string& name) const {
  const Field* f = ds.find(name);
  if (f == nullptr) throw std::runtime_error("snapshot has no field " + name);
  return *f;
}

Snapshot make_snapshot(std::uint64_t seed) {
  Span span("data.synthesize");
  Snapshot snap;
  snap.seed = seed;
  snap.ds = make_dataset(DatasetKind::kCesm, Shape{kHeight, kWidth}, seed);
  snap.targets = table3_targets(DatasetKind::kCesm, /*paper_scale=*/false);
  return snap;
}

CfnnTrainOptions train_options(std::uint64_t seed) {
  // A fifth of the repository benches' 12 x 160 patch schedule: the CFNNs
  // still learn the cross-field structure, and training stays a few
  // seconds so it fits inside every serve workload's set-up.
  CfnnTrainOptions t;
  t.epochs = 6;
  t.patches_per_epoch = 64;
  t.patch = 32;
  t.batch = 16;
  t.learning_rate = 1e-3;
  t.seed = 0x5EED ^ seed;
  return t;
}

void train_models(Snapshot& snap) {
  Span span("cfnn.train");
  snap.models.clear();
  const CfnnTrainOptions opts = train_options(snap.seed);
  for (const TargetSpec& spec : snap.targets) {
    std::vector<const Field*> anchors;
    for (const std::string& a : spec.anchors) anchors.push_back(&snap.field(a));
    Span target_span("cfnn.train_target");
    snap.models.emplace(spec.target,
                        train_cross_field_model(snap.field(spec.target),
                                                anchors, spec.cfnn, opts));
  }
}

std::uint64_t train_steps_so_far() {
  return obs::train_step_us().snapshot().count;
}

MultiFieldCompressor make_compressor(const Snapshot& snap) {
  MultiFieldCompressor mfc;
  for (const Field& f : snap.ds.fields) mfc.add_field(f);
  for (const TargetSpec& t : snap.targets)
    mfc.configure_target(
        t.target, AnchorConfig{t.anchors, t.cfnn, train_options(snap.seed)});
  return mfc;
}

void prime_compressor(MultiFieldCompressor& mfc) {
  Span span("cfnn.prime");
  VectorSink sink;
  ArchiveWriter writer(sink);
  mfc.write_archive(writer, ErrorBound::relative(table2_bounds().front()));
  writer.finish();
}

namespace {

WriteTimes durable_write(const std::string& path, IoCounters& io,
                         const std::function<void(ArchiveWriter&)>& body) {
  WriteTimes t;
  {
    FileSink file(path);
    CountingSink sink(file, io);
    ArchiveWriter writer(sink);
    {
      Span span("archive.write");
      body(writer);
      t.write_s = span.stop();
    }
    Span span("archive.finish");
    writer.finish();
    t.finish_s = span.stop();
  }
  t.file_bytes = std::filesystem::file_size(path);
  return t;
}

}  // namespace

WriteTimes write_archive_file(const std::string& path,
                              MultiFieldCompressor& mfc, double rel_eb,
                              IoCounters& io) {
  return durable_write(path, io, [&](ArchiveWriter& w) {
    mfc.write_archive(w, ErrorBound::relative(rel_eb));
  });
}

WriteTimes write_baseline_file(const std::string& path, const Snapshot& snap,
                               double rel_eb, IoCounters& io) {
  return durable_write(path, io, [&](ArchiveWriter& w) {
    ArchiveFieldOptions opts;
    opts.eb = ErrorBound::relative(rel_eb);
    for (const TargetSpec& t : snap.targets) w.add_field(snap.field(t.target), opts);
  });
}

ReadBack read_archive_file(const std::string& path) {
  ReadBack rb;
  Span open_span("archive.open");
  const ArchiveReader reader = ArchiveReader::open_file(path);
  rb.open_s = open_span.stop();
  Span read_span("archive.read_all");
  rb.fields = reader.read_all();
  rb.read_s = read_span.stop();
  return rb;
}

void check_bounds(const Snapshot& snap, const std::vector<Field>& decoded,
                  double rel_eb, const std::string& what, Report& rep) {
  std::size_t seen = 0;
  for (const Field& d : decoded) {
    const Field* orig = snap.ds.find(d.name());
    if (orig == nullptr) continue;  // appended fields are checked elsewhere
    ++seen;
    rep.attempt();
    const double abs_eb =
        ErrorBound::relative(rel_eb).absolute_for(orig->value_range());
    const double err = max_error(*orig, d);
    if (!(err <= bound_tolerance(abs_eb, *orig))) {
      char msg[256];
      std::snprintf(msg, sizeof msg,
                    "%s: field %s max error %.9g exceeds bound %.9g",
                    what.c_str(), d.name().c_str(), err, abs_eb);
      rep.fail(msg);
    }
  }
  if (seen != snap.ds.fields.size()) {
    rep.attempt();
    rep.fail(what + ": decoded archive is missing snapshot fields");
  }
}

Quality quality(const Snapshot& snap, const std::string& xf_path,
                const std::string& baseline_path,
                const std::vector<Field>& decoded) {
  Quality q;
  const ArchiveReader xf = ArchiveReader::open_file(xf_path);
  const ArchiveReader base = ArchiveReader::open_file(baseline_path);
  const auto file_bytes = static_cast<double>(std::filesystem::file_size(xf_path));
  q.ratio = snap.raw_bytes() / file_bytes;
  std::uint64_t body_bytes = 0, xf_bytes = 0, base_bytes = 0;
  for (const ArchiveFieldInfo& f : xf.fields()) {
    body_bytes += f.compressed_bytes();
    if (snap.is_target(f.name)) xf_bytes += f.compressed_bytes();
  }
  for (const ArchiveFieldInfo& f : base.fields()) base_bytes += f.compressed_bytes();
  q.index_bytes = static_cast<std::uint64_t>(file_bytes) - body_bytes;
  q.xf_gain_pct = 100.0 * static_cast<double>(base_bytes) /
                  static_cast<double>(xf_bytes);
  double psnr_sum = 0.0;
  std::size_t n = 0;
  for (const Field& d : decoded) {
    const Field* orig = snap.ds.find(d.name());
    if (orig == nullptr) continue;
    psnr_sum += psnr(*orig, d);
    ++n;
  }
  q.psnr_db = n == 0 ? 0.0 : psnr_sum / static_cast<double>(n);
  return q;
}

namespace {

void check_one(const Field& orig, const Field& recon, double abs_eb,
               const std::string& what, Report& rep) {
  rep.attempt();
  const double err = max_error(orig, recon);
  if (!(err <= bound_tolerance(abs_eb, orig))) {
    char msg[256];
    std::snprintf(msg, sizeof msg, "%s: max error %.9g exceeds bound %.9g",
                  what.c_str(), err, abs_eb);
    rep.fail(msg);
  }
}

}  // namespace

void run_codec_probes(const Snapshot& snap, const std::string& archive_path,
                      Report& rep) {
  SzOptions sz_opts;
  sz_opts.eb = ErrorBound::relative(kServeEb);
  CrossFieldOptions xf_opts;
  xf_opts.eb = ErrorBound::relative(kServeEb);

  // SZ baseline over every field; its reconstructions are the anchors the
  // cross-field probes see (dual quantization makes them decoder-exact).
  std::map<std::string, Field> recon;
  std::map<std::string, std::size_t> sz_bytes;
  double sz_c = 0.0, sz_d = 0.0;
  std::uint64_t sz_total = 0;
  for (const Field& f : snap.ds.fields) {
    SzStats stats;
    Span c("sz.compress");
    const std::vector<std::uint8_t> stream = sz_compress(f, sz_opts, &stats);
    sz_c += c.stop();
    Span d("sz.decompress");
    Field out = sz_decompress(stream);
    sz_d += d.stop();
    check_one(f, out, stats.abs_eb, "sz probe " + f.name(), rep);
    sz_bytes[f.name()] = stream.size();
    sz_total += stream.size();
    recon.emplace(f.name(), std::move(out));
  }
  rep.set("sz.compress_ms", sz_c * 1e3, "ms");
  rep.set("sz.decompress_ms", sz_d * 1e3, "ms");
  rep.set("sz.bytes", static_cast<double>(sz_total), "bytes");

  // Lossless tail over each plain field's fused Lorenzo payload.
  double ll_s = 0.0, payload = 0.0, packed = 0.0;
  for (const Field& f : snap.ds.fields) {
    if (snap.is_target(f.name())) continue;
    const double abs_eb = sz_opts.eb.absolute_for(f.value_range());
    const FusedLorenzoEncode enc = fused_lorenzo_encode(
        f.array(), abs_eb, LorenzoOrder::kOne, kDefaultQuantRadius);
    Span span("encode.lossless");
    const std::vector<std::uint8_t> out = lossless_compress(enc.payload);
    ll_s += span.stop();
    payload += static_cast<double>(enc.payload.size());
    packed += static_cast<double>(out.size());
  }
  rep.set("encode.lossless_ms", ll_s * 1e3, "ms");
  rep.set("encode.lossless_ratio", payload / packed, "x");

  // Monolithic cross-field coding of each target (untiled Table II cell).
  double infer_s = 0.0, analyze_s = 0.0, comp_s = 0.0, decomp_s = 0.0;
  std::uint64_t xf_total = 0, base_total = 0, model_bytes = 0;
  for (const TargetSpec& spec : snap.targets) {
    const Field& target = snap.field(spec.target);
    const CfnnModel& model = snap.models.at(spec.target);
    model_bytes += model.save_bytes().size();
    std::vector<const Field*> anchors;
    for (const std::string& a : spec.anchors) anchors.push_back(&recon.at(a));
    const nn::Tensor diffs = fields_to_difference_tensor(anchors);
    {
      Span span("cfnn.infer");
      const nn::Tensor pred = model.infer(diffs);
      infer_s += span.stop();
    }
    {
      Span span("crossfield.analyze");
      const CrossFieldAnalysis a =
          cross_field_analyze(target, anchors, model, xf_opts);
      analyze_s += span.stop();
    }
    SzStats stats;
    Span c("crossfield.compress");
    const std::vector<std::uint8_t> stream =
        cross_field_compress(target, anchors, model, xf_opts, &stats);
    comp_s += c.stop();
    Span d("crossfield.decompress");
    const Field out = cross_field_decompress(stream, anchors);
    decomp_s += d.stop();
    check_one(target, out, stats.abs_eb, "cross-field probe " + spec.target,
              rep);
    xf_total += stream.size();
    base_total += sz_bytes.at(spec.target);
  }
  rep.set("cfnn.infer_ms", infer_s * 1e3, "ms");
  rep.set("cfnn.model_bytes", static_cast<double>(model_bytes), "bytes");
  rep.set("crossfield.analyze_ms", analyze_s * 1e3, "ms");
  rep.set("crossfield.compress_ms", comp_s * 1e3, "ms");
  rep.set("crossfield.decompress_ms", decomp_s * 1e3, "ms");
  rep.set("crossfield.mono_gain_pct",
          100.0 * static_cast<double>(base_total) / static_cast<double>(xf_total),
          "%");

  // Single-tile decodes straight off the archive file (no cache): every
  // tile of every snapshot field; cross-field tiles decode their anchor
  // tiles too, as a cold serve miss does.
  const ArchiveReader reader = ArchiveReader::open_file(archive_path);
  std::vector<double> plain_ms, xf_ms;
  for (const ArchiveFieldInfo& info : reader.fields()) {
    const Field* orig = snap.ds.find(info.name);
    if (orig == nullptr) continue;
    const TileGrid grid(info.shape, info.tile);
    for (std::size_t t = 0; t < info.tiles.size(); ++t) {
      Span span(info.cross_field ? "archive.tile_decode.xf"
                                 : "archive.tile_decode.plain");
      const Field tile = reader.read_tile(info, t);
      (info.cross_field ? xf_ms : plain_ms).push_back(span.stop() * 1e3);
      const Field want(info.name, extract_tile(orig->array(), grid.box(t)));
      check_one(want, tile, info.abs_eb,
                "tile " + std::to_string(t) + " of " + info.name, rep);
    }
  }
  rep.set("archive.tile_decode_ms.plain", median(plain_ms), "ms");
  rep.set("archive.tile_decode_ms.xf", median(xf_ms), "ms");
}

}  // namespace pb
