#ifndef XFC_PERFBENCH_SNAPSHOT_HPP
#define XFC_PERFBENCH_SNAPSHOT_HPP

/// The benchmark's input: a CESM-ATM-like snapshot synthesised from the
/// run's seed, its Table III cross-field targets and their CFNNs, and the
/// calls that write, read and check XFA1 archives of it. Every call into a
/// layer of xfc goes through a pb::Span, so a traced run sees it.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "archive/archive_reader.hpp"
#include "archive/archive_writer.hpp"
#include "common.hpp"
#include "crossfield/multifield.hpp"
#include "data/dataset.hpp"

namespace pb {

/// Snapshot grid: half the repository's 768x1536 bench scale per axis, so a
/// serve workload can build its archive three times inside one run.
inline constexpr std::size_t kHeight = 384;
inline constexpr std::size_t kWidth = 768;
/// Bound of the served archive and of the ratio metrics.
inline constexpr double kServeEb = 1e-3;
/// Paper Table II relative-bound grid.
const std::vector<double>& table2_bounds();

struct Snapshot {
  std::uint64_t seed = 0;
  xfc::Dataset ds;
  std::vector<xfc::TargetSpec> targets;  // Table III CESM rows
  std::map<std::string, xfc::CfnnModel> models;

  bool is_target(const std::string& name) const;
  double raw_bytes() const;  // every field, float32
  const xfc::Field& field(const std::string& name) const;
};

/// Synthesises the snapshot (no models yet).
Snapshot make_snapshot(std::uint64_t seed);

/// CFNN training schedule of every workload (seeded from the run's seed).
xfc::CfnnTrainOptions train_options(std::uint64_t seed);

/// Trains one CFNN per target with train_cross_field_model.
void train_models(Snapshot& snap);

/// Optimizer steps taken so far in this process (the trainer's own
/// xfc_train_step_us histogram count).
std::uint64_t train_steps_so_far();

/// The program's own dataset-level writer over the snapshot: every field
/// registered, each Table III target configured with train_options(seed).
/// Its first write_archive trains the CFNNs; later calls reuse them, since
/// the compressor caches models per target.
xfc::MultiFieldCompressor make_compressor(const Snapshot& snap);

/// Trains `mfc`'s CFNNs by writing one archive into memory, so the timed
/// writes that follow exclude training.
void prime_compressor(xfc::MultiFieldCompressor& mfc);

struct WriteTimes {
  double write_s = 0.0;   // add_field / add_cross_field calls
  double finish_s = 0.0;  // footer + FileSink commit (fsync, rename, fsync dir)
  std::uint64_t file_bytes = 0;
};

/// Durable write of the whole snapshot to `path` through a CountingSink:
/// MultiFieldCompressor::write_archive, then ArchiveWriter::finish.
WriteTimes write_archive_file(const std::string& path,
                              xfc::MultiFieldCompressor& mfc, double rel_eb,
                              IoCounters& io);

/// The cross-field targets again, with the baseline codec (SZ, Lorenzo,
/// dual quantization) — the denominator of xf_gain_pct.
WriteTimes write_baseline_file(const std::string& path, const Snapshot& snap,
                               double rel_eb, IoCounters& io);

/// open_file + read_all, each under its own span.
struct ReadBack {
  double open_s = 0.0, read_s = 0.0;
  std::vector<xfc::Field> fields;
};
ReadBack read_archive_file(const std::string& path);

/// Checks every decoded snapshot field against its original at `rel_eb`
/// (resolved on the original's range, plus the half-ulp tolerance). One
/// attempted operation per field.
void check_bounds(const Snapshot& snap, const std::vector<xfc::Field>& decoded,
                  double rel_eb, const std::string& what, Report& rep);

/// Deterministic size and quality figures of one snapshot archive.
struct Quality {
  double ratio = 0.0;        // raw bytes / archive bytes
  double xf_gain_pct = 0.0;  // 100 * baseline target bytes / xf target bytes
  double psnr_db = 0.0;      // mean over the snapshot fields
  std::uint64_t index_bytes = 0;  // archive bytes that are not tile bodies
};
Quality quality(const Snapshot& snap, const std::string& xf_path,
                const std::string& baseline_path,
                const std::vector<xfc::Field>& decoded);

/// Per-layer probes of the codec layers on the snapshot at kServeEb:
/// CFNN inference, monolithic cross-field and SZ coding, the lossless tail,
/// and single-tile decodes of `archive_path`. Sets the matching per-layer
/// metrics in `rep` and checks every decode against its bound.
void run_codec_probes(const Snapshot& snap, const std::string& archive_path,
                      Report& rep);

}  // namespace pb

#endif  // XFC_PERFBENCH_SNAPSHOT_HPP
