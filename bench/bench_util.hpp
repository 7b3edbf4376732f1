#ifndef XFC_BENCH_BENCH_UTIL_HPP
#define XFC_BENCH_BENCH_UTIL_HPP

/// Shared experiment-harness plumbing for the paper-reproduction benches:
/// command-line flags, bench-scale dataset dimensions, model training with
/// the Table III configurations, and table printing.
///
/// Every bench accepts:
///   --full        paper-scale dimensions + paper-scale CFNN widths
///                 (hours, matches Table I dims exactly)
///   --seed N      dataset synthesis seed (default 2024)
///   --outdir D    artifact directory (default ./xfc_artifacts)
///   --profile F   sample CPU at 97 Hz for the whole run; folded stacks
///                 (flamegraph.pl input) land in F at exit
///
/// Note on the anchor protocol: benches pass the *original* anchor fields
/// to both compressor and decompressor (the decoder contract only requires
/// identical bytes on both sides). MultiFieldCompressor demonstrates the
/// reconstructed-anchor protocol; the CR differences are negligible at
/// these bounds, and this choice lets one CFNN inference serve the whole
/// error-bound sweep.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "cfnn/difference.hpp"
#include "crossfield/crossfield.hpp"
#include "data/dataset.hpp"
#include "obs/profiler.hpp"

namespace xfc::bench {

struct BenchOptions {
  bool full = false;
  bool smoke = false;  // min of 3 calls per stage (the bench-smoke ctest)
  std::uint64_t seed = 2024;
  std::string outdir = "xfc_artifacts";
  std::string profile;  // --profile FILE|- : folded CPU samples at exit
};

/// --profile destination, stashed for the atexit writer (atexit takes a
/// plain function pointer, so the path cannot ride a capture).
inline std::string& profile_path() {
  static std::string path;
  return path;
}

inline void write_profile_at_exit() {
  const obs::ProfileReport report = obs::profiler_disarm();
  const std::string& path = profile_path();
  std::FILE* f = path == "-" ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
    return;
  }
  std::fwrite(report.folded.data(), 1, report.folded.size(), f);
  if (f != stdout) std::fclose(f);
  std::fprintf(stderr,
               "profile: %llu samples (%llu dropped) from %u thread(s) "
               "-> %s\n",
               static_cast<unsigned long long>(report.samples),
               static_cast<unsigned long long>(report.dropped),
               report.threads, path.c_str());
}

inline BenchOptions parse_args(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--full") {
      opt.full = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--seed" && i + 1 < argc) {
      opt.seed = std::stoull(argv[++i]);
    } else if (arg == "--outdir" && i + 1 < argc) {
      opt.outdir = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      opt.profile = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "flags: --full  --smoke  --seed N  --outdir DIR  --profile F\n");
      std::exit(0);
    }
  }
  if (opt.smoke) bench_smoke_calls() = 3;
  if (!opt.profile.empty()) {
    profile_path() = opt.profile;
    if (obs::profiler_arm({}))
      std::atexit(write_profile_at_exit);
    else
      std::fprintf(stderr, "warning: --profile ignored (already armed)\n");
  }
  std::filesystem::create_directories(opt.outdir);
  return opt;
}

/// Bench-scale dimensions: large enough that the embedded model is a small
/// fraction of the stream, small enough for minutes-not-hours runtimes.
inline Shape bench_dims(DatasetKind kind, bool full) {
  if (full) return paper_dims(kind);
  switch (kind) {
    case DatasetKind::kScale: return Shape{16, 256, 256};
    case DatasetKind::kCesm: return Shape{768, 1536};
    case DatasetKind::kHurricane: return Shape{32, 192, 192};
  }
  return Shape{64, 64};
}

inline CfnnTrainOptions bench_train(bool full) {
  CfnnTrainOptions t;
  t.epochs = full ? 30 : 12;
  t.patches_per_epoch = full ? 512 : 160;
  t.patch = 32;
  t.batch = 16;
  t.learning_rate = 1e-3;
  return t;
}

/// A dataset plus the trained CFNN for each Table III target.
struct PreparedTarget {
  TargetSpec spec;
  const Field* target = nullptr;
  std::vector<const Field*> anchors;
  CfnnModel model{1, 1, CfnnConfig{8, 8, 3}, 0};
  nn::Tensor diff_predictions;  // model.infer on the anchor differences
};

struct PreparedDataset {
  Dataset dataset;
  std::vector<PreparedTarget> targets;
};

/// Synthesises a dataset and trains one CFNN per Table III target.
inline PreparedDataset prepare_dataset(DatasetKind kind,
                                       const BenchOptions& opt,
                                       bool train_models = true) {
  PreparedDataset out{make_dataset(kind, bench_dims(kind, opt.full),
                                   opt.seed),
                      {}};
  for (const auto& spec : table3_targets(kind, opt.full)) {
    PreparedTarget pt;
    pt.spec = spec;
    pt.target = out.dataset.find(spec.target);
    for (const auto& name : spec.anchors)
      pt.anchors.push_back(out.dataset.find(name));
    if (train_models) {
      std::printf("  [train] %s/%s ...\n", out.dataset.name.c_str(),
                  spec.target.c_str());
      std::fflush(stdout);
      pt.model = train_cross_field_model(*pt.target, pt.anchors, spec.cfnn,
                                         bench_train(opt.full));
      const nn::Tensor anchor_diffs =
          fields_to_difference_tensor(pt.anchors);
      pt.diff_predictions = pt.model.infer(anchor_diffs);
    }
    out.targets.push_back(std::move(pt));
  }
  return out;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

/// The paper's Table II error-bound grid.
inline std::vector<double> table2_bounds() {
  return {5e-3, 2e-3, 1e-3, 5e-4, 2e-4};
}

}  // namespace xfc::bench

#endif  // XFC_BENCH_BENCH_UTIL_HPP
