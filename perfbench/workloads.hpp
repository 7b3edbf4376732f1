#ifndef XFC_PERFBENCH_WORKLOADS_HPP
#define XFC_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>

#include "common.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outdir = ".";  // archives and the trace file
};

/// Outcome of a workload run besides its metrics.
enum class RunStatus { kOk, kInvalid };

/// Snapshot ingest: train, write the Table II grid durably, write the
/// baseline targets, restore with read_all, read regions and append live
/// epochs straight through the archive API.
RunStatus run_ingest(const Options& opt, Report& rep);

/// Region serving over HTTP, with PUTs replacing a live field beside the
/// reads: `hot` keeps every tile it reads cached, revalidates a share of
/// requests and never reads the live field; otherwise the cache holds a
/// quarter of the decoded working set and the live field is read too.
RunStatus run_serve(const Options& opt, bool hot, Report& rep);

}  // namespace pb

#endif  // XFC_PERFBENCH_WORKLOADS_HPP
