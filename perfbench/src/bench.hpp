// bench.hpp — declarations shared by the workloads (workloads.cpp), the
// per-layer probes (probes.cpp) and the command line (main.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

#include "kernels/kernel_config.hpp"
#include "sparklet/cluster.hpp"
#include "util.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes of every workload (the benchmark's own tests).
  bool smoke = false;
  /// Corrupt one checked entry of the first timed output (self-test: the
  /// run must count it as a failed operation).
  bool corrupt = false;
  /// Directory for spill files and the Chrome trace (inside the checkout).
  std::string out_dir = ".bench_build/run";
};

/// Problem sizes. The full sizes are the benchmark; smoke sizes exercise the
/// same code paths in well under a second per workload.
struct Sizes {
  std::size_t fw_n = 2048, fw_b = 256;
  std::size_t fine_n = 1024, fine_b = 32;
  std::size_t gap_n = 384, gap_b = 48;
  std::size_t serve_n = 256, serve_b = 64;
  int serve_queries = 200;   ///< point queries per served job
  /// Jobs a serve run takes per second of its window: the loop runs a
  /// fixed count, 4,375 for a 25 s window (16-27 s at 160-280 jobs/s).
  double serve_jobs_per_s = 175.0;
  int inputs_per_kind = 4;   ///< serve request pool per problem kind
  /// Solves a batch run times per second of its window: a fixed count,
  /// 40 / 50 / 15 for a 25 s window, about one window at the speed of a
  /// 4-vCPU AVX-512 Xeon VM.
  double fw_solves_per_s = 1.6;
  double fine_solves_per_s = 2.0;
  double gap_solves_per_s = 0.6;
  int setups = 3;            ///< setup repetitions (setup_s is their mean)
  int min_solves = 5;        ///< batch runs time at least this many solves
  double probe_s = 0.02;     ///< minimum length of one probe repetition

  static Sizes full() { return Sizes{}; }
  static Sizes smoke() {
    Sizes s;
    s.fw_n = 256;
    s.fw_b = 64;
    s.fine_n = 128;
    s.fine_b = 16;
    s.gap_n = 64;
    s.gap_b = 16;
    s.serve_n = 64;
    s.serve_b = 16;
    s.serve_queries = 20;
    s.serve_jobs_per_s = 50.0;
    s.inputs_per_kind = 2;
    s.setups = 2;
    s.min_solves = 2;
    s.probe_s = 0.002;
    return s;
  }
};

/// The one kernel configuration every workload runs: the paper's r-way
/// R-DP kernel (r_shared = 4), one OpenMP thread, SIMD base case.
inline gs::KernelConfig bench_kernel() {
  return gs::KernelConfig::recursive(4, 1).with_base(gs::KernelBase::kSimd);
}

/// ClusterConfig::local with spill files kept under the run directory.
inline sparklet::ClusterConfig bench_cluster(const Args& a, int nodes, int cores) {
  sparklet::ClusterConfig c = sparklet::ClusterConfig::local(nodes, cores);
  c.spill_dir = a.out_dir + "/spill";
  return c;
}

/// Single-thread kernel rates (updates/s) for one spec at one tile side.
struct KernelRates {
  double a = 0, b = 0, c = 0, d = 0;
  /// Combined A/B/C rate: three calls' updates over their summed time.
  double abc() const { return 3.0 / (1.0 / a + 1.0 / b + 1.0 / c); }
};

/// The GEP problems the benchmark solves (also indexes per-kind arrays).
enum SpecKind : int { kFw = 0, kGe = 1, kTc = 2 };

/// Measured once per (spec, b) per process and memoised. Only FW measures
/// A/B/C; GE and TC measure D and use it for every kind.
const KernelRates& kernel_rates(SpecKind spec, std::size_t b, const Sizes& sz,
                                SpanLog& log);

/// Estimated single-thread kernel seconds of one GEP solve: each tile
/// kernel call counted as b³ updates at the measured rate of its kind.
double gep_kernel_seconds(SpecKind spec, std::size_t n, std::size_t b,
                          const KernelRates& rates);

/// Layer probes shared by every traced run: kernels, nested, sparklet.
void probe_layers(const Args& a, const Sizes& sz, SpanLog& log, RunResult& out);

/// Run one workload; fills end_to_end (untraced) or per_layer (traced).
RunResult run_workload(const Args& a, const Sizes& sz, SpanLog& log);

}  // namespace perfbench
