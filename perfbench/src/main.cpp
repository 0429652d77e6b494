// perfbench — wall-clock benchmark of the GEP-on-Spark library.
//
//   perfbench --workload <fw_apsp|fw_fine_dataflow|gap_wavefront|serve_mixed>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--corrupt] [--out-dir <dir>]
//
// Prints human-readable lines, one `perfbench-info {...}` line (run
// metadata, per-operation samples, diagnostics) and, last, the result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones; a traced run also writes its spans as Chrome-trace JSON.
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.hpp"
#include "support/simd_vec.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--smoke] [--corrupt] [--out-dir DIR]\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + k);
      return argv[++i];
    };
    try {
      if (k == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (k == "--seed") {
        a.seed = std::stoull(value());
      } else if (k == "--seconds") {
        a.seconds = std::stod(value());
      } else if (k == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        a.trace = v == "1";
      } else if (k == "--smoke") {
        a.smoke = true;
      } else if (k == "--corrupt") {
        a.corrupt = true;
      } else if (k == "--out-dir") {
        a.out_dir = value();
      } else {
        usage("unknown argument " + k);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + k);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

/// Fixed integer loop on one thread: a host-speed diagnostic only, never
/// used to scale a metric.
double calibration_mops() {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  constexpr long kIters = 20'000'000;
  const auto t0 = Clock::now();
  for (long i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double dt = seconds_since(t0);
  if (x == 42) std::puts("");  // keep the loop observable
  return 1e-6 * double(kIters) / dt;
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += json_string(ms[i].name) + ": {\"value\": " + json_number(ms[i].value) +
           ", \"unit\": " + json_string(ms[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  const Sizes sz = a.smoke ? Sizes::smoke() : Sizes::full();

  RunResult res;
  std::map<std::string, std::string> meta;
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 1) load[0] = -1;
  meta["workload"] = json_string(a.workload);
  meta["seed"] = std::to_string(a.seed);
  meta["trace"] = a.trace ? "true" : "false";
  meta["smoke"] = a.smoke ? "true" : "false";
  meta["nproc"] = std::to_string(std::thread::hardware_concurrency());
  meta["omp_threads"] = std::to_string(omp_get_max_threads());
  meta["build_type"] = json_string(PERFBENCH_BUILD_TYPE);
  meta["simd_backend"] = json_string(gs::simd::backend_name());
  const char* sha = std::getenv("PERFBENCH_GIT_SHA");
  meta["git_sha"] = json_string(sha != nullptr ? sha : "unknown");
  meta["loadavg_1m"] = json_number(load[0]);
  meta["calibration_mops"] = json_number(calibration_mops());

  std::error_code ec;
  std::filesystem::create_directories(a.out_dir, ec);
  SpanLog log;
  try {
    res = run_workload(a, sz, log);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (a.trace) {
    const std::string path = gs::strfmt("%s/%s-seed%llu.trace.json", a.out_dir.c_str(),
                                        a.workload.c_str(),
                                        static_cast<unsigned long long>(a.seed));
    meta["trace_file"] = log.write_chrome(path) ? json_string(path) : "null";
    meta["trace_spans"] = std::to_string(log.size());
  }

  const std::vector<Metric>& metrics = a.trace ? res.per_layer : res.end_to_end;
  for (const Metric& m : metrics) {
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [k, v] : res.info) std::printf("# %s: %s\n", k.c_str(), v.c_str());

  std::string info = "{\"meta\": {";
  bool first = true;
  for (const auto& [k, v] : meta) {
    info += (first ? "" : ", ") + json_string(k) + ": " + v;
    first = false;
  }
  info += "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : res.info) {
    info += (first ? "" : ", ") + json_string(k) + ": " + json_string(v);
    first = false;
  }
  info += "}, \"samples\": {";
  first = true;
  for (const auto& [k, v] : res.samples) {
    info += (first ? "" : ", ") + json_string(k) + ": " + json_array(v);
    first = false;
  }
  info += "}}";
  std::printf("perfbench-info %s\n", info.c_str());

  if (res.attempted < 1 || metrics.empty()) {
    std::fprintf(stderr, "perfbench: no operation completed\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": %s}\n",
              res.failed == 0 ? "true" : "false", static_cast<long long>(res.attempted),
              static_cast<long long>(res.failed), metrics_json(metrics).c_str());
  return 0;
}
