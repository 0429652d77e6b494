// probes.cpp — per-layer probes. Each one times calls into a single layer's
// public functions, independent of the workload, so a traced run can tell
// which layer moved:
//   kernels  — single-thread GepKernels<Spec>::a/b/c/d rates;
//   nested   — gap_tile_kernel cells/s on one interior tile;
//   sparklet — no-op task graphs, a tile shuffle, a checkpoint, a stage.
// Every repetition is one span in the trace; each metric is the median rate
// over its repetitions.
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "baseline/nested_reference.hpp"
#include "bench.hpp"
#include "grid/tile.hpp"
#include "kernels/dispatch.hpp"
#include "nested/nested_kernels.hpp"
#include "semiring/gep_spec.hpp"
#include "sparklet/context.hpp"
#include "sparklet/partitioner.hpp"
#include "sparklet/rdd.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

constexpr int kReps = 5;

/// Median over kReps repetitions of `work_per_call / seconds per call`,
/// each repetition calling `fn` until it has run for at least `min_s`.
template <typename Fn>
double median_rate(SpanLog& log, const char* layer, const std::string& name,
                   double work_per_call, double min_s, Fn&& fn) {
  std::vector<double> rates;
  for (int rep = 0; rep < kReps; ++rep) {
    ScopedCall span(log, layer, name);
    const auto t0 = Clock::now();
    long calls = 0;
    double dt = 0.0;
    do {
      fn();
      ++calls;
      dt = seconds_since(t0);
    } while (dt < min_s);
    rates.push_back(work_per_call * double(calls) / dt);
  }
  return median(rates);
}

template <typename T>
gs::Tile<T> random_tile(std::size_t b, std::uint64_t seed, double lo, double hi) {
  gs::Tile<T> t(b, b);
  gs::Rng rng(seed);
  for (std::size_t i = 0; i < b; ++i) {
    for (std::size_t j = 0; j < b; ++j) {
      if constexpr (std::is_same_v<T, std::uint8_t>) {
        t(i, j) = static_cast<std::uint8_t>(rng.bernoulli(0.05));
      } else {
        t(i, j) = i == j ? hi * double(b) : rng.uniform(lo, hi);
      }
    }
  }
  return t;
}

template <typename Spec>
KernelRates measure_rates(std::size_t b, bool all_kinds, const Sizes& sz,
                          SpanLog& log, const std::string& tag) {
  using T = typename Spec::value_type;
  const gs::GepKernels<Spec> k(bench_kernel());
  gs::Tile<T> x = random_tile<T>(b, 1, 1.0, 100.0);
  const gs::Tile<T> u = random_tile<T>(b, 2, 1.0, 100.0);
  const gs::Tile<T> v = random_tile<T>(b, 3, 1.0, 100.0);
  const gs::Tile<T> w = random_tile<T>(b, 4, 1.0, 100.0);
  const double work = double(b) * double(b) * double(b);
  KernelRates r;
  r.d = median_rate(log, "kernels", tag + ".d", work, sz.probe_s,
                    [&] { k.d(x.span(), u.span(), v.span(), w.span()); });
  if (all_kinds) {
    r.a = median_rate(log, "kernels", tag + ".a", work, sz.probe_s,
                      [&] { k.a(x.span()); });
    r.b = median_rate(log, "kernels", tag + ".b", work, sz.probe_s,
                      [&] { k.b(x.span(), u.span(), w.span()); });
    r.c = median_rate(log, "kernels", tag + ".c", work, sz.probe_s,
                      [&] { k.c(x.span(), v.span(), w.span()); });
  } else {
    r.a = r.b = r.c = r.d;
  }
  return r;
}

}  // namespace

const KernelRates& kernel_rates(SpecKind spec, std::size_t b, const Sizes& sz,
                                SpanLog& log) {
  static std::map<std::pair<SpecKind, std::size_t>, KernelRates> memo;
  const auto key = std::make_pair(spec, b);
  auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  const std::string tag = gs::strfmt("b%zu", b);
  KernelRates r;
  switch (spec) {
    case kFw:
      r = measure_rates<gs::FloydWarshallSpec>(b, true, sz, log, "fw." + tag);
      break;
    case kGe:
      r = measure_rates<gs::GaussianEliminationSpec>(b, false, sz, log, "ge." + tag);
      break;
    case kTc:
      r = measure_rates<gs::TransitiveClosureSpec>(b, false, sz, log, "tc." + tag);
      break;
  }
  return memo.emplace(key, r).first->second;
}

double gep_kernel_seconds(SpecKind spec, std::size_t n, std::size_t b,
                          const KernelRates& rates) {
  const double r = std::ceil(double(n) / double(b));
  double na = 0, nb = 0, nd = 0;  // tile kernel calls; C calls equal B calls
  if (spec == kGe) {
    for (double k = 0; k < r; ++k) {  // strict: only tiles below/right of k
      const double m = r - k - 1;
      na += 1;
      nb += m;
      nd += m * m;
    }
  } else {
    na = r;
    nb = r * (r - 1);
    nd = r * (r - 1) * (r - 1);
  }
  const double b3 = double(b) * double(b) * double(b);
  return b3 * (na / rates.a + nb / rates.b + nb / rates.c + nd / rates.d);
}

namespace {

void probe_kernels(const Sizes& sz, SpanLog& log, RunResult& out) {
  const KernelRates& fw256 = kernel_rates(kFw, 256, sz, log);
  const KernelRates& fw32 = kernel_rates(kFw, 32, sz, log);
  const KernelRates& fw64 = kernel_rates(kFw, 64, sz, log);
  const KernelRates& ge64 = kernel_rates(kGe, 64, sz, log);
  const KernelRates& tc64 = kernel_rates(kTc, 64, sz, log);
  out.layer("kernels.fw_d_gups_b256", fw256.d * 1e-9, "Gupd/s");
  out.layer("kernels.fw_abc_gups_b256", fw256.abc() * 1e-9, "Gupd/s");
  out.layer("kernels.fw_d_gups_b32", fw32.d * 1e-9, "Gupd/s");
  out.layer("kernels.fw_d_gups_b64", fw64.d * 1e-9, "Gupd/s");
  out.layer("kernels.ge_d_gups_b64", ge64.d * 1e-9, "Gupd/s");
  out.layer("kernels.tc_d_gups_b64", tc64.d * 1e-9, "Gupd/s");
}

/// One interior GAP tile, (4,4) at b=48, with its whole row/column prefix
/// taken from the exact reference table.
void probe_nested(const Args& a, const Sizes& sz, SpanLog& log, RunResult& out) {
  constexpr std::size_t kB = 48;
  constexpr int kTile = 4;
  const nested::GapProblem prob{384, a.seed};
  const gs::Matrix<double> ref = gs::baseline::reference_gap(prob);
  std::map<std::pair<int, int>, nested::TileR> tiles;
  for (int bi = 0; bi <= kTile; ++bi) {
    for (int bj = 0; bj <= kTile; ++bj) {
      auto t = std::make_shared<gs::Tile<double>>(kB, kB);
      for (std::size_t i = 0; i < kB; ++i) {
        for (std::size_t j = 0; j < kB; ++j) {
          (*t)(i, j) = ref(bi * kB + i, bj * kB + j);
        }
      }
      tiles[{bi, bj}] = t;
    }
  }
  const nested::TileLookup at = [&](gs::TileKey k) { return tiles.at({k.i, k.j}); };
  const double cells = double(kB * kB);
  const double rate = median_rate(log, "nested", "gap_tile_kernel", cells, sz.probe_s, [&] {
    nested::TileR t = nested::gap_tile_kernel(prob, kB, gs::TileKey{kTile, kTile}, at);
    GS_CHECK_MSG((*t)(0, 0) == ref(kTile * kB, kTile * kB), "gap probe tile mismatch");
  });
  out.layer("nested.gap_cells_per_s", rate, "cells/s");
}

std::vector<std::pair<gs::TileKey, gs::TileRef<double>>> tile_entries(int side,
                                                                      std::size_t b) {
  std::vector<std::pair<gs::TileKey, gs::TileRef<double>>> entries;
  for (int i = 0; i < side; ++i) {
    for (int j = 0; j < side; ++j) {
      auto t = std::make_shared<gs::Tile<double>>(b, b, double(i * side + j));
      entries.emplace_back(gs::TileKey{i, j}, t);
    }
  }
  return entries;
}

void probe_sparklet(const Args& a, const Sizes& sz, SpanLog& log, RunResult& out) {
  sparklet::SparkContext sc(bench_cluster(a, 2, 2));
  const int executors = sc.config().num_executors();

  auto graph_us = [&](const char* name, int tasks, bool chain) {
    std::vector<sparklet::DataflowTaskSpec> specs(static_cast<std::size_t>(tasks));
    for (int t = 0; t < tasks; ++t) {
      specs[t].label = name;
      specs[t].executor = t % executors;
      if (chain && t > 0) specs[t].deps = {t - 1};
    }
    const double per_graph = median_rate(log, "sparklet", name, 1.0, sz.probe_s, [&] {
      sc.run_task_graph(name, specs, [](int) {});
    });
    return 1e6 / (per_graph * tasks);
  };
  out.layer("sparklet.graph_task_us", graph_us("noop_wide", 1024, false), "us");
  out.layer("sparklet.graph_chain_us", graph_us("noop_chain", 256, true), "us");

  // 8×8 tiles of b=256 doubles: 32 MiB of payload.
  constexpr int kSide = 8;
  constexpr std::size_t kB = 256;
  const double bytes = double(kSide * kSide) * double(kB * kB * sizeof(double));
  const auto entries = tile_entries(kSide, kB);
  const auto src_part = std::make_shared<sparklet::HashPartitioner>(8);
  const auto dst_part = std::make_shared<sparklet::GridPartitioner>(8, kSide);
  using TileRef = gs::TileRef<double>;
  const double shuffles = median_rate(log, "sparklet", "combine_by_key", 1.0, sz.probe_s, [&] {
    auto combined =
        sparklet::parallelize_pairs(sc, entries, src_part, "tiles")
            .combine_by_key([](const TileRef& t) { return std::vector<TileRef>{t}; },
                            [](std::vector<TileRef> c, const TileRef& t) {
                              c.push_back(t);
                              return c;
                            },
                            [](std::vector<TileRef> c, std::vector<TileRef> d) {
                              c.insert(c.end(), d.begin(), d.end());
                              return c;
                            },
                            dst_part, "combineTiles");
    GS_CHECK_MSG(combined.count() == entries.size(), "shuffle probe lost tiles");
  });
  out.layer("sparklet.shuffle_gbps", shuffles * bytes * 1e-9, "GB/s");

  const double checkpoints = median_rate(log, "sparklet", "checkpoint", 1.0, sz.probe_s, [&] {
    auto rdd = sparklet::parallelize_pairs(sc, entries, src_part, "tiles");
    rdd.checkpoint();
  });
  out.layer("sparklet.checkpoint_gbps", checkpoints * bytes * 1e-9, "GB/s");

  std::vector<std::pair<int, int>> small;
  for (int i = 0; i < 64; ++i) small.emplace_back(i, i);
  const double stages = median_rate(log, "sparklet", "stage", 1.0, sz.probe_s, [&] {
    GS_CHECK(sparklet::parallelize_pairs(sc, small, src_part, "small").count() == 64);
  });
  out.layer("sparklet.stage_ms", 1e3 / stages, "ms");
}

}  // namespace

void probe_layers(const Args& a, const Sizes& sz, SpanLog& log, RunResult& out) {
  probe_kernels(sz, log, out);
  probe_nested(a, sz, log, out);
  probe_sparklet(a, sz, log, out);
}

}  // namespace perfbench
