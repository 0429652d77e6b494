// nested_driver.hpp — unified solve entry point for the nested-dataflow
// workloads, mirroring GepDriver's surface: one call returns
// SolveOutcome{matrix, profile, stats} and honours SolverOptions' strategy
// (IM / CB), schedule (barrier / dataflow), storage level, checkpoint
// interval, lookahead, and --validate-schedule.
//
// Barrier IM (Listing 1 shape): each wave phase fans a copy of every needed
// finished tile to its consumer tasks through a shuffle (flatMap +
// combineByKey keyed by the consumer tile), so the wide-dependency wavefront
// runs with Spark's shuffle machinery. Sentinel seeds guarantee a group for
// zero-read tasks (wave 0).
//
// Barrier CB (Listing 2 shape): finished tiles are collect()ed to the driver
// and re-broadcast each phase — the accordion's same-wave diagonal→panel
// ordering falls out of phases being separate collect rounds.
//
// Dataflow: NestedPlanner adapts the plan to the shared tile-dataflow
// engine (gepspark/dataflow.hpp), which builds the per-segment task DAG
// (fences, lookahead, transfer tasks, checkpoint snapshots).
//
// All three paths run plan.compute() — the same pure per-cell recurrence —
// on the same tile inputs, so results are bit-identical across every mode.
#pragma once

#include <cstddef>
#include <memory>
#include <ranges>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/model_check.hpp"
#include "gepspark/dataflow.hpp"
#include "gepspark/options.hpp"
#include "grid/matrix.hpp"
#include "nested/nested_plan.hpp"
#include "obs/span.hpp"
#include "sparklet/rdd.hpp"
#include "support/check.hpp"
#include "support/format.hpp"
#include "support/stopwatch.hpp"

namespace nested {

inline const char* kind_cstr(char k) {
  switch (k) {
    case 'G': return "G";
    case 'E': return "E";
    case 'P': return "P";
    case 'V': return "V";
  }
  return "?";
}

namespace detail {

using DoneMap = std::unordered_map<gs::TileKey, TileR, gs::TileKeyHash>;

/// Collect-Broadcast barrier: per phase, broadcast every finished tile,
/// compute the phase's tasks against the broadcast map, collect, merge.
template <typename Plan>
gs::Matrix<double> solve_cb(sparklet::SparkContext& sc, const Plan& plan,
                            const gepspark::SolverOptions& opt,
                            const sparklet::PartitionerPtr& part) {
  (void)opt;
  obs::Tracer* tr = &sc.tracer();
  DoneMap done;
  const int waves = plan.waves();
  for (int wv = 0; wv < waves; ++wv) {
    obs::ScopedSpan iter_span(tr, obs::SpanLevel::kIteration, "wave", wv);
    for (const auto& phase : plan.wave_phases(wv)) {
      auto done_bc = sc.broadcast(done);  // "tofile()"
      auto tasks = std::make_shared<const std::vector<NestedTask>>(phase);
      std::vector<std::pair<gs::TileKey, int>> keyed;
      keyed.reserve(phase.size());
      for (int t = 0; t < static_cast<int>(phase.size()); ++t) {
        keyed.push_back({phase[static_cast<std::size_t>(t)].out, t});
      }
      auto entries =
          sparklet::parallelize_pairs(sc, keyed, part, "nestedPhase")
              .map(
                  [plan, tasks, done_bc, tr,
                   wv](const std::pair<gs::TileKey, int>& kv) {
                    const NestedTask& task =
                        (*tasks)[static_cast<std::size_t>(kv.second)];
                    obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                kind_cstr(task.kind), wv);
                    const DoneMap& prev = done_bc.value();
                    TileR out = plan.compute(task, [&](gs::TileKey key) {
                      return prev.at(key);
                    });
                    return std::pair<gs::TileKey, TileR>{kv.first,
                                                         std::move(out)};
                  },
                  "nestedWaveKernel")
              .collect("nestedCollectWave");
      for (auto& [key, tile] : entries) done.emplace(key, std::move(tile));
    }
  }
  return plan.assemble([&](gs::TileKey key) { return done.at(key); });
}

/// In-Memory barrier: per phase, fan a tagged copy of each finished tile to
/// every consumer task through the shuffle, group by consumer, compute.
template <typename Plan>
gs::Matrix<double> solve_im(sparklet::SparkContext& sc, const Plan& plan,
                            const gepspark::SolverOptions& opt,
                            const sparklet::PartitionerPtr& part) {
  using KV = std::pair<gs::TileKey, TileR>;
  using SrcKV = std::pair<gs::TileKey, TileR>;  // (source key, tile | sentinel)
  using FanKV = std::pair<gs::TileKey, SrcKV>;  // keyed by consumer tile
  obs::Tracer* tr = &sc.tracer();
  auto done =
      sparklet::parallelize_pairs(sc, std::vector<KV>{}, part, "nestedDP");
  const int waves = plan.waves();
  for (int wv = 0; wv < waves; ++wv) {
    obs::ScopedSpan iter_span(tr, obs::SpanLevel::kIteration, "wave", wv);
    for (const auto& phase : plan.wave_phases(wv)) {
      auto task_map = std::make_shared<
          const std::unordered_map<gs::TileKey, NestedTask, gs::TileKeyHash>>(
          [&] {
            std::unordered_map<gs::TileKey, NestedTask, gs::TileKeyHash> m;
            for (const auto& t : phase) m.emplace(t.out, t);
            return m;
          }());
      auto consumers = std::make_shared<const std::unordered_map<
          gs::TileKey, std::vector<gs::TileKey>, gs::TileKeyHash>>([&] {
        std::unordered_map<gs::TileKey, std::vector<gs::TileKey>,
                           gs::TileKeyHash>
            c;
        for (const auto& t : phase) {
          for (const auto& rd : t.reads) c[rd].push_back(t.out);
        }
        return c;
      }());

      // Every finished tile ships one copy per consumer task — the wide
      // wavefront dependency as an actual shuffle.
      auto fan = done.flat_map(
          [consumers](const KV& kv) {
            std::vector<FanKV> out;
            auto it = consumers->find(kv.first);
            if (it != consumers->end()) {
              out.reserve(it->second.size());
              for (const auto& dst : it->second) {
                out.push_back({dst, SrcKV{kv.first, kv.second}});
              }
            }
            return out;
          },
          "nestedFanOut");
      // Sentinel seeds guarantee a group exists even for zero-read tasks.
      std::vector<FanKV> seeds;
      seeds.reserve(phase.size());
      for (const auto& t : phase) seeds.push_back({t.out, SrcKV{t.out, nullptr}});
      auto computed =
          sparklet::parallelize_pairs(sc, seeds, part, "nestedSeeds")
              .union_with(fan, "nestedGather")
              .group_by_key(part, "combineByKeyNested")
              .map(
                  [plan, task_map, tr, wv](
                      const std::pair<gs::TileKey, std::vector<SrcKV>>& kv) {
                    DoneMap inputs;
                    for (const auto& src : kv.second) {
                      if (src.second != nullptr) {
                        inputs.emplace(src.first, src.second);
                      }
                    }
                    const NestedTask& task = task_map->at(kv.first);
                    obs::ScopedSpan kernel_span(tr, obs::SpanLevel::kKernel,
                                                kind_cstr(task.kind), wv);
                    TileR out = plan.compute(task, [&](gs::TileKey key) {
                      return inputs.at(key);
                    });
                    return KV{kv.first, std::move(out)};
                  },
                  "nestedWaveKernel");
      done = done.union_with(computed, "unionWave")
                 .partition_by(part, "repartition");
    }
    // End-of-wave persistence, exactly like the GEP barrier loop.
    obs::ScopedSpan persist_span(tr, obs::SpanLevel::kPhase, "persist", wv);
    done.node()->set_storage_level(opt.storage_level);
    const int interval = opt.checkpoint_interval;
    if (interval > 0 && (wv + 1) % interval == 0) {
      done.checkpoint();
    } else {
      done.cache();
    }
  }
  auto entries = done.collect("gatherResult");
  DoneMap all;
  all.reserve(entries.size());
  for (auto& [key, tile] : entries) all.emplace(key, std::move(tile));
  return plan.assemble([&](gs::TileKey key) { return all.at(key); });
}

}  // namespace detail

/// Dataflow planner for a wavefront Plan: wave wv emits one node per task of
/// plan.wave_phases(wv), in phase order, whose deps are the finished tiles
/// the task reads. The schedule is single-assignment — every tile is written
/// exactly once, at a statically known wave — so there are no pinned inputs
/// (wave-0 tasks read nothing; the recurrence seeds itself from the problem
/// instance) and no superseded versions.
template <typename Plan>
class NestedPlanner {
 public:
  using TileR = nested::TileR;
  using Payload = NestedTask;
  static constexpr char kStepName = 'w';

  explicit NestedPlanner(const Plan& plan)
      : plan_(plan), task_label_(gs::strfmt("%sWave", Plan::name())) {}

  int grid_rows() const { return plan_.grid_rows(); }
  int grid_cols() const { return plan_.grid_cols(); }
  int steps() const { return plan_.waves(); }
  std::string graph_name(int first, int last) const {
    return gs::strfmt("nested-%s(w=%d..%d)", Plan::name(), first, last);
  }
  const char* task_label(char /*kind*/) const { return task_label_.c_str(); }
  /// CB ships each wave's outputs through the driver, exactly like the
  /// barrier CB loop.
  static int cb_group(char /*kind*/) { return 0; }
  analysis::ScheduleWorkload workload() const { return plan_.workload(); }

  template <typename Engine>
  void add_inputs(Engine& /*eng*/) const {}

  template <typename Engine>
  void emit(Engine& eng, int wv) const {
    for (auto& phase : plan_.wave_phases(wv)) {
      for (NestedTask& task : phase) {
        const gs::TileKey out = task.out;
        const int id = eng.add_node(
            out, task.kind, wv, plan_.tile_bytes(out),
            task.reads | std::views::transform([&eng](gs::TileKey rd) {
              return eng.latest(rd);
            }),
            std::move(task));
        eng.add_task(id);
      }
    }
  }

  template <typename Engine>
  TileR compute(const Engine& eng, const typename Engine::Node& nd) const {
    return plan_.compute(nd.payload,
                         [&eng](gs::TileKey key) { return tile(eng, key); });
  }

  template <typename Engine>
  gs::Matrix<double> finish(const Engine& eng) const {
    return plan_.assemble([&eng](gs::TileKey key) { return tile(eng, key); });
  }

 private:
  template <typename Engine>
  static TileR tile(const Engine& eng, gs::TileKey key) {
    TileR t = eng.node(eng.latest(key)).out;
    GS_CHECK_MSG(t != nullptr, "nested tile missing");
    return t;
  }

  const Plan& plan_;
  std::string task_label_;
};

/// Solve a nested workload under the configured strategy and schedule.
template <typename Plan>
gepspark::SolveOutcome<double> nested_solve(
    sparklet::SparkContext& sc, const Plan& plan,
    const gepspark::SolverOptions& opt) {
  opt.validate();
  GS_THROW_IF(opt.fused_d, gs::ConfigError,
              "fused_d applies only to GEP-shaped workloads (the nested "
              "wavefronts have no D phase to batch)");
  GS_THROW_IF(opt.track_predecessors, gs::ConfigError,
              "track_predecessors applies only to the FW spec");

  const int num_parts =
      opt.num_partitions > 0
          ? opt.num_partitions
          : static_cast<int>(sc.config().effective_partitions());
  sparklet::PartitionerPtr part;
  if (opt.use_grid_partitioner) {
    part = std::make_shared<sparklet::GridPartitioner>(num_parts,
                                                       plan.grid_cols());
  } else {
    part = std::make_shared<sparklet::HashPartitioner>(num_parts);
  }

  const std::string job_name =
      gs::strfmt("%s %s", Plan::name(), opt.describe().c_str());
  sparklet::MetricsScope scope(sc.metrics(), sc.timeline());
  gs::Stopwatch wall;
  gepspark::SolveOutcome<double> outcome;
  {
    obs::ScopedSpan job_span(&sc.tracer(), obs::SpanLevel::kJob, job_name);
    if (opt.schedule == gepspark::ScheduleMode::kDataflow) {
      outcome.matrix =
          gepspark::solve_dataflow(sc, opt, NestedPlanner<Plan>(plan), part);
    } else if (opt.strategy == gepspark::Strategy::kInMemory) {
      outcome.matrix = detail::solve_im(sc, plan, opt, part);
    } else {
      outcome.matrix = detail::solve_cb(sc, plan, opt, part);
    }
  }
  outcome.profile =
      obs::build_job_profile(scope.delta(), sc.timeline(), &sc.tracer());
  outcome.profile.job = job_name;
  outcome.profile.wall_seconds = wall.seconds();
  outcome.profile.grid_r = plan.grid_cols();
  outcome.stats = gepspark::to_solve_stats(outcome.profile);
  return outcome;
}

/// Model-check a nested plan's dataflow schedule (`--model-check`); see
/// gepspark::model_check_dataflow.
template <typename Plan>
analysis::ModelCheckReport model_check_nested(
    sparklet::SparkContext& sc, const Plan& plan,
    const gepspark::SolverOptions& opt,
    const analysis::ModelCheckOptions& mc = analysis::ModelCheckOptions{}) {
  return gepspark::model_check_dataflow(
      sc, opt, mc, [&](const gepspark::SolverOptions& run_opt) {
        return nested_solve(sc, plan, run_opt).matrix;
      });
}

}  // namespace nested
