// Dataflow scheduler tests (ISSUE 4): the tile-level dependency DAG the
// DataflowEngine builds for small r (exact edge sets against an independent
// model of the A → B/C → D rules plus cross-iteration and lookahead-fence
// edges), randomized stress over SparkContext::run_task_graph (200+ seeded
// random DAGs must execute in topological order and terminate, with and
// without chaos), and lookahead-depth sweeps (every depth bit-identical to
// barrier, dataflow beating the barrier's virtual makespan).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gepspark/dataflow.hpp"
#include "gepspark/driver.hpp"
#include "gepspark/solver.hpp"
#include "nested/nested_driver.hpp"
#include "sparklet/context.hpp"
#include "sparklet/partitioner.hpp"
#include "sparklet/task_graph.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"

namespace {

using sparklet::ChaosPlan;
using sparklet::ClusterConfig;
using sparklet::DataflowTaskSpec;
using sparklet::SparkContext;
using sparklet::TaskGraphResult;

// ---------------------------------------------------------------------------
// DAG construction: edge sets for small r
// ---------------------------------------------------------------------------

struct ModelTask {
  std::string label;
  std::set<int> deps;
};

// Independent reconstruction of the engine's per-segment DAG under the CB
// strategy (no transfer tasks, so task indices line up 1:1): per iteration
// A, then B row-major, then C, then D, then the fence; `self` edges come
// from the latest writer of the tile, u/v/w from this iteration's A/B/C,
// and the lookahead gate from fence[k - lookahead - 1].
std::vector<ModelTask> model_graph(int r, bool strict, bool uses_w,
                                   int lookahead) {
  gepspark::GridRanges ranges(r, strict);
  std::map<std::pair<int, int>, int> latest;  // absent → source (no edge)
  std::vector<ModelTask> out;
  std::vector<int> fences;

  auto self_dep = [&](int i, int j, std::set<int>& deps) {
    auto it = latest.find({i, j});
    if (it != latest.end()) deps.insert(it->second);
  };

  for (int k = 0; k < r; ++k) {
    std::vector<int> iter;
    auto push = [&](const char* label, std::set<int> deps) {
      const int gate = k - lookahead - 1;
      if (gate >= 0) deps.insert(fences[static_cast<std::size_t>(gate)]);
      out.push_back({label, std::move(deps)});
      iter.push_back(static_cast<int>(out.size()) - 1);
      return static_cast<int>(out.size()) - 1;
    };

    std::set<int> a_deps;
    self_dep(k, k, a_deps);
    const int a = push("ARecGE", std::move(a_deps));
    latest[{k, k}] = a;

    for (const auto& key : ranges.b_keys(k)) {
      std::set<int> deps{a};  // u (and w, identical) = this iteration's A
      self_dep(key.i, key.j, deps);
      latest[{key.i, key.j}] = push("BCRecGE", std::move(deps));
    }
    for (const auto& key : ranges.c_keys(k)) {
      std::set<int> deps{a};
      self_dep(key.i, key.j, deps);
      latest[{key.i, key.j}] = push("BCRecGE", std::move(deps));
    }
    for (const auto& key : ranges.d_keys(k)) {
      std::set<int> deps;
      self_dep(key.i, key.j, deps);
      deps.insert(latest.at({key.i, k}));  // u: post-C pivot column
      deps.insert(latest.at({k, key.j}));  // v: post-B pivot row
      if (uses_w) deps.insert(a);
      latest[{key.i, key.j}] = push("DRecGE", std::move(deps));
    }

    out.push_back({"fence", std::set<int>(iter.begin(), iter.end())});
    fences.push_back(static_cast<int>(out.size()) - 1);
  }
  return out;
}

template <typename Spec>
std::vector<std::vector<DataflowTaskSpec>> engine_graphs(int n, int block,
                                                         int lookahead) {
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = static_cast<std::size_t>(block);
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = lookahead;
  opt.checkpoint_interval = 0;  // one graph covering every iteration
  opt.validate();

  auto input = gs::testutil::random_input<Spec>(static_cast<std::size_t>(n));
  gs::TileGrid<typename Spec::value_type> grid(
      input, opt.block_size, Spec::pad_diag(), Spec::pad_off());
  auto kernels =
      std::make_shared<const gs::GepKernels<Spec>>(opt.kernel);
  auto part = std::make_shared<sparklet::HashPartitioner>(4);

  std::vector<std::vector<DataflowTaskSpec>> log;
  gepspark::DataflowEngine<gepspark::GepPlanner<Spec>> engine(
      sc, opt, {kernels, grid}, part);
  engine.set_graph_log(&log);
  (void)engine.solve();
  return log;
}

template <typename Spec>
void expect_graph_matches_model(int r, int block, int lookahead) {
  const auto log = engine_graphs<Spec>(r * block, block, lookahead);
  ASSERT_EQ(log.size(), 1u);  // interval 0 → single segment
  const auto& specs = log[0];
  const auto model = model_graph(r, Spec::kStrictSigma, Spec::kUsesW,
                                 lookahead);
  ASSERT_EQ(specs.size(), model.size());
  for (std::size_t t = 0; t < model.size(); ++t) {
    EXPECT_EQ(specs[t].label, model[t].label) << "task " << t;
    const std::set<int> got(specs[t].deps.begin(), specs[t].deps.end());
    EXPECT_EQ(got, model[t].deps)
        << "task " << t << " (" << model[t].label << ")";
    for (int d : specs[t].deps) {
      EXPECT_LT(d, static_cast<int>(t));  // DAG-by-construction invariant
    }
  }
}

TEST(DataflowDag, FloydWarshallEdgesMatchModel) {
  // Full Σ, no w input: D depends only on self + row + column tiles.
  expect_graph_matches_model<gs::FloydWarshallSpec>(2, 16, 8);
  expect_graph_matches_model<gs::FloydWarshallSpec>(3, 16, 8);
}

TEST(DataflowDag, GaussianEliminationEdgesMatchModel) {
  // Strict Σ, kUsesW: B/C/D all take the pivot tile, trailing set shrinks.
  expect_graph_matches_model<gs::GaussianEliminationSpec>(2, 16, 8);
  expect_graph_matches_model<gs::GaussianEliminationSpec>(4, 16, 8);
}

TEST(DataflowDag, LookaheadZeroGatesEveryIterationOnPreviousFence) {
  expect_graph_matches_model<gs::FloydWarshallSpec>(3, 16, 0);
  expect_graph_matches_model<gs::GaussianEliminationSpec>(4, 16, 0);
}

TEST(DataflowDag, LookaheadOneGatesOnFenceTwoIterationsBack) {
  expect_graph_matches_model<gs::FloydWarshallSpec>(4, 16, 1);
}

TEST(DataflowDag, CheckpointIntervalSplitsIntoSegments) {
  SparkContext sc(ClusterConfig::local(2, 2));
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.strategy = gepspark::Strategy::kCollectBroadcast;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.checkpoint_interval = 2;
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(80);  // r = 5
  gs::TileGrid<double> grid(input, 16, gs::FloydWarshallSpec::pad_diag(),
                            gs::FloydWarshallSpec::pad_off());
  auto kernels = std::make_shared<const gs::GepKernels<gs::FloydWarshallSpec>>(
      opt.kernel);
  auto part = std::make_shared<sparklet::HashPartitioner>(4);
  std::vector<std::vector<DataflowTaskSpec>> log;
  gepspark::DataflowEngine<gepspark::GepPlanner<gs::FloydWarshallSpec>>
      engine(sc, opt, {kernels, grid}, part);
  engine.set_graph_log(&log);
  (void)engine.solve();
  ASSERT_EQ(log.size(), 3u);  // iterations {0,1}, {2,3}, {4}
  // Segment graphs restart fence indexing: no lookahead edge may reach
  // across a checkpoint boundary.
  for (const auto& specs : log) {
    for (std::size_t t = 0; t < specs.size(); ++t) {
      for (int d : specs[t].deps) EXPECT_LT(d, static_cast<int>(t));
    }
  }
}

// ---------------------------------------------------------------------------
// Randomized stress: run_task_graph on 200+ seeded random DAGs
// ---------------------------------------------------------------------------

void expect_topological(const std::vector<DataflowTaskSpec>& tasks,
                        const TaskGraphResult& result) {
  ASSERT_EQ(result.completion_order.size(), tasks.size());
  std::vector<int> position(tasks.size(), -1);
  for (std::size_t p = 0; p < result.completion_order.size(); ++p) {
    const int t = result.completion_order[p];
    ASSERT_GE(t, 0);
    ASSERT_LT(t, static_cast<int>(tasks.size()));
    ASSERT_EQ(position[static_cast<std::size_t>(t)], -1)
        << "task completed twice";
    position[static_cast<std::size_t>(t)] = static_cast<int>(p);
  }
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    for (int d : tasks[t].deps) {
      EXPECT_LT(position[static_cast<std::size_t>(d)],
                position[t])
          << "task " << t << " ran before its dependency " << d;
    }
  }
}

std::vector<DataflowTaskSpec> random_dag(gs::Rng& rng, int num_exec) {
  const int n = 1 + static_cast<int>(rng.uniform_u64(40));
  std::vector<DataflowTaskSpec> tasks(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto& t = tasks[static_cast<std::size_t>(i)];
    t.label = (i % 3 == 0) ? "stress-a" : "stress-b";
    t.executor = static_cast<int>(rng.uniform_u64(
        static_cast<std::uint64_t>(num_exec)));
    if (i > 0 && rng.bernoulli(0.15)) {
      t.transfer = true;
      t.model_s = 1e-4;
      t.label = "stress-xfer";
    }
    // Sparse random predecessors; expected degree ~2 keeps wide and deep
    // graphs both likely across seeds.
    for (int j = 0; j < i; ++j) {
      if (rng.bernoulli(2.0 / static_cast<double>(i))) t.deps.push_back(j);
    }
  }
  return tasks;
}

TEST(DataflowStress, RandomDagsExecuteInTopologicalOrder) {
  SparkContext sc(ClusterConfig::local(3, 2));
  const int num_exec = sc.config().num_executors();
  int total_tasks = 0;
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    gs::Rng rng(7000 + seed);
    const auto tasks = random_dag(rng, num_exec);
    std::vector<int> hits(tasks.size(), 0);
    const TaskGraphResult result = sc.run_task_graph(
        "stress", tasks, [&](int ti) { ++hits[static_cast<std::size_t>(ti)]; });
    expect_topological(tasks, result);
    int compute = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      EXPECT_EQ(hits[i], 1) << "task body must run exactly once";
      if (!tasks[i].transfer) ++compute;
    }
    EXPECT_EQ(result.tasks_run, compute);
    EXPECT_GT(result.makespan_s, 0.0);
    total_tasks += static_cast<int>(tasks.size());
  }
  EXPECT_GT(total_tasks, 1000);  // the sweep actually exercised real graphs
}

TEST(DataflowStress, RandomDagsSurviveChaosAndStayTopological) {
  SparkContext sc(ClusterConfig::local(3, 2));
  ChaosPlan plan;
  plan.task_failure_prob = 0.2;
  plan.max_task_attempts = 10;
  plan.executor_kill_prob = 0.3;
  plan.max_executor_kills = 100;  // let kills keep firing across graphs
  plan.straggler_prob = 0.2;
  plan.straggler_factor = 4.0;
  plan.seed = 77;
  sc.set_chaos_plan(plan);
  sc.set_speculation({.enabled = true});

  const int num_exec = sc.config().num_executors();
  int kills = 0;
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    gs::Rng rng(9000 + seed);
    const auto tasks = random_dag(rng, num_exec);
    const TaskGraphResult result =
        sc.run_task_graph("stress-chaos", tasks, [](int) {});
    expect_topological(tasks, result);
    if (result.kill_victim >= 0) {
      ++kills;
      // Reassigned tasks must avoid the dead executor.
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (!tasks[i].transfer) {
          EXPECT_NE(result.executors[i], result.kill_victim);
        }
      }
    }
  }
  EXPECT_GT(sc.metrics().recovery().task_failures, 0);
  EXPECT_GT(kills, 0);
}

TEST(DataflowStress, DeterministicChaosIsScheduleInvariant) {
  // The same (graph, chaos plan) pair must inject the same failures no
  // matter how the pool interleaves: counters after two identical runs on
  // fresh contexts agree exactly.
  auto run_once = [] {
    SparkContext sc(ClusterConfig::local(3, 2));
    ChaosPlan plan;
    plan.task_failure_prob = 0.3;
    plan.max_task_attempts = 10;
    plan.seed = 5;
    sc.set_chaos_plan(plan);
    for (std::uint64_t seed = 0; seed < 10; ++seed) {
      gs::Rng rng(100 + seed);
      const auto tasks = random_dag(rng, sc.config().num_executors());
      (void)sc.run_task_graph("det", tasks, [](int) {});
    }
    return sc.metrics().recovery().task_failures;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(DataflowStress, InvalidGraphsAreRejected) {
  SparkContext sc(ClusterConfig::local(2, 2));
  std::vector<DataflowTaskSpec> fwd(2);
  fwd[0].label = "t0";
  fwd[0].deps = {1};  // forward reference breaks the DAG invariant
  fwd[1].label = "t1";
  EXPECT_THROW((void)sc.run_task_graph("bad", fwd, [](int) {}),
               std::exception);
}

// ---------------------------------------------------------------------------
// Lookahead sweep
// ---------------------------------------------------------------------------

TEST(Lookahead, EveryDepthBitIdenticalToBarrier) {
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(64, 11);
  gepspark::SolverOptions opt;
  opt.block_size = 16;
  opt.checkpoint_interval = 0;

  SparkContext ref_sc(ClusterConfig::local(3, 2));
  auto expected = gepspark::spark_floyd_warshall(ref_sc, input, opt).matrix;

  opt.schedule = gepspark::ScheduleMode::kDataflow;
  for (int depth : {0, 1, 2, 3, 4}) {
    SparkContext sc(ClusterConfig::local(3, 2));
    opt.lookahead = depth;
    auto got = gepspark::spark_floyd_warshall(sc, input, opt).matrix;
    EXPECT_TRUE(got == expected) << "lookahead " << depth;
  }
}

TEST(Lookahead, DataflowBeatsBarrierMakespan) {
  auto input = gs::testutil::random_input<gs::GaussianEliminationSpec>(96, 3);
  auto virt = [&](gepspark::ScheduleMode mode, int depth) {
    SparkContext sc(ClusterConfig::local(4, 2));
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.schedule = mode;
    opt.lookahead = depth;
    opt.checkpoint_interval = 0;
    auto res = gepspark::spark_gaussian_elimination(sc, input, opt);
    return res.profile.virtual_seconds;
  };
  const double barrier = virt(gepspark::ScheduleMode::kBarrier, 0);
  const double dataflow = virt(gepspark::ScheduleMode::kDataflow, 1);
  // Releasing tasks as dependencies resolve removes the per-phase stage
  // barriers entirely; the win is far larger than scheduling noise.
  EXPECT_LT(dataflow, barrier);
}

TEST(Lookahead, DeeperPipelineDoesNotRegressMakespan) {
  auto input = gs::testutil::random_input<gs::FloydWarshallSpec>(96, 5);
  auto virt = [&](int depth) {
    SparkContext sc(ClusterConfig::local(4, 4));
    gepspark::SolverOptions opt;
    opt.block_size = 16;
    opt.schedule = gepspark::ScheduleMode::kDataflow;
    opt.lookahead = depth;
    opt.checkpoint_interval = 0;
    auto res = gepspark::spark_floyd_warshall(sc, input, opt);
    return res.profile.virtual_seconds;
  };
  // Wall-clock task durations vary run to run, so compare with generous
  // slack: a depth-3 pipeline must not be materially slower than depth 0.
  EXPECT_LT(virt(3), virt(0) * 1.5);
}

// ---------------------------------------------------------------------------
// Golden task graphs: one digest per configuration over every emitted graph
// (all DataflowTaskSpec fields), every lineage snapshot, and the recovery
// counters. The digests were recorded from the separate GEP and nested
// engines before they became one engine with two planners, so any change in
// node emission, routing, fences, checkpointing or recovery order fails here.
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ = (h_ ^ ((v >> (8 * b)) & 0xffu)) * 0x100000001b3ULL;
    }
  }
  void add(const std::string& s) {
    add(s.size());
    for (unsigned char c : s) h_ = (h_ ^ c) * 0x100000001b3ULL;
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
  void add(const std::vector<int>& v) {
    add(v.size());
    for (int x : v) add(static_cast<std::uint64_t>(x));
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct EngineCapture {
  std::vector<std::vector<DataflowTaskSpec>> graphs;
  std::vector<analysis::LineageSnapshot> lineage;
  sparklet::RecoveryCounters recovery;

  std::uint64_t digest() const {
    Fnv h;
    h.add(graphs.size());
    for (const auto& g : graphs) {
      h.add(g.size());
      for (const DataflowTaskSpec& t : g) {
        h.add(t.label);
        h.add(t.deps);
        h.add(static_cast<std::uint64_t>(t.executor));
        h.add(static_cast<std::uint64_t>(t.category));
        h.add(static_cast<std::uint64_t>(t.transfer));
        h.add(t.model_s);
        h.add(static_cast<std::uint64_t>(t.gep_kind));
        h.add(static_cast<std::uint64_t>(t.gep_k));
        h.add(static_cast<std::uint64_t>(t.tile_i));
        h.add(static_cast<std::uint64_t>(t.tile_j));
        h.add(t.batch.size());
        for (const auto& [i, j] : t.batch) {
          h.add(static_cast<std::uint64_t>(i));
          h.add(static_cast<std::uint64_t>(j));
        }
      }
    }
    h.add(lineage.size());
    for (const analysis::LineageSnapshot& snap : lineage) {
      h.add(static_cast<std::uint64_t>(snap.segment));
      h.add(snap.nodes.size());
      for (const analysis::LineageRecord& rec : snap.nodes) {
        h.add(rec.label);
        h.add(static_cast<std::uint64_t>(rec.k));
        h.add(rec.deps);
        h.add(static_cast<std::uint64_t>(rec.pinned));
        h.add(static_cast<std::uint64_t>(rec.source));
      }
      h.add(snap.live);
    }
    const sparklet::RecoveryCounters& rc = recovery;
    for (std::uint64_t v :
         {std::uint64_t(rc.task_failures), std::uint64_t(rc.task_retries),
          std::uint64_t(rc.executor_kills), std::uint64_t(rc.tasks_rescheduled),
          std::uint64_t(rc.partitions_dropped),
          std::uint64_t(rc.partitions_recomputed),
          std::uint64_t(rc.fetch_failures),
          std::uint64_t(rc.stage_resubmissions),
          std::uint64_t(rc.checkpoint_blocks), std::uint64_t(rc.checkpoint_bytes),
          std::uint64_t(rc.corrupted_blocks), std::uint64_t(rc.evictions),
          std::uint64_t(rc.stragglers_injected),
          std::uint64_t(rc.speculative_launches),
          std::uint64_t(rc.speculative_wins), std::uint64_t(rc.spilled_blocks),
          std::uint64_t(rc.spilled_bytes), std::uint64_t(rc.spill_readbacks),
          std::uint64_t(rc.spill_readback_bytes),
          std::uint64_t(rc.corrupt_spills),
          std::uint64_t(rc.spill_write_failures)}) {
      h.add(v);
    }
    return h.value();
  }
};

struct GoldenConfig {
  gepspark::Strategy strategy = gepspark::Strategy::kInMemory;
  int lookahead = 1;
  int interval = 0;
  bool fused_d = false;
  bool strassen_d = false;
  const ChaosPlan* chaos = nullptr;
};

gepspark::SolverOptions golden_options(const GoldenConfig& c) {
  gepspark::SolverOptions opt;
  opt.block_size = 8;
  opt.strategy = c.strategy;
  opt.schedule = gepspark::ScheduleMode::kDataflow;
  opt.lookahead = c.lookahead;
  opt.checkpoint_interval = c.interval;
  opt.fused_d = c.fused_d;
  opt.kernel.strassen_d = c.strassen_d;
  return opt;
}

// GEP: r = 4 tiles per side.
template <typename Spec>
EngineCapture gep_capture(const GoldenConfig& c) {
  SparkContext sc(ClusterConfig::local(2, 2));
  if (c.chaos != nullptr) sc.set_chaos_plan(*c.chaos);
  const gepspark::SolverOptions opt = golden_options(c);
  opt.validate<Spec>();
  auto input = gs::testutil::random_input<Spec>(32, 7);
  gs::TileGrid<typename Spec::value_type> grid(input, opt.block_size,
                                               Spec::pad_diag(), Spec::pad_off());
  auto kernels = std::make_shared<const gs::GepKernels<Spec>>(opt.kernel);
  auto part = std::make_shared<sparklet::HashPartitioner>(4);
  EngineCapture cap;
  {
    gepspark::DataflowEngine<gepspark::GepPlanner<Spec>> engine(
      sc, opt, {kernels, grid}, part);
    engine.set_graph_log(&cap.graphs);
    engine.set_lineage_log(&cap.lineage);
    (void)engine.solve();
  }
  cap.recovery = sc.metrics().recovery();
  return cap;
}

template <typename Plan>
EngineCapture nested_capture(const Plan& plan, const GoldenConfig& c) {
  SparkContext sc(ClusterConfig::local(2, 2));
  if (c.chaos != nullptr) sc.set_chaos_plan(*c.chaos);
  const gepspark::SolverOptions opt = golden_options(c);
  opt.validate();
  auto part = std::make_shared<sparklet::HashPartitioner>(4);
  EngineCapture cap;
  {
    gepspark::DataflowEngine<nested::NestedPlanner<Plan>> engine(
        sc, opt, nested::NestedPlanner<Plan>(plan), part);
    engine.set_graph_log(&cap.graphs);
    engine.set_lineage_log(&cap.lineage);
    (void)engine.solve();
  }
  cap.recovery = sc.metrics().recovery();
  return cap;
}

std::string golden_name(const std::string& workload, const GoldenConfig& c) {
  return gs::strfmt("%s/%s/la%d/ck%d%s%s", workload.c_str(),
                    gepspark::strategy_name(c.strategy), c.lookahead,
                    c.interval, c.fused_d ? "/fused" : "",
                    c.strassen_d ? "/strassen" : "");
}

template <typename F>
void for_each_schedule(F&& f) {
  for (auto strategy :
       {gepspark::Strategy::kInMemory, gepspark::Strategy::kCollectBroadcast}) {
    for (int lookahead : {0, 1, 2}) {
      for (int interval : {0, 1, 2}) {
        GoldenConfig c;
        c.strategy = strategy;
        c.lookahead = lookahead;
        c.interval = interval;
        f(c);
      }
    }
  }
}

ChaosPlan golden_chaos(std::uint64_t seed) {
  ChaosPlan p;
  p.task_failure_prob = 0.1;
  p.max_task_attempts = 8;
  p.executor_kill_prob = 0.5;
  p.max_executor_kills = 2;
  p.fetch_failure_prob = 1.0;
  p.checkpoint_corruption_prob = 0.5;
  p.max_block_corruptions = 3;
  p.seed = seed;
  return p;
}

const nested::GapPlan kGoldenGap(nested::GapProblem{24, 3}, 8);
const nested::AccordionPlan kGoldenAccordion(nested::AccordionProblem{24, 3},
                                             8);
const nested::ViterbiPlan kGoldenViterbi(nested::ViterbiProblem{24, 4, 8, 3},
                                         8);

// Every golden configuration, keyed by name, in a fixed order.
std::vector<std::pair<std::string, EngineCapture>> golden_captures() {
  std::vector<std::pair<std::string, EngineCapture>> out;
  for_each_schedule([&](GoldenConfig c) {
    for (bool fused : {false, true}) {
      c.fused_d = fused;
      out.emplace_back(golden_name("fw", c),
                       gep_capture<gs::FloydWarshallSpec>(c));
      out.emplace_back(golden_name("ge", c),
                       gep_capture<gs::GaussianEliminationSpec>(c));
      out.emplace_back(golden_name("tc", c),
                       gep_capture<gs::TransitiveClosureSpec>(c));
    }
    c.fused_d = true;
    c.strassen_d = true;
    out.emplace_back(golden_name("ge", c),
                     gep_capture<gs::GaussianEliminationSpec>(c));
  });
  for_each_schedule([&](const GoldenConfig& c) {
    out.emplace_back(golden_name("gap", c), nested_capture(kGoldenGap, c));
    out.emplace_back(golden_name("accordion", c),
                     nested_capture(kGoldenAccordion, c));
    out.emplace_back(golden_name("viterbi", c),
                     nested_capture(kGoldenViterbi, c));
  });
  for (std::uint64_t seed : {5, 11}) {
    const ChaosPlan chaos = golden_chaos(seed);
    GoldenConfig c;
    c.interval = 2;
    c.chaos = &chaos;
    const std::string tag = gs::strfmt("/chaos%d", static_cast<int>(seed));
    out.emplace_back(golden_name("ge", c) + tag,
                     gep_capture<gs::GaussianEliminationSpec>(c));
    out.emplace_back(golden_name("gap", c) + tag,
                     nested_capture(kGoldenGap, c));
  }
  return out;
}

const std::map<std::string, std::uint64_t> kGoldenDigests = {
    {"fw/IM/la0/ck0", 0x363aab1eb69f765bULL},
    {"ge/IM/la0/ck0", 0xd328f543c6495138ULL},
    {"tc/IM/la0/ck0", 0x493e084c88ef30c5ULL},
    {"fw/IM/la0/ck0/fused", 0x64e62dfdf07b478fULL},
    {"ge/IM/la0/ck0/fused", 0x051b1d2e911ee5c2ULL},
    {"tc/IM/la0/ck0/fused", 0x0bd9f0819de553cdULL},
    {"ge/IM/la0/ck0/fused/strassen", 0x051b1d2e911ee5c2ULL},
    {"fw/IM/la0/ck1", 0x1db5970d929f6f14ULL},
    {"ge/IM/la0/ck1", 0x4f7936a70424831eULL},
    {"tc/IM/la0/ck1", 0x8c4f977c68d9451eULL},
    {"fw/IM/la0/ck1/fused", 0xfcca2b34c539bca3ULL},
    {"ge/IM/la0/ck1/fused", 0x45f47fa5a09f6ea4ULL},
    {"tc/IM/la0/ck1/fused", 0xfed7fd1aefb3c039ULL},
    {"ge/IM/la0/ck1/fused/strassen", 0x45f47fa5a09f6ea4ULL},
    {"fw/IM/la0/ck2", 0x1e26b380105eaca9ULL},
    {"ge/IM/la0/ck2", 0xe90c880e4874d75dULL},
    {"tc/IM/la0/ck2", 0x7227f4b41d97589fULL},
    {"fw/IM/la0/ck2/fused", 0x3d8f5823b39f3e84ULL},
    {"ge/IM/la0/ck2/fused", 0x3cfae06163f6f093ULL},
    {"tc/IM/la0/ck2/fused", 0x8dbdd4233318ac2aULL},
    {"ge/IM/la0/ck2/fused/strassen", 0x3cfae06163f6f093ULL},
    {"fw/IM/la1/ck0", 0xd2acc3e31688c77fULL},
    {"ge/IM/la1/ck0", 0x218de0687f80293cULL},
    {"tc/IM/la1/ck0", 0x933a1b5b5ae62891ULL},
    {"fw/IM/la1/ck0/fused", 0x269176dbdd23ea04ULL},
    {"ge/IM/la1/ck0/fused", 0x683dbc996e97d7b1ULL},
    {"tc/IM/la1/ck0/fused", 0xe271a69948583c86ULL},
    {"ge/IM/la1/ck0/fused/strassen", 0x683dbc996e97d7b1ULL},
    {"fw/IM/la1/ck1", 0x1db5970d929f6f14ULL},
    {"ge/IM/la1/ck1", 0x4f7936a70424831eULL},
    {"tc/IM/la1/ck1", 0x8c4f977c68d9451eULL},
    {"fw/IM/la1/ck1/fused", 0xfcca2b34c539bca3ULL},
    {"ge/IM/la1/ck1/fused", 0x45f47fa5a09f6ea4ULL},
    {"tc/IM/la1/ck1/fused", 0xfed7fd1aefb3c039ULL},
    {"ge/IM/la1/ck1/fused/strassen", 0x45f47fa5a09f6ea4ULL},
    {"fw/IM/la1/ck2", 0x6c2cc3fc22829655ULL},
    {"ge/IM/la1/ck2", 0xd0ee36d491d25ec9ULL},
    {"tc/IM/la1/ck2", 0x21b979f4731e0303ULL},
    {"fw/IM/la1/ck2/fused", 0x584c0dba61e258b2ULL},
    {"ge/IM/la1/ck2/fused", 0x8f06573666df4670ULL},
    {"tc/IM/la1/ck2/fused", 0xfd7ede0dd4cdcc4cULL},
    {"ge/IM/la1/ck2/fused/strassen", 0x8f06573666df4670ULL},
    {"fw/IM/la2/ck0", 0x71c6d24322a67837ULL},
    {"ge/IM/la2/ck0", 0x6463d1c98f96f1b0ULL},
    {"tc/IM/la2/ck0", 0x50a96679236ff42dULL},
    {"fw/IM/la2/ck0/fused", 0x1fd54cee4a128956ULL},
    {"ge/IM/la2/ck0/fused", 0x43f554632d7484bbULL},
    {"tc/IM/la2/ck0/fused", 0x09b89853ae7f6cd8ULL},
    {"ge/IM/la2/ck0/fused/strassen", 0x43f554632d7484bbULL},
    {"fw/IM/la2/ck1", 0x1db5970d929f6f14ULL},
    {"ge/IM/la2/ck1", 0x4f7936a70424831eULL},
    {"tc/IM/la2/ck1", 0x8c4f977c68d9451eULL},
    {"fw/IM/la2/ck1/fused", 0xfcca2b34c539bca3ULL},
    {"ge/IM/la2/ck1/fused", 0x45f47fa5a09f6ea4ULL},
    {"tc/IM/la2/ck1/fused", 0xfed7fd1aefb3c039ULL},
    {"ge/IM/la2/ck1/fused/strassen", 0x45f47fa5a09f6ea4ULL},
    {"fw/IM/la2/ck2", 0x6c2cc3fc22829655ULL},
    {"ge/IM/la2/ck2", 0xd0ee36d491d25ec9ULL},
    {"tc/IM/la2/ck2", 0x21b979f4731e0303ULL},
    {"fw/IM/la2/ck2/fused", 0x584c0dba61e258b2ULL},
    {"ge/IM/la2/ck2/fused", 0x8f06573666df4670ULL},
    {"tc/IM/la2/ck2/fused", 0xfd7ede0dd4cdcc4cULL},
    {"ge/IM/la2/ck2/fused/strassen", 0x8f06573666df4670ULL},
    {"fw/CB/la0/ck0", 0xdeae76b96b3d47c5ULL},
    {"ge/CB/la0/ck0", 0xea306786301d7ca8ULL},
    {"tc/CB/la0/ck0", 0xdeae76b96b3d47c5ULL},
    {"fw/CB/la0/ck0/fused", 0xef15da85362811c8ULL},
    {"ge/CB/la0/ck0/fused", 0x5bb32df3dd243dafULL},
    {"tc/CB/la0/ck0/fused", 0xef15da85362811c8ULL},
    {"ge/CB/la0/ck0/fused/strassen", 0x5bb32df3dd243dafULL},
    {"fw/CB/la0/ck1", 0x5ffc8ee07f239721ULL},
    {"ge/CB/la0/ck1", 0xa070b498b58cc608ULL},
    {"tc/CB/la0/ck1", 0xfc05094680d17951ULL},
    {"fw/CB/la0/ck1/fused", 0xb1c3734946fbe18cULL},
    {"ge/CB/la0/ck1/fused", 0xa78b554e9ab4233cULL},
    {"tc/CB/la0/ck1/fused", 0x7a60a2f10000045cULL},
    {"ge/CB/la0/ck1/fused/strassen", 0xa78b554e9ab4233cULL},
    {"fw/CB/la0/ck2", 0x4464f9e087532be4ULL},
    {"ge/CB/la0/ck2", 0x65e6f924600407ceULL},
    {"tc/CB/la0/ck2", 0x92693713882a1cfcULL},
    {"fw/CB/la0/ck2/fused", 0x68a806d1e3851361ULL},
    {"ge/CB/la0/ck2/fused", 0x24f2d98ba7ee5350ULL},
    {"tc/CB/la0/ck2/fused", 0xccf69ea5c00724c9ULL},
    {"ge/CB/la0/ck2/fused/strassen", 0x24f2d98ba7ee5350ULL},
    {"fw/CB/la1/ck0", 0x5be85191d221d1afULL},
    {"ge/CB/la1/ck0", 0x3dbc5a2979407e1aULL},
    {"tc/CB/la1/ck0", 0x5be85191d221d1afULL},
    {"fw/CB/la1/ck0/fused", 0x36c0f584a63566c8ULL},
    {"ge/CB/la1/ck0/fused", 0x989aaa476f839f08ULL},
    {"tc/CB/la1/ck0/fused", 0x36c0f584a63566c8ULL},
    {"ge/CB/la1/ck0/fused/strassen", 0x989aaa476f839f08ULL},
    {"fw/CB/la1/ck1", 0x5ffc8ee07f239721ULL},
    {"ge/CB/la1/ck1", 0xa070b498b58cc608ULL},
    {"tc/CB/la1/ck1", 0xfc05094680d17951ULL},
    {"fw/CB/la1/ck1/fused", 0xb1c3734946fbe18cULL},
    {"ge/CB/la1/ck1/fused", 0xa78b554e9ab4233cULL},
    {"tc/CB/la1/ck1/fused", 0x7a60a2f10000045cULL},
    {"ge/CB/la1/ck1/fused/strassen", 0xa78b554e9ab4233cULL},
    {"fw/CB/la1/ck2", 0x66261d2e31384938ULL},
    {"ge/CB/la1/ck2", 0xa476ba517a794ed6ULL},
    {"tc/CB/la1/ck2", 0x01d7855a54b637d0ULL},
    {"fw/CB/la1/ck2/fused", 0x3a8752f2fdfd0807ULL},
    {"ge/CB/la1/ck2/fused", 0x15756feab2655377ULL},
    {"tc/CB/la1/ck2/fused", 0x724135852328d8cfULL},
    {"ge/CB/la1/ck2/fused/strassen", 0x15756feab2655377ULL},
    {"fw/CB/la2/ck0", 0xee1b4e6636092f27ULL},
    {"ge/CB/la2/ck0", 0x23d25e40633bee54ULL},
    {"tc/CB/la2/ck0", 0xee1b4e6636092f27ULL},
    {"fw/CB/la2/ck0/fused", 0x4056d172079b9bb0ULL},
    {"ge/CB/la2/ck0/fused", 0xdffac9c40f8bcaaeULL},
    {"tc/CB/la2/ck0/fused", 0x4056d172079b9bb0ULL},
    {"ge/CB/la2/ck0/fused/strassen", 0xdffac9c40f8bcaaeULL},
    {"fw/CB/la2/ck1", 0x5ffc8ee07f239721ULL},
    {"ge/CB/la2/ck1", 0xa070b498b58cc608ULL},
    {"tc/CB/la2/ck1", 0xfc05094680d17951ULL},
    {"fw/CB/la2/ck1/fused", 0xb1c3734946fbe18cULL},
    {"ge/CB/la2/ck1/fused", 0xa78b554e9ab4233cULL},
    {"tc/CB/la2/ck1/fused", 0x7a60a2f10000045cULL},
    {"ge/CB/la2/ck1/fused/strassen", 0xa78b554e9ab4233cULL},
    {"fw/CB/la2/ck2", 0x66261d2e31384938ULL},
    {"ge/CB/la2/ck2", 0xa476ba517a794ed6ULL},
    {"tc/CB/la2/ck2", 0x01d7855a54b637d0ULL},
    {"fw/CB/la2/ck2/fused", 0x3a8752f2fdfd0807ULL},
    {"ge/CB/la2/ck2/fused", 0x15756feab2655377ULL},
    {"tc/CB/la2/ck2/fused", 0x724135852328d8cfULL},
    {"ge/CB/la2/ck2/fused/strassen", 0x15756feab2655377ULL},
    {"gap/IM/la0/ck0", 0xbffa2cf0f647dcdaULL},
    {"accordion/IM/la0/ck0", 0xbadf72c7800f03d8ULL},
    {"viterbi/IM/la0/ck0", 0x457590b4a2f73063ULL},
    {"gap/IM/la0/ck1", 0xd3ae31d778c25a32ULL},
    {"accordion/IM/la0/ck1", 0x7410029d0aeaf561ULL},
    {"viterbi/IM/la0/ck1", 0x26a78db135dd223fULL},
    {"gap/IM/la0/ck2", 0xbb756462a40c5b52ULL},
    {"accordion/IM/la0/ck2", 0x7f8c052a2adcc192ULL},
    {"viterbi/IM/la0/ck2", 0x6ea0e0ca01f8e065ULL},
    {"gap/IM/la1/ck0", 0x502e247eebc34e1eULL},
    {"accordion/IM/la1/ck0", 0x3d8f094085c287b8ULL},
    {"viterbi/IM/la1/ck0", 0xdc5875efddfb2116ULL},
    {"gap/IM/la1/ck1", 0xd3ae31d778c25a32ULL},
    {"accordion/IM/la1/ck1", 0x7410029d0aeaf561ULL},
    {"viterbi/IM/la1/ck1", 0x26a78db135dd223fULL},
    {"gap/IM/la1/ck2", 0x155bf48820e21eeaULL},
    {"accordion/IM/la1/ck2", 0x1837e755e25cef3aULL},
    {"viterbi/IM/la1/ck2", 0x3dc5dd57bcb7d535ULL},
    {"gap/IM/la2/ck0", 0x016e6ffef936c705ULL},
    {"accordion/IM/la2/ck0", 0xf70f5ec39b7d71f3ULL},
    {"viterbi/IM/la2/ck0", 0x23b990083ab8bdf2ULL},
    {"gap/IM/la2/ck1", 0xd3ae31d778c25a32ULL},
    {"accordion/IM/la2/ck1", 0x7410029d0aeaf561ULL},
    {"viterbi/IM/la2/ck1", 0x26a78db135dd223fULL},
    {"gap/IM/la2/ck2", 0x155bf48820e21eeaULL},
    {"accordion/IM/la2/ck2", 0x1837e755e25cef3aULL},
    {"viterbi/IM/la2/ck2", 0x3dc5dd57bcb7d535ULL},
    {"gap/CB/la0/ck0", 0x29c015ea098dc839ULL},
    {"accordion/CB/la0/ck0", 0xad1a91f1c9a9cad5ULL},
    {"viterbi/CB/la0/ck0", 0xd271146536f665c6ULL},
    {"gap/CB/la0/ck1", 0xd3ae31d778c25a32ULL},
    {"accordion/CB/la0/ck1", 0x4d2d6f5945bb42d4ULL},
    {"viterbi/CB/la0/ck1", 0x26a78db135dd223fULL},
    {"gap/CB/la0/ck2", 0x9388b8159452d94aULL},
    {"accordion/CB/la0/ck2", 0x2273ac1efdea2618ULL},
    {"viterbi/CB/la0/ck2", 0x9799f8a2874f3c1eULL},
    {"gap/CB/la1/ck0", 0xbe5bea4fe448723cULL},
    {"accordion/CB/la1/ck0", 0x593e8bdfb062d870ULL},
    {"viterbi/CB/la1/ck0", 0x1a0befaa88209776ULL},
    {"gap/CB/la1/ck1", 0xd3ae31d778c25a32ULL},
    {"accordion/CB/la1/ck1", 0x4d2d6f5945bb42d4ULL},
    {"viterbi/CB/la1/ck1", 0x26a78db135dd223fULL},
    {"gap/CB/la1/ck2", 0x9f886443f14b3c52ULL},
    {"accordion/CB/la1/ck2", 0x007ada94e0ee93eeULL},
    {"viterbi/CB/la1/ck2", 0x6e534613887dd846ULL},
    {"gap/CB/la2/ck0", 0xcca682c2d2d47ce8ULL},
    {"accordion/CB/la2/ck0", 0x709bff8f16cebddaULL},
    {"viterbi/CB/la2/ck0", 0xb54e27f5e100666aULL},
    {"gap/CB/la2/ck1", 0xd3ae31d778c25a32ULL},
    {"accordion/CB/la2/ck1", 0x4d2d6f5945bb42d4ULL},
    {"viterbi/CB/la2/ck1", 0x26a78db135dd223fULL},
    {"gap/CB/la2/ck2", 0x9f886443f14b3c52ULL},
    {"accordion/CB/la2/ck2", 0x007ada94e0ee93eeULL},
    {"viterbi/CB/la2/ck2", 0x6e534613887dd846ULL},
    {"ge/IM/la1/ck2/chaos5", 0x9df2f9687ec20c89ULL},
    {"gap/IM/la1/ck2/chaos5", 0x8e94b09cbd7b436fULL},
    {"ge/IM/la1/ck2/chaos11", 0xb25a3ffad75a2a8aULL},
    {"gap/IM/la1/ck2/chaos11", 0xe973bd33160c9518ULL},
};

TEST(DataflowGolden, TaskGraphsLineageAndRecoveryMatchRecordedDigests) {
  const auto captures = golden_captures();
  EXPECT_EQ(captures.size(), kGoldenDigests.size());
  for (const auto& [name, cap] : captures) {
    auto it = kGoldenDigests.find(name);
    ASSERT_NE(it, kGoldenDigests.end()) << name;
    EXPECT_EQ(cap.digest(), it->second)
        << name << " digest 0x" << std::hex << cap.digest();
  }
}

TEST(DataflowGolden, ChaosConfigsExerciseRecovery) {
  for (const auto& [name, cap] : golden_captures()) {
    if (name.find("/chaos") == std::string::npos) continue;
    EXPECT_GT(cap.recovery.task_failures, 0) << name;
    EXPECT_GT(cap.recovery.corrupted_blocks, 0) << name;
    EXPECT_GT(cap.recovery.partitions_recomputed, 0) << name;
  }
}

}  // namespace
