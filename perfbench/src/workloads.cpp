// workloads.cpp — the four benchmark workloads and their correctness checks.
//
//   fw_apsp          FW-APSP n=2048 b=256 (r=8), IM, barrier schedule:
//                    the paper's flagship run, kernel-bound.
//   fw_fine_dataflow FW-APSP n=1024 b=32 (r=32), IM, dataflow schedule:
//                    32,768 tile tasks per solve, engine-bound.
//   gap_wavefront    nested GAP n=384 b=48 under dataflow: the only
//                    workload on the nested module.
//   serve_mixed      JobServer, 2 contexts of local(1,1), 2 closed-loop
//                    clients (FW 50% / GE 25% / TC 25%, n=256 b=64) with 200
//                    point queries and an evict per job: the serve layer.
//
// Every run: setup (inputs, context or server, warm-up) repeated
// Sizes::setups times, the first in a cold process; an independent reference
// computed once, outside setup and outside the timed window; then the timed
// window, checking every output against the reference. The window is a fixed
// number of solves or jobs per requested second, so the context history a run
// leaves behind (and with it peak RSS) does not depend on host speed.
// Untraced runs report the end-to-end metrics; traced runs spend half the
// window untraced and half traced and report the per-layer metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baseline/nested_reference.hpp"
#include "bench.hpp"
#include "gepspark/solver.hpp"
#include "gepspark/workload.hpp"
#include "nested/nested_driver.hpp"
#include "nested/nested_plan.hpp"
#include "serve/job_server.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0) {
  gs::Rng rng(seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full));
  return rng();
}

std::vector<std::size_t> sample_rows(std::size_t n, std::size_t count, std::uint64_t seed) {
  gs::Rng rng(seed);
  std::vector<std::size_t> rows;
  while (rows.size() < std::min(count, n)) {
    const std::size_t r = rng.uniform_u64(n);
    if (std::find(rows.begin(), rows.end(), r) == rows.end()) rows.push_back(r);
  }
  return rows;
}

/// Single-source shortest paths over a dense adjacency matrix, O(n²).
std::vector<double> dijkstra_row(const gs::Matrix<double>& adj, std::size_t s) {
  const std::size_t n = adj.rows();
  std::vector<double> dist(n, kInf);
  std::vector<char> done(n, 0);
  dist[s] = 0.0;
  for (std::size_t it = 0; it < n; ++it) {
    std::size_t u = n;
    for (std::size_t v = 0; v < n; ++v) {
      if (!done[v] && (u == n || dist[v] < dist[u])) u = v;
    }
    if (u == n || dist[u] == kInf) break;
    done[u] = 1;
    for (std::size_t v = 0; v < n; ++v) {
      const double w = adj(u, v);
      if (w != kInf && dist[u] + w < dist[v]) dist[v] = dist[u] + w;
    }
  }
  return dist;
}

/// Vertices reachable from s (s included) by BFS over a 0/1 adjacency.
std::vector<std::uint8_t> bfs_row(const gs::Matrix<std::uint8_t>& adj, std::size_t s) {
  const std::size_t n = adj.rows();
  std::vector<std::uint8_t> seen(n, 0);
  std::vector<std::size_t> queue{s};
  seen[s] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t u = queue[head];
    for (std::size_t v = 0; v < n; ++v) {
      if (adj(u, v) != 0 && seen[v] == 0) {
        seen[v] = 1;
        queue.push_back(v);
      }
    }
  }
  return seen;
}

/// FW and Dijkstra add the same path weights in different orders.
bool dist_matches(double got, double want) {
  if (std::isinf(got) || std::isinf(want)) return got == want;
  return std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want));
}

bool rows_match(const gs::Matrix<double>& out, const std::vector<std::size_t>& sources,
                const std::vector<std::vector<double>>& rows) {
  for (std::size_t k = 0; k < sources.size(); ++k) {
    for (std::size_t j = 0; j < out.cols(); ++j) {
      if (!dist_matches(out(sources[k], j), rows[k][j])) return false;
    }
  }
  return true;
}

/// |(L·U)(i,j) − A(i,j)| on sampled cells of a GEP-eliminated table
/// (L(i,k) = e(i,k)/e(k,k) below the diagonal, U(k,j) = e(k,j)).
bool lu_cells_match(const gs::Matrix<double>& a, const gs::Matrix<double>& e,
                    const std::vector<std::pair<std::size_t, std::size_t>>& cells) {
  double scale = 1.0;
  for (std::size_t i = 0; i < a.rows(); ++i) scale = std::max(scale, std::abs(a(i, i)));
  const double tol = 1e-10 * double(a.rows()) * scale;
  for (const auto& [i, j] : cells) {
    double sum = e(i, j);
    for (std::size_t k = 0; k < std::min(i, j); ++k) sum += e(i, k) / e(k, k) * e(k, j);
    if (!(std::abs(sum - a(i, j)) <= tol)) return false;
  }
  return true;
}

struct Solved {
  gs::Matrix<double> matrix;
  obs::JobProfile profile;
  double kernel_s = 0.0;  ///< measured kernel CPU (traced GAP solves only)
  double cpu_s = 0.0;     ///< process CPU of the solve
};

/// Switch the program's own tracer on for traced solves only. Its spans are
/// dropped before each solve; the context's task and stage history is kept,
/// so its growth shows in peak RSS.
void set_program_tracer(sparklet::SparkContext& sc, bool traced) {
  sc.tracer().clear();
  sc.tracer().set_enabled(traced);
}

/// A batch workload: one context, one input, solved repeatedly.
class BatchWorkload {
 public:
  virtual ~BatchWorkload() = default;
  /// Generate the input and build the context (timed as setup).
  virtual void setup() = 0;
  virtual Solved solve(SpanLog& log, bool traced) = 0;
  /// Independent reference, computed once (untimed).
  virtual void reference() = 0;
  virtual bool check(const gs::Matrix<double>& out) const = 0;
  /// Damage one entry that check() reads (self-test).
  virtual void corrupt(gs::Matrix<double>& out) const = 0;
  /// Single-thread kernel seconds of a solve that took `cpu_s` of CPU.
  virtual double kernel_seconds(const std::vector<Solved>& traced, double cpu_s) = 0;
  virtual int grid_r() const = 0;
  virtual sparklet::SparkContext& context() = 0;
  int pool_threads() { return static_cast<int>(context().pool().num_threads()); }
};

class FwWorkload final : public BatchWorkload {
 public:
  FwWorkload(const Args& a, const Sizes& sz, std::size_t n, std::size_t b,
             gepspark::ScheduleMode mode, SpanLog& log)
      : args_(a), sz_(sz), n_(n), b_(b), log_(log) {
    opt_.block_size = b;
    opt_.strategy = gepspark::Strategy::kInMemory;
    opt_.schedule = mode;
    opt_.kernel = bench_kernel();
    opt_.checkpoint_interval = 1;
  }

  void setup() override {
    sc_.reset();
    input_ = gs::workload::random_digraph({.n = n_, .seed = args_.seed});
    sc_ = std::make_unique<sparklet::SparkContext>(bench_cluster(args_, 2, 2));
  }

  Solved solve(SpanLog& log, bool /*traced*/) override {
    ScopedCall span(log, "gepspark", "spark_floyd_warshall");
    auto out = gepspark::spark_floyd_warshall(*sc_, input_, opt_);
    return {std::move(out.matrix), std::move(out.profile)};
  }

  void reference() override {
    sources_ = sample_rows(n_, 16, derive_seed(args_.seed, 1));
    rows_.clear();
    for (std::size_t s : sources_) rows_.push_back(dijkstra_row(input_, s));
  }

  bool check(const gs::Matrix<double>& out) const override {
    return out.rows() == n_ && rows_match(out, sources_, rows_);
  }

  void corrupt(gs::Matrix<double>& out) const override {
    out(sources_[0], (sources_[0] + 1) % n_) += 1.0;
  }

  double kernel_seconds(const std::vector<Solved>&, double) override {
    return gep_kernel_seconds(kFw, n_, b_,
                              kernel_rates(kFw, b_, sz_, log_));
  }

  int grid_r() const override { return static_cast<int>((n_ + b_ - 1) / b_); }
  sparklet::SparkContext& context() override { return *sc_; }

 private:
  Args args_;
  Sizes sz_;
  std::size_t n_, b_;
  SpanLog& log_;
  gepspark::SolverOptions opt_;
  gs::Matrix<double> input_;
  std::unique_ptr<sparklet::SparkContext> sc_;
  std::vector<std::size_t> sources_;
  std::vector<std::vector<double>> rows_;
};

/// GapPlan with a span and a CPU clock around every tile-kernel call (traced
/// solves only), so the kernel share is measured rather than estimated.
class TimedGapPlan {
 public:
  using value_type = double;

  TimedGapPlan(const nested::GapPlan& plan, SpanLog& log, std::atomic<std::int64_t>& ns)
      : plan_(plan), log_(log), ns_(ns) {}

  static const char* name() { return nested::GapPlan::name(); }
  int grid_rows() const { return plan_.grid_rows(); }
  int grid_cols() const { return plan_.grid_cols(); }
  int waves() const { return plan_.waves(); }
  std::size_t block() const { return plan_.block(); }
  std::size_t tile_bytes(gs::TileKey k) const { return plan_.tile_bytes(k); }
  analysis::ScheduleWorkload workload() const { return plan_.workload(); }
  nested::WavePhases wave_phases(int wv) const { return plan_.wave_phases(wv); }
  gs::Matrix<double> assemble(const nested::TileLookup& at) const {
    return plan_.assemble(at);
  }

  nested::TileR compute(const nested::NestedTask& t, const nested::TileLookup& at) const {
    ScopedCall span(log_, "nested", "gap_tile_kernel");
    const double c0 = thread_cpu_seconds();
    nested::TileR out = plan_.compute(t, at);
    ns_.fetch_add(static_cast<std::int64_t>(1e9 * (thread_cpu_seconds() - c0)));
    return out;
  }

 private:
  const nested::GapPlan& plan_;
  SpanLog& log_;
  std::atomic<std::int64_t>& ns_;
};

class GapWorkload final : public BatchWorkload {
 public:
  GapWorkload(const Args& a, const Sizes& sz)
      : args_(a), prob_{sz.gap_n, a.seed}, plan_(prob_, sz.gap_b) {
    opt_.block_size = sz.gap_b;
    opt_.strategy = gepspark::Strategy::kInMemory;
    opt_.schedule = gepspark::ScheduleMode::kDataflow;
  }

  // The GAP input is a pure function of (n, seed): nothing to generate.
  void setup() override {
    sc_.reset();
    sc_ = std::make_unique<sparklet::SparkContext>(bench_cluster(args_, 2, 2));
  }

  Solved solve(SpanLog& log, bool traced) override {
    ScopedCall span(log, "nested", "nested_solve");
    if (!traced) {
      auto out = nested::nested_solve(*sc_, plan_, opt_);
      return {std::move(out.matrix), std::move(out.profile)};
    }
    std::atomic<std::int64_t> ns{0};
    auto out = nested::nested_solve(*sc_, TimedGapPlan(plan_, log, ns), opt_);
    return {std::move(out.matrix), std::move(out.profile), 1e-9 * double(ns.load())};
  }

  void reference() override { ref_ = gs::baseline::reference_gap(prob_); }

  // The tiled wavefront runs the reference's per-cell expression chain, so
  // the check is bitwise.
  bool check(const gs::Matrix<double>& out) const override { return out == ref_; }

  void corrupt(gs::Matrix<double>& out) const override {
    out(prob_.n / 2, prob_.n / 2) += 1.0;
  }

  // The kernel's share of each traced solve's CPU, applied to `cpu_s`.
  double kernel_seconds(const std::vector<Solved>& traced, double cpu_s) override {
    std::vector<double> shares;
    for (const Solved& s : traced) shares.push_back(s.kernel_s / s.cpu_s);
    return median(shares) * cpu_s;
  }

  int grid_r() const override { return plan_.grid_rows(); }
  sparklet::SparkContext& context() override { return *sc_; }

 private:
  Args args_;
  const nested::GapProblem prob_;
  const nested::GapPlan plan_;
  gepspark::SolverOptions opt_;
  std::unique_ptr<sparklet::SparkContext> sc_;
  gs::Matrix<double> ref_;
};

struct BatchPhase {
  std::vector<double> wall, cpu, virt;
  std::vector<Solved> traced;  ///< traced solves keep their outcome (no table)
  obs::JobProfile first;
  bool counts_repeat = true;
};

bool same_counts(const obs::JobProfile& a, const obs::JobProfile& b) {
  return a.tasks == b.tasks && a.stages == b.stages &&
         a.shuffle_bytes == b.shuffle_bytes && a.collect_bytes == b.collect_bytes &&
         a.recovery.checkpoint_blocks == b.recovery.checkpoint_blocks &&
         a.recovery.task_retries == b.recovery.task_retries;
}

/// Time a fixed number of solves, so every run leaves the context with the
/// same task history (it grows per solve), with `max_seconds` as the safety
/// stop; each solve is checked after its clock stops.
BatchPhase timed_solves(const Args& a, BatchWorkload& w, SpanLog& log, std::int64_t solves,
                        double max_seconds, bool traced, RunResult& res) {
  BatchPhase ph;
  log.set_enabled(traced);
  const auto start = Clock::now();
  for (std::int64_t i = 0; i < solves && seconds_since(start) < max_seconds; ++i) {
    ++res.attempted;
    set_program_tracer(w.context(), traced);
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    Solved s;
    try {
      s = w.solve(log, traced);
    } catch (const std::exception& e) {
      ++res.failed;
      res.info["error"] = e.what();
      continue;
    }
    const double wall = seconds_since(t0);
    const double cpu = cpu_seconds() - c0;
    if (a.corrupt && res.attempted == 1) w.corrupt(s.matrix);
    if (!w.check(s.matrix)) ++res.failed;
    ph.wall.push_back(wall);
    ph.cpu.push_back(cpu);
    ph.virt.push_back(s.profile.virtual_seconds);
    if (ph.wall.size() == 1) {
      ph.first = s.profile;
    } else if (!same_counts(ph.first, s.profile)) {
      ph.counts_repeat = false;
    }
    if (traced) {
      s.cpu_s = cpu;
      s.matrix = gs::Matrix<double>();
      ph.traced.push_back(std::move(s));
    }
  }
  log.set_enabled(false);
  return ph;
}

/// Per-solve engine numbers. `kernel_s` is single-thread kernel time per
/// solve; efficiency = kernel_s / (solve_s × threads), the kernel share =
/// kernel_s / CPU, and the rest of the CPU is engine time per task.
struct GepLayer {
  obs::JobProfile counts;
  double solve_s = 0, cpu_s = 0, kernel_s = 0, tasks = 0, virtual_s = 0;
  int r = 1, threads = 1;
};

void gepspark_layer(RunResult& res, const GepLayer& g) {
  constexpr double kMiB = 1024.0 * 1024.0;
  const obs::JobProfile& p = g.counts;
  res.layer("gepspark.tasks", p.tasks, "count");
  res.layer("gepspark.stages", p.stages, "count");
  res.layer("gepspark.shuffle_mb", double(p.shuffle_bytes) / kMiB, "MiB");
  res.layer("gepspark.collect_mb", double(p.collect_bytes) / kMiB, "MiB");
  res.layer("gepspark.checkpoint_blocks", p.recovery.checkpoint_blocks, "count");
  res.layer("gepspark.task_retries", p.recovery.task_retries, "count");
  res.layer("gepspark.kstep_ms", 1e3 * g.solve_s / g.r, "ms");
  res.layer("gepspark.efficiency", g.kernel_s / (g.solve_s * g.threads), "ratio");
  res.layer("gepspark.kernel_share", g.kernel_s / g.cpu_s, "ratio");
  res.layer("gepspark.engine_cpu_us_per_task", 1e6 * (g.cpu_s - g.kernel_s) / g.tasks, "us");
  res.layer("gepspark.virtual_s", g.virtual_s, "modeled_s");
}

// ------------------------------------------------------------------ serve

constexpr serve::ProblemKind kServeKinds[3] = {serve::ProblemKind::kFloydWarshall,
                                               serve::ProblemKind::kGaussianElimination,
                                               serve::ProblemKind::kTransitiveClosure};

struct ServeInput {
  SpecKind kind = kFw;
  gs::Matrix<double> matrix;          ///< fw / ge input
  gs::Matrix<std::uint8_t> bools;     ///< tc input
  std::vector<std::size_t> sources;   ///< rows the check and queries read
  std::vector<std::vector<double>> dist_rows;        ///< fw reference
  std::vector<std::vector<std::uint8_t>> reach_rows; ///< tc reference
  std::vector<std::pair<std::size_t, std::size_t>> ge_cells;  ///< ge check

  std::size_t n() const { return kind == kTc ? bools.rows() : matrix.rows(); }
};

/// Request inputs per problem kind.
using ServePool = std::array<std::vector<ServeInput>, 3>;

ServePool make_serve_pool(const Args& a, const Sizes& sz) {
  ServePool pool;
  const std::size_t n = sz.serve_n;
  for (int k = 0; k < 3; ++k) {
    for (int i = 0; i < sz.inputs_per_kind; ++i) {
      const std::uint64_t s = derive_seed(a.seed, 100 + k, i);
      ServeInput in;
      in.kind = static_cast<SpecKind>(k);
      if (k == kFw) in.matrix = gs::workload::random_digraph({.n = n, .seed = s});
      if (k == kGe) in.matrix = gs::workload::diagonally_dominant_matrix(n, s);
      if (k == kTc) in.bools = gs::workload::random_bool_digraph(n, 0.01, s);
      in.sources = sample_rows(n, 8, derive_seed(s, 1));
      pool[k].push_back(std::move(in));
    }
  }
  return pool;
}

void serve_reference(ServePool& pool, std::uint64_t seed) {
  for (auto& in : pool[kFw]) {
    for (std::size_t s : in.sources) in.dist_rows.push_back(dijkstra_row(in.matrix, s));
  }
  for (auto& in : pool[kTc]) {
    for (std::size_t s : in.sources) in.reach_rows.push_back(bfs_row(in.bools, s));
  }
  for (auto& in : pool[kGe]) {
    gs::Rng rng(derive_seed(seed, 7, in.sources[0]));
    for (int c = 0; c < 64; ++c) {
      in.ge_cells.emplace_back(rng.uniform_u64(in.n()), rng.uniform_u64(in.n()));
    }
  }
}

serve::SolveRequest make_request(const ServeInput& in, const std::string& tenant,
                                 const Sizes& sz) {
  serve::SolveRequest req;
  req.kind = kServeKinds[in.kind];
  req.tenant = tenant;
  req.options.block_size = sz.serve_b;
  req.options.kernel = bench_kernel();
  if (in.kind == kTc) {
    req.bool_matrix = in.bools;
  } else {
    req.matrix = in.matrix;
  }
  return req;
}

/// Check a served table; `corrupt` damages a copy of one checked entry.
bool check_table(const ServeInput& in, const serve::ResidentTable& t, bool corrupt) {
  if (in.kind == kTc) {
    gs::Matrix<std::uint8_t> b = t.bools;
    if (corrupt) b(in.sources[0], in.sources[0]) ^= 1;
    for (std::size_t k = 0; k < in.sources.size(); ++k) {
      for (std::size_t v = 0; v < in.n(); ++v) {
        if ((b(in.sources[k], v) != 0) != (in.reach_rows[k][v] != 0)) return false;
      }
    }
    return true;
  }
  gs::Matrix<double> m = t.values;
  if (in.kind == kFw) {
    if (corrupt) m(in.sources[0], (in.sources[0] + 1) % in.n()) += 1.0;
    return rows_match(m, in.sources, in.dist_rows);
  }
  if (corrupt) m(in.ge_cells[0].first, in.ge_cells[0].second) += 1.0;
  return lu_cells_match(in.matrix, m, in.ge_cells);
}

struct ServeLoop {
  /// Per job: submit → terminal status; the client's whole cycle (request,
  /// submit, await, queries, evict; not the check); submit call; queries.
  std::vector<double> latency_s, cycle_s, submit_us, query_us;
  std::int64_t attempted = 0, failed = 0, done = 0;
  std::array<std::int64_t, 3> done_by_kind{};
  double tasks = 0.0;
  double window_s = 0.0, cpu_s = 0.0;
  std::vector<obs::JobProfile> fw_profiles;
  std::string error;

  void merge(ServeLoop&& o) {
    latency_s.insert(latency_s.end(), o.latency_s.begin(), o.latency_s.end());
    cycle_s.insert(cycle_s.end(), o.cycle_s.begin(), o.cycle_s.end());
    submit_us.insert(submit_us.end(), o.submit_us.begin(), o.submit_us.end());
    query_us.insert(query_us.end(), o.query_us.begin(), o.query_us.end());
    attempted += o.attempted;
    failed += o.failed;
    done += o.done;
    for (int k = 0; k < 3; ++k) done_by_kind[k] += o.done_by_kind[k];
    tasks += o.tasks;
    for (auto& p : o.fw_profiles) fw_profiles.push_back(std::move(p));
    if (error.empty()) error = o.error;
  }
};

/// One closed-loop client: submit, await, check, query, evict — repeated
/// over a seeded mix with exactly 2 FW, 1 GE and 1 TC in every 4 requests,
/// until the clients have taken `jobs` jobs or `max_seconds` have passed.
void serve_client(serve::JobServer& server, const ServePool& pool, const Sizes& sz,
                  std::uint64_t seed, int client, Clock::time_point start,
                  std::int64_t jobs, double max_seconds, bool corrupt,
                  std::atomic<std::int64_t>& claimed, SpanLog& log, ServeLoop& out) {
  const std::string tenant = gs::strfmt("tenant-%d", client);
  gs::Rng rng(derive_seed(seed, 200, client));
  std::array<SpecKind, 4> block{kFw, kFw, kGe, kTc};
  std::size_t next = block.size();
  bool first = true;
  while (claimed.fetch_add(1) < jobs && seconds_since(start) < max_seconds) {
    const auto cycle0 = Clock::now();
    if (next == block.size()) {
      for (std::size_t i = block.size() - 1; i > 0; --i) {
        std::swap(block[i], block[rng.uniform_u64(i + 1)]);
      }
      next = 0;
    }
    const SpecKind kind = block[next++];
    const auto& candidates = pool[kind];
    const ServeInput& in = candidates[rng.uniform_u64(candidates.size())];
    serve::SolveRequest req = make_request(in, tenant, sz);

    ScopedCall job_span(log, "serve", gs::strfmt("job.%s", serve::problem_kind_name(req.kind)));
    ++out.attempted;
    serve::SolveTicket ticket;
    const auto t0 = Clock::now();
    try {
      ScopedCall span(log, "serve", "submit", job_span.id(), job_span.id());
      ticket = server.submit(std::move(req));
    } catch (const std::exception& e) {  // admission refusal counts as failed
      ++out.failed;
      out.error = e.what();
      continue;
    }
    out.submit_us.push_back(1e6 * seconds_since(t0));
    serve::JobStatus status = serve::JobStatus::kFailed;
    {
      ScopedCall span(log, "serve", "await", job_span.id(), ticket.id());
      status = ticket.await();
    }
    out.latency_s.push_back(seconds_since(t0));
    const serve::JobId id = ticket.id();
    std::shared_ptr<const serve::ResidentTable> table = server.table(id);
    if (status != serve::JobStatus::kDone || table == nullptr) {
      ++out.failed;
      out.error = ticket.error();
      continue;
    }
    const auto check0 = Clock::now();
    bool ok = check_table(in, *table, corrupt && first);
    const double check_s = seconds_since(check0);
    first = false;
    {
      ScopedCall span(log, "serve", "queries", job_span.id(), id);
      for (int q = 0; q < sz.serve_queries; ++q) {
        const std::size_t si = static_cast<std::size_t>(q) % in.sources.size();
        const std::size_t u = in.sources[si];
        const std::size_t v = rng.uniform_u64(in.n());
        const auto q0 = Clock::now();
        if (kind == kTc) {
          const bool got = server.query_reachable(id, u, v);
          out.query_us.push_back(1e6 * seconds_since(q0));
          ok = ok && got == (in.reach_rows[si][v] != 0);
        } else {
          const double got = server.query_dist(id, u, v);
          out.query_us.push_back(1e6 * seconds_since(q0));
          ok = ok && (kind == kFw ? dist_matches(got, in.dist_rows[si][v])
                                  : got == table->values(u, v));
        }
      }
    }
    {
      ScopedCall span(log, "serve", "evict", job_span.id(), id);
      ok = server.evict(id) && ok;
    }
    out.cycle_s.push_back(seconds_since(cycle0) - check_s);
    if (!ok) ++out.failed;
    ++out.done;
    ++out.done_by_kind[kind];
    out.tasks += table->profile.tasks;
    if (kind == kFw) out.fw_profiles.push_back(table->profile);
  }
}

constexpr int kClients = 2;

/// The closed loop runs a fixed number of jobs, so every run leaves the
/// server's contexts with the same task history (it grows per job), with
/// `max_seconds` as the safety stop.
ServeLoop serve_loop(serve::JobServer& server, const ServePool& pool, const Args& a,
                     const Sizes& sz, std::int64_t jobs, double max_seconds,
                     bool corrupt, bool traced, SpanLog& log) {
  log.set_enabled(traced);
  std::array<ServeLoop, kClients> per_client;
  std::atomic<std::int64_t> claimed{0};
  const double c0 = cpu_seconds();
  const auto start = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        try {
          serve_client(server, pool, sz, a.seed, c, start, jobs, max_seconds,
                       corrupt && c == 0, claimed, log, per_client[c]);
        } catch (const std::exception& e) {
          ++per_client[c].failed;
          per_client[c].error = e.what();
        }
      });
    }
    for (auto& t : clients) t.join();
  }
  ServeLoop all;
  all.window_s = seconds_since(start);
  all.cpu_s = cpu_seconds() - c0;
  for (auto& c : per_client) all.merge(std::move(c));
  log.set_enabled(false);
  return all;
}

serve::ServerConfig server_config(const Args& a) {
  serve::ServerConfig cfg;
  cfg.cluster = bench_cluster(a, 1, 1);
  cfg.num_contexts = 2;
  return cfg;
}

/// Build a server and warm both contexts with one job of every kind per
/// tenant, submitted together.
std::unique_ptr<serve::JobServer> warm_server(const Args& a, const Sizes& sz,
                                              const ServePool& pool) {
  auto server = std::make_unique<serve::JobServer>(server_config(a));
  std::vector<serve::SolveTicket> tickets;
  for (int c = 0; c < kClients; ++c) {
    for (int k = 0; k < 3; ++k) {
      tickets.push_back(server->submit(
          make_request(pool[k][0], gs::strfmt("tenant-%d", c), sz)));
    }
  }
  for (auto& t : tickets) {
    GS_CHECK_MSG(t.await() == serve::JobStatus::kDone, "warm-up job failed");
    server->evict(t.id());
  }
  return server;
}

/// serve::solve_now on the same mix: execution time without the server.
double serve_exec_ms_p50(const Args& a, const Sizes& sz, const ServePool& pool, SpanLog& log) {
  sparklet::SparkContext sc(bench_cluster(a, 1, 1));
  const SpecKind cycle[4] = {kFw, kFw, kGe, kTc};
  auto request = [&](int i) {
    return make_request(pool[cycle[i % 4]][(i / 4) % pool[0].size()], "probe", sz);
  };
  serve::solve_now(sc, request(0));  // warm-up of the fresh context
  std::vector<double> ms;
  const auto start = Clock::now();
  for (int i = 0; ms.size() < 8 || seconds_since(start) < 0.5; ++i) {
    const serve::SolveRequest req = request(i);
    ScopedCall span(log, "serve", "solve_now");
    const auto t0 = Clock::now();
    serve::solve_now(sc, req);
    ms.push_back(1e3 * seconds_since(t0));
  }
  return median(ms);
}

void serve_layer(RunResult& res, const ServeLoop& loop, double exec_ms,
                 const serve::ServerStats& stats) {
  res.layer("serve.exec_ms_p50", exec_ms, "ms");
  res.layer("serve.overhead_ms_p50", 1e3 * median(loop.latency_s) - exec_ms, "ms");
  res.layer("serve.submit_us_p50", median(loop.submit_us), "us");
  res.layer("serve.query_us_p50", median(loop.query_us), "us");
  res.layer("serve.query_us_p99", quantile(loop.query_us, 0.99), "us");
  res.layer("serve.job_latency_p99_ms", 1e3 * quantile(loop.latency_s, 0.99), "ms");
  res.layer("serve.rejected", double(stats.rejected), "count");
  res.layer("serve.failed", double(stats.failed), "count");
  res.info["serve.latency_samples"] = std::to_string(loop.latency_s.size());
  res.info["serve.query_samples"] = std::to_string(loop.query_us.size());
}

/// The serve layer probe of a batch workload's traced run: a short closed
/// loop on the serve_mixed configuration.
void serve_probe(const Args& a, const Sizes& sz, SpanLog& log, RunResult& res) {
  Sizes probe = sz;
  probe.inputs_per_kind = 1;
  ServePool pool = make_serve_pool(a, probe);
  serve_reference(pool, a.seed);
  auto server = warm_server(a, probe, pool);
  ServeLoop loop = serve_loop(*server, pool, a, probe, 200, 2.0, false, false, log);
  res.attempted += loop.attempted;
  res.failed += loop.failed;
  serve_layer(res, loop, serve_exec_ms_p50(a, probe, pool, log), server->stats());
}

RunResult run_batch(const Args& a, const Sizes& sz, SpanLog& log, BatchWorkload& w,
                    double solves_per_s) {
  RunResult res;
  std::vector<double> setups;
  for (int s = 0; s < sz.setups; ++s) {
    const auto t0 = Clock::now();
    w.setup();
    set_program_tracer(w.context(), false);
    w.solve(log, false);  // warm-up: thread pools, allocator, page faults
    setups.push_back(seconds_since(t0));
  }
  res.info["pool_threads"] = std::to_string(w.pool_threads());
  const auto r0 = Clock::now();
  w.reference();
  res.info["reference_s"] = json_number(seconds_since(r0));
  res.samples["setup_s"] = setups;

  const double window = a.trace ? 0.5 * a.seconds : a.seconds;
  const auto solves = std::max<std::int64_t>(
      sz.min_solves, static_cast<std::int64_t>(std::ceil(solves_per_s * window)));
  BatchPhase plain = timed_solves(a, w, log, solves, 2.0 * window, false, res);
  res.samples["solve_s"] = plain.wall;
  res.samples["solve_cpu_s"] = plain.cpu;
  res.info["counts_repeat"] = plain.counts_repeat ? "true" : "false";
  res.info["solves"] = std::to_string(plain.wall.size()) + "/" + std::to_string(solves);
  if (plain.wall.empty()) return res;
  const double solve_s = median(plain.wall);
  const double cpu_s = median(plain.cpu);
  if (!a.trace) {
    res.e2e("setup_s", mean(setups), "s");
    res.e2e("solve_s", solve_s, "s");
    res.e2e("solve_cpu_s", cpu_s, "s");
    // Completed solves over the summed solve time: a mean, so stalls count.
    res.e2e("jobs_per_s", double(plain.wall.size()) / sum(plain.wall), "1/s");
    res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return res;
  }
  BatchPhase traced = timed_solves(a, w, log, solves, 2.0 * window, true, res);
  res.samples["traced_solve_s"] = traced.wall;
  log.set_enabled(true);
  GepLayer g;
  g.counts = plain.first;
  g.solve_s = solve_s;
  g.cpu_s = cpu_s;
  g.kernel_s = w.kernel_seconds(traced.traced, cpu_s);
  g.tasks = plain.first.tasks;
  g.virtual_s = median(plain.virt);
  g.r = w.grid_r();
  g.threads = w.pool_threads();
  gepspark_layer(res, g);
  res.layer("trace.overhead_s", median(traced.wall) - solve_s, "s");
  probe_layers(a, sz, log, res);
  log.set_enabled(false);
  serve_probe(a, sz, log, res);
  return res;
}

RunResult run_serve(const Args& a, const Sizes& sz, SpanLog& log) {
  RunResult res;
  std::vector<double> setups;
  ServePool pool;
  std::unique_ptr<serve::JobServer> server;
  for (int s = 0; s < sz.setups; ++s) {
    server.reset();
    const auto t0 = Clock::now();
    pool = make_serve_pool(a, sz);
    server = warm_server(a, sz, pool);
    setups.push_back(seconds_since(t0));
  }
  res.info["pool_threads"] = std::to_string(server->num_contexts());
  const auto r0 = Clock::now();
  serve_reference(pool, a.seed);
  res.info["reference_s"] = json_number(seconds_since(r0));
  res.samples["setup_s"] = setups;

  const double window = a.trace ? 0.5 * a.seconds : a.seconds;
  const auto jobs = static_cast<std::int64_t>(std::ceil(sz.serve_jobs_per_s * window));
  ServeLoop plain = serve_loop(*server, pool, a, sz, jobs, 1.5 * window, a.corrupt, false, log);
  res.attempted += plain.attempted;
  res.failed += plain.failed;
  if (!plain.error.empty()) res.info["error"] = plain.error;
  res.samples["job_latency_s"] = plain.latency_s;
  res.samples["job_cycle_s"] = plain.cycle_s;
  res.info["jobs_done"] = std::to_string(plain.done);
  if (plain.done == 0) return res;
  if (!a.trace) {
    res.e2e("setup_s", mean(setups), "s");
    res.e2e("solve_s", median(plain.latency_s), "s");
    res.e2e("solve_cpu_s", plain.cpu_s / double(plain.done), "s");
    // Closed loop: clients ÷ mean client cycle, so every job's time counts
    // (the benchmark's own checks are outside the cycle; the window rate,
    // which includes them, is kept in the info line).
    res.e2e("jobs_per_s", kClients / mean(plain.cycle_s), "1/s");
    res.info["jobs_per_s_window"] = json_number(double(plain.done) / plain.window_s);
    res.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    res.info["job_latency_p99_ms"] = json_number(1e3 * quantile(plain.latency_s, 0.99));
    res.info["query_latency_p50_us"] = json_number(median(plain.query_us));
    res.info["query_latency_p99_us"] = json_number(quantile(plain.query_us, 0.99));
    return res;
  }
  ServeLoop traced = serve_loop(*server, pool, a, sz, jobs, 1.5 * window, false, true, log);
  res.attempted += traced.attempted;
  res.failed += traced.failed;
  res.samples["traced_job_latency_s"] = traced.latency_s;

  log.set_enabled(true);
  const KernelRates& fw = kernel_rates(kFw, sz.serve_b, sz, log);
  const KernelRates& ge = kernel_rates(kGe, sz.serve_b, sz, log);
  const KernelRates& tc = kernel_rates(kTc, sz.serve_b, sz, log);
  const double fw_kernel_s = gep_kernel_seconds(kFw, sz.serve_n, sz.serve_b, fw);
  const double kernel_total =
      double(plain.done_by_kind[kFw]) * fw_kernel_s +
      double(plain.done_by_kind[kGe]) * gep_kernel_seconds(kGe, sz.serve_n, sz.serve_b, ge) +
      double(plain.done_by_kind[kTc]) * gep_kernel_seconds(kTc, sz.serve_n, sz.serve_b, tc);
  std::vector<double> fw_exec, fw_virt;
  for (const auto& p : plain.fw_profiles) {
    fw_exec.push_back(p.wall_seconds);
    fw_virt.push_back(p.virtual_seconds);
  }
  // FW jobs give the per-solve numbers (one pool thread per context); the
  // kernel share and engine CPU per task are totals over every job of the
  // window against the process CPU, scaled to one FW job.
  const double fw_share = fw_kernel_s / kernel_total;
  GepLayer g;
  if (!plain.fw_profiles.empty()) g.counts = plain.fw_profiles.front();
  g.solve_s = median(fw_exec);
  g.cpu_s = plain.cpu_s * fw_share;
  g.kernel_s = fw_kernel_s;
  g.tasks = plain.tasks * fw_share;
  g.virtual_s = median(fw_virt);
  g.r = static_cast<int>((sz.serve_n + sz.serve_b - 1) / sz.serve_b);
  gepspark_layer(res, g);
  res.layer("trace.overhead_s", median(traced.latency_s) - median(plain.latency_s), "s");
  probe_layers(a, sz, log, res);
  serve_layer(res, plain, serve_exec_ms_p50(a, sz, pool, log), server->stats());
  log.set_enabled(false);
  return res;
}

}  // namespace

RunResult run_workload(const Args& a, const Sizes& sz, SpanLog& log) {
  if (a.workload == "fw_apsp") {
    FwWorkload w(a, sz, sz.fw_n, sz.fw_b, gepspark::ScheduleMode::kBarrier, log);
    return run_batch(a, sz, log, w, sz.fw_solves_per_s);
  }
  if (a.workload == "fw_fine_dataflow") {
    FwWorkload w(a, sz, sz.fine_n, sz.fine_b, gepspark::ScheduleMode::kDataflow, log);
    return run_batch(a, sz, log, w, sz.fine_solves_per_s);
  }
  if (a.workload == "gap_wavefront") {
    GapWorkload w(a, sz);
    return run_batch(a, sz, log, w, sz.gap_solves_per_s);
  }
  if (a.workload == "serve_mixed") return run_serve(a, sz, log);
  throw std::invalid_argument("unknown workload: " + a.workload);
}

}  // namespace perfbench
