// dataflow.hpp — the tile-level dataflow engine, shared by the GEP drivers
// and the nested wavefront workloads, plus its GEP planner.
//
// Instead of a per-phase barrier loop (A, then B/C, then D — paper Listings
// 1 & 2 — or one wavefront phase at a time), the engine builds the exact
// dependency DAG over tile tasks and releases each task the moment its inputs
// are ready. DataflowEngine<Planner> owns everything that does not depend on
// the recurrence:
//
//   * the node table — one immutable tile version plus its lineage (the
//     kernel call that made it) per node, deps in one flat pool — and the
//     latest-version map from grid cell to node;
//   * segments: one task graph per checkpoint segment through
//     SparkContext::run_task_graph (per-attempt task failures, stragglers,
//     executor kills, speculation); a checkpoint is a global materialization
//     fence, so lookahead pipelines freely within a segment only;
//   * routing: IM sends every cross-executor data edge through a modeled
//     transfer task (one per producer × destination, like a map output
//     fetched once per reducer), which overlaps compute; CB instead charges
//     each step's driver collect/broadcast;
//   * per-step zero-cost fences and the lookahead gate: step k may not start
//     before the fence of step k - lookahead - 1;
//   * checksummed checkpoint snapshots with corruption heal at every
//     segment boundary (so each segment starts from pinned tiles only), the
//     final tiles as executor-store blocks with the storage-tier block
//     source, lineage recomputation down to pinned data, and the lineage and
//     graph logs the analysis tools read.
//
// A planner supplies only what differs: the grid shape and step count, the
// nodes each step emits (add_input / add_node / add_task / add_batch_task),
// the kernel a node runs, and how the final tiles become the result.
// GepPlanner below emits A/B/C/D with deps self,u,v,w; nested::NestedPlanner
// (nested/nested_driver.hpp) adapts a wavefront Plan.
//
// Invariants that keep graphs and lineage stable:
//   * live tiles are visited in the order each grid cell was first inserted
//     (row-major for GEP, whose inputs are inserted row-major; node-creation
//     order for the single-assignment nested plans), which fixes the
//     checkpoint order and the checksum seeds;
//   * a node's dep list keeps repeats (GEP's B/C/D read the pivot as u or v
//     and as w); a task routes each distinct dep once, and only fused
//     batches sort and dedupe the union of their members' edges;
//   * a lineage record is a source iff it has no deps.
//
// Tile outputs are immutable and every kernel is pure, so results are
// bit-identical to the barrier drivers under any schedule, chaos plan, or
// recovery.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/hb_detector.hpp"
#include "analysis/model_check.hpp"
#include "analysis/schedule_check.hpp"
#include "gepspark/copy_plan.hpp"
#include "gepspark/options.hpp"
#include "grid/tile_grid.hpp"
#include "kernels/tile_ops.hpp"
#include "obs/span.hpp"
#include "semiring/gep_spec.hpp"
#include "sparklet/context.hpp"
#include "sparklet/item_codec.hpp"
#include "sparklet/partitioner.hpp"
#include "sparklet/storage_level.hpp"
#include "support/check.hpp"
#include "support/format.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace gepspark {

template <typename Planner>
class DataflowEngine : public sparklet::BlockSource {
 public:
  using TileR = typename Planner::TileR;
  using Payload = typename Planner::Payload;

  /// One immutable tile version plus its lineage. Consumers reference
  /// producer nodes, never keys, so overlapping steps can hold several live
  /// versions of one grid cell.
  struct Node {
    TileR out;  ///< materialized tile; empty = lost, recomputable
    std::size_t bytes = 0;
    gs::TileKey key{0, 0};
    int k = -1;  ///< producing step (-1 for a pinned input)
    int executor = 0;
    int dep_begin = 0;  ///< deps: dep_pool_[dep_begin, dep_begin + dep_count)
    int dep_count = 0;
    int task = -1;  ///< producing task, valid while its segment is built
    char kind = 0;  ///< kernel kind letter
    bool pinned = false;  ///< survives anything (input / checkpoint snapshot)
    [[no_unique_address]] Payload payload{};
  };

  DataflowEngine(sparklet::SparkContext& sc, const SolverOptions& opt,
                 Planner planner, sparklet::PartitionerPtr part)
      : sc_(sc),
        opt_(opt),
        planner_(std::move(planner)),
        part_(std::move(part)),
        store_rdd_(sc_.next_rdd_id()),
        cols_(planner_.grid_cols()),
        latest_(static_cast<std::size_t>(planner_.grid_rows()) *
                    static_cast<std::size_t>(cols_),
                -1) {
    // The engine is the block source for its carried tiles: when the store
    // demotes one down the storage ladder (serialize / spill), the payload
    // comes from — and readbacks restore into — the node table.
    sc_.set_block_source(store_rdd_, this);
  }

  ~DataflowEngine() override {
    sc_.clear_block_source(store_rdd_);  // also removes executor-store blocks
    sc_.shared_fs().remove_rdd_blocks(store_rdd_);
  }

  DataflowEngine(const DataflowEngine&) = delete;
  DataflowEngine& operator=(const DataflowEngine&) = delete;

  /// Test hook: when set, every task graph handed to run_task_graph is also
  /// appended here (one spec vector per segment), so tests can assert the
  /// exact edge set the engine builds.
  void set_graph_log(std::vector<std::vector<sparklet::DataflowTaskSpec>>* log) {
    graph_log_ = log;
  }

  /// Analysis hook (`--audit-recovery`): when set, the engine appends one
  /// lineage snapshot per checkpoint segment — the node table plus the live
  /// block set at the boundary — for analysis::audit_recovery_closure to
  /// verify every possible loss re-derives from pinned data.
  void set_lineage_log(std::vector<analysis::LineageSnapshot>* log) {
    lineage_log_ = log;
  }

  /// Run every step of the planner and return its result, after charging
  /// the driver-side gather of the final tiles.
  auto solve() {
    planner_.add_inputs(*this);
    const int steps = planner_.steps();
    const int interval = opt_.checkpoint_interval;
    // Every segment but the last ends at a multiple of the interval and is
    // checkpointed, so the next one starts from pinned tiles only.
    const int seg_len = interval > 0 ? interval : steps;
    int seg_index = 0;
    for (int s = 0; s < steps; s += seg_len, ++seg_index) {
      const int e = std::min(s + seg_len, steps);
      run_segment(s, e);
      if (interval > 0 && e % interval == 0) {
        checkpoint_snapshot();
      } else {
        register_carried_blocks();
      }
      drop_stale_outs();
      if (lineage_log_ != nullptr) log_lineage_snapshot(seg_index);
    }

    // Registering the final segment's tiles may have demoted some of them
    // down the storage ladder (releasing the in-memory copy); read them back
    // before the gather.
    restore_live_outs();
    std::size_t total_bytes = 0;
    for (std::size_t s : live_) total_bytes += node(latest_[s]).bytes;
    sc_.charge_collect(total_bytes);  // gatherResult
    return planner_.finish(*this);
  }

  const Planner& planner() const { return planner_; }

  // --------------- planner interface: reading the node table ---------------

  const SolverOptions& options() const { return opt_; }

  const Node& node(int id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }

  std::span<const int> deps(const Node& nd) const {
    return {dep_pool_.data() + nd.dep_begin,
            static_cast<std::size_t>(nd.dep_count)};
  }

  /// Node id of the latest version of grid cell `key`.
  int latest(gs::TileKey key) const {
    const int id = latest_.at(slot(key));
    GS_CHECK_MSG(id >= 0, "tile has no version yet");
    return id;
  }

  // ------------- planner interface: emitting nodes and tasks -------------

  /// A pinned input tile: lineage recomputation always bottoms out here.
  void add_input(gs::TileKey key, TileR tile) {
    Node nd;
    nd.key = key;
    nd.bytes = tile->bytes();
    nd.out = std::move(tile);
    nd.pinned = true;
    nd.executor = executor_of_key(key);
    push_node(std::move(nd));
  }

  /// A new version of `key` made at step `k` by kernel `kind` from `deps`
  /// (node ids; negative entries are skipped, repeats are kept). It becomes
  /// the cell's latest version. `payload` is moved in after `deps` is read,
  /// so `deps` may be a view over it.
  template <typename Deps>
  int add_node(gs::TileKey key, char kind, int k, std::size_t bytes,
               const Deps& deps, Payload&& payload = Payload{}) {
    Node nd;
    nd.key = key;
    nd.kind = kind;
    nd.k = k;
    nd.bytes = bytes;
    nd.executor = executor_of_key(key);
    nd.dep_begin = static_cast<int>(dep_pool_.size());
    for (int dep : deps) {
      if (dep >= 0) dep_pool_.push_back(dep);
    }
    nd.dep_count = static_cast<int>(dep_pool_.size()) - nd.dep_begin;
    nd.payload = std::move(payload);
    const int group = Planner::cb_group(kind);
    if (group >= 0) {
      cb_bytes_[static_cast<std::size_t>(k - seg_start_)]
               [static_cast<std::size_t>(group)] += bytes;
    }
    return push_node(std::move(nd));
  }

  /// One graph task running node `id`.
  void add_task(int id) {
    Node& nd = nodes_[static_cast<std::size_t>(id)];
    sparklet::DataflowTaskSpec t;
    t.label = planner_.task_label(nd.kind);
    t.executor = nd.executor;
    t.gep_kind = nd.kind;
    t.gep_k = nd.k;
    t.tile_i = nd.key.i;
    t.tile_j = nd.key.j;
    route_deps(nd, nd.executor, t.deps);
    gate(nd.k, t.deps);
    members_.push_back(id);
    nd.task = push_task(std::move(t), {static_cast<int>(members_.size()) - 1, 1,
                                       /*batch=*/false});
  }

  /// ONE task on `executor` running every node of `group` (same kind and
  /// step) through Planner::compute_batch. The spec keeps per-tile identity
  /// in `batch` (union footprint for ScheduleChecker), deps are the sorted,
  /// deduped union of the members' routed edges, and downstream consumers of
  /// any member route to the batch task. Nodes and lineage stay per-tile.
  void add_batch_task(const std::vector<int>& group, int executor) {
    const Node& first = node(group.front());
    sparklet::DataflowTaskSpec t;
    t.label = Planner::kBatchLabel;
    t.executor = executor;
    t.gep_kind = first.kind;
    t.gep_k = first.k;
    for (int id : group) {
      const Node& nd = node(id);
      t.batch.push_back({nd.key.i, nd.key.j});
      route_deps(nd, executor, t.deps);
    }
    std::sort(t.deps.begin(), t.deps.end());
    t.deps.erase(std::unique(t.deps.begin(), t.deps.end()), t.deps.end());
    gate(first.k, t.deps);
    const int begin = static_cast<int>(members_.size());
    members_.insert(members_.end(), group.begin(), group.end());
    const int idx = push_task(
        std::move(t), {begin, static_cast<int>(group.size()), /*batch=*/true});
    for (int id : group) nodes_[static_cast<std::size_t>(id)].task = idx;
  }

 private:
  /// Nodes a graph task runs: members_[first, first + count); none for
  /// transfers and fences.
  struct TaskRef {
    int first = 0;
    int count = 0;
    bool batch = false;
  };

  std::size_t slot(gs::TileKey key) const {
    return static_cast<std::size_t>(key.i) * static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(key.j);
  }

  sparklet::BlockId block_id(std::size_t s) const {
    return {store_rdd_, static_cast<int>(s)};
  }

  int executor_of_key(gs::TileKey key) const {
    return sc_.executor_of(part_->partition_of(sparklet::key_hash(key)));
  }

  int push_node(Node nd) {
    int& latest = latest_.at(slot(nd.key));
    if (latest < 0) live_.push_back(slot(nd.key));
    nodes_.push_back(std::move(nd));
    latest = static_cast<int>(nodes_.size() - 1);
    return latest;
  }

  // --------------------- storage-tier block source ---------------------
  //
  // Demotions and readbacks always target the *latest* version of a grid
  // cell — that is the only version register_carried_blocks tracks in the
  // executor store, so block ids map 1:1 onto latest_ entries.

  /// Node holding the latest version behind block `id`, or -1.
  int node_of_block(const sparklet::BlockId& id) const {
    if (id.partition < 0 ||
        static_cast<std::size_t>(id.partition) >= latest_.size()) {
      return -1;
    }
    return latest_[static_cast<std::size_t>(id.partition)];
  }

  std::optional<std::vector<std::uint8_t>> encode_block(
      const sparklet::BlockId& id) const override {
    const int nid = node_of_block(id);
    if (nid < 0 || node(nid).out == nullptr) return std::nullopt;
    sparklet::ByteBuffer raw;
    sparklet::encode_item(raw, node(nid).out);
    return sparklet::pack_payload(std::move(raw));
  }

  bool restore_block(const sparklet::BlockId& id,
                     const std::vector<std::uint8_t>& payload) override {
    const int nid = node_of_block(id);
    if (nid < 0) return false;
    Node& nd = nodes_[static_cast<std::size_t>(nid)];
    if (nd.out != nullptr) return true;  // idempotent (concurrent readback)
    auto raw = sparklet::unpack_payload(payload);
    if (!raw) return false;
    sparklet::DecodeCursor cur{raw->data(), raw->data() + raw->size()};
    TileR tile;
    if (!sparklet::decode_item(cur, tile) || cur.remaining() != 0) return false;
    nd.out = std::move(tile);
    return true;
  }

  void release_block(const sparklet::BlockId& id) override {
    const int nid = node_of_block(id);
    if (nid < 0) return;
    Node& nd = nodes_[static_cast<std::size_t>(nid)];
    if (!nd.pinned) nd.out.reset();
  }

  // ------------------------- segment execution -------------------------

  void run_segment(int s, int e) {
    seg_start_ = s;
    seg_first_node_ = static_cast<int>(nodes_.size());
    specs_.clear();
    tasks_.clear();
    members_.clear();
    xfer_memo_.clear();
    fences_.clear();
    shuffle_bytes_ = 0;
    cb_bytes_.assign(static_cast<std::size_t>(e - s), {0, 0});

    for (int k = s; k < e; ++k) {
      step_tasks_.clear();
      planner_.emit(*this, k);
      // Zero-cost fence summarizing step k, the lookahead anchor.
      sparklet::DataflowTaskSpec f;
      f.label = "fence";
      f.deps = step_tasks_;
      f.transfer = true;  // exempt from chaos/metrics, zero modeled cost
      f.gep_kind = 'F';
      f.gep_k = k;
      specs_.push_back(std::move(f));
      tasks_.push_back({});
      fences_.push_back(static_cast<int>(specs_.size() - 1));
    }

    const bool im = opt_.strategy == Strategy::kInMemory;
    if (graph_log_ != nullptr) graph_log_->push_back(specs_);
    sc_.run_task_graph(planner_.graph_name(s, e - 1), specs_,
                       [this](int ti) { run_task(ti); },
                       im ? shuffle_bytes_ : 0);

    if (!im) {
      // CB ships each step's outputs through the driver: collect + shared-
      // storage broadcast per step and charge group (GEP: the pivot, then
      // the B/C pivot sets; nested: the whole wave).
      for (const auto& groups : cb_bytes_) {
        for (std::size_t bytes : groups) {
          if (bytes > 0) {
            sc_.charge_collect(bytes);
            sc_.charge_broadcast(bytes);
          }
        }
      }
    }
  }

  int push_task(sparklet::DataflowTaskSpec t, TaskRef ref) {
    specs_.push_back(std::move(t));
    tasks_.push_back(ref);
    const int idx = static_cast<int>(specs_.size() - 1);
    step_tasks_.push_back(idx);
    return idx;
  }

  /// Pivot lookahead: step k may not start before the fence of step
  /// k - lookahead - 1 (when that fence is in this segment).
  void gate(int k, std::vector<int>& deps) const {
    const int fence = k - opt_.effective_lookahead() - 1;
    if (fence >= seg_start_) {
      deps.push_back(fences_[static_cast<std::size_t>(fence - seg_start_)]);
    }
  }

  /// Route every distinct dep of `nd` to a task on `consumer_exec`.
  void route_deps(const Node& nd, int consumer_exec, std::vector<int>& deps) {
    const std::span<const int> ds = this->deps(nd);
    for (auto it = ds.begin(); it != ds.end(); ++it) {
      if (std::find(ds.begin(), it, *it) == it) route(*it, consumer_exec, deps);
    }
  }

  /// Route one data edge (producer node → consumer executor). Tiles carried
  /// from earlier segments are already resident — no edge needed. IM
  /// cross-executor edges go through a modeled transfer task (one per
  /// producer × destination).
  void route(int node_id, int consumer_exec, std::vector<int>& deps) {
    const Node& src = node(node_id);
    if (node_id < seg_first_node_ || src.task < 0) return;
    const int producer = src.task;
    if (opt_.strategy != Strategy::kInMemory ||
        specs_[static_cast<std::size_t>(producer)].executor == consumer_exec) {
      deps.push_back(producer);
      return;
    }
    const int memo_key =
        producer * sc_.config().num_executors() + consumer_exec;
    auto mit = xfer_memo_.find(memo_key);
    if (mit != xfer_memo_.end()) {
      deps.push_back(mit->second);
      return;
    }
    sparklet::DataflowTaskSpec t;
    t.label = "shuffleXfer";
    t.deps = {producer};
    t.executor = consumer_exec;
    t.category = sparklet::TimeCategory::kShuffle;
    t.transfer = true;
    t.gep_kind = 'X';
    t.gep_k = src.k;
    t.tile_i = src.key.i;
    t.tile_j = src.key.j;
    t.model_s = sc_.config().network.latency_s +
                static_cast<double>(src.bytes) /
                    sc_.config().network.bandwidth_Bps;
    shuffle_bytes_ += src.bytes;
    const int idx = push_task(std::move(t), {});
    xfer_memo_.emplace(memo_key, idx);
    deps.push_back(idx);
  }

  void run_task(int ti) {
    const TaskRef& ref = tasks_[static_cast<std::size_t>(ti)];
    if (ref.count == 0) return;  // transfer or fence
    if (ref.batch) {
      run_batch(std::span<const int>(members_).subspan(
                    static_cast<std::size_t>(ref.first),
                    static_cast<std::size_t>(ref.count)),
                specs_[static_cast<std::size_t>(ti)].gep_k);
    } else {
      run_node(members_[static_cast<std::size_t>(ref.first)]);
    }
  }

  void note_reads(const Node& nd) {
    if (analysis::HbDetector* det = sc_.race_detector()) {
      for (int dep : deps(nd)) {
        det->on_read(analysis::HbDetector::tile_location(store_rdd_, dep),
                     "tile");
      }
    }
  }

  void note_write(int id) {
    if (analysis::HbDetector* det = sc_.race_detector()) {
      det->on_write(analysis::HbDetector::tile_location(store_rdd_, id),
                    "tile");
    }
  }

  void run_node(int id) {
    Node& nd = nodes_[static_cast<std::size_t>(id)];
    obs::ScopedSpan kernel_span(&sc_.tracer(), obs::SpanLevel::kKernel,
                                std::string_view(&nd.kind, 1), nd.k);
    note_reads(nd);
    nd.out = planner_.compute(*this, nd);
    note_write(id);
  }

  /// Execute one batch task: per-member race-detector footprints are
  /// unchanged from the per-node path; only the kernel invocation coalesces.
  void run_batch(std::span<const int> group, int k) {
    if constexpr (requires { planner_.compute_batch(*this, group); }) {
      obs::ScopedSpan kernel_span(&sc_.tracer(), obs::SpanLevel::kKernel,
                                  Planner::kBatchSpan, k);
      for (int id : group) note_reads(node(id));
      auto outs = planner_.compute_batch(*this, group);
      for (std::size_t m = 0; m < group.size(); ++m) {
        nodes_[static_cast<std::size_t>(group[m])].out = std::move(outs[m]);
        note_write(group[m]);
      }
    }
  }

  // ------------------------- recovery & snapshots -------------------------

  /// Bring every latest tile back in memory: readback first (a demoted copy
  /// on the serialized or disk tier restores the tile without touching
  /// lineage), recomputation for anything genuinely lost.
  void restore_live_outs() {
    gs::Stopwatch sw;
    int recomputed = 0;
    for (std::size_t s : live_) {
      const int id = latest_[s];
      if (node(id).out == nullptr) {
        sc_.try_block_readback(block_id(s));
      }
      recomputed += recompute_now(id);
    }
    sc_.flush_storage_charges();
    if (recomputed > 0) {
      sc_.metrics().note_partitions_recomputed(recomputed);
      sc_.timeline().add_serial(
          "recompute",
          sw.seconds() + recomputed * sc_.config().task_overhead_s,
          sparklet::TimeCategory::kRecovery);
    }
  }

  /// Re-run the pure kernel chain for a lost tile version. Inputs recurse;
  /// the chain bottoms out at inputs, dep-free nodes, or checkpoint
  /// snapshots (pinned, out always present). Purity ⇒ bit-identical.
  int recompute_now(int id) {
    Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (nd.out != nullptr) return 0;
    GS_CHECK_MSG(nd.k >= 0, "source tile cannot be lost");
    int count = 0;
    for (int dep : deps(nd)) count += recompute_now(dep);
    // Driver-side lineage recomputation between graphs: reads the dep
    // versions and rewrites this one, all in the current driver era.
    note_reads(nd);
    nd.out = planner_.compute(*this, nd);
    note_write(id);
    return count + 1;
  }

  /// End of the final, uncheckpointed segment: its tiles become unpinned
  /// cached blocks in the executor store, where memory pressure may demote
  /// them down the storage ladder before the gather reads them back.
  void register_carried_blocks() {
    for (std::size_t s : live_) {
      const Node& nd = node(latest_[s]);
      if (nd.pinned) continue;
      try {
        sc_.executor_store().put_block(nd.executor, block_id(s), nd.bytes,
                                       /*checksum=*/0, /*pinned=*/false,
                                       opt_.storage_level);
      } catch (const gs::CapacityError&) {
        // Executor memory is full even after demotion down the storage
        // ladder: the tile goes untracked and stays in the node table
        // (graceful degradation, like MEMORY_ONLY caching).
      }
    }
    sc_.flush_storage_charges();
  }

  /// Checkpoint boundary: write every carried tile checksummed + pinned into
  /// the shared store, healing injected corruption through lineage, then
  /// truncate — the snapshot becomes the new recomputation floor.
  void checkpoint_snapshot() {
    obs::ScopedSpan span(&sc_.tracer(), obs::SpanLevel::kStage, "checkpoint",
                         store_rdd_);
    const sparklet::ChaosPlan& chaos = sc_.chaos_plan();
    const int max_attempts = std::max(1, chaos.max_stage_attempts);
    double io_s = 0.0;
    int recomputed = 0;
    for (std::size_t s : live_) {
      const int id = latest_[s];
      Node& nd = nodes_[static_cast<std::size_t>(id)];
      if (nd.pinned) continue;  // already snapshotted (untouched tile)
      const sparklet::BlockId bid = block_id(s);
      std::uint64_t sum_state = static_cast<std::uint64_t>(id) ^
                                (static_cast<std::uint64_t>(store_rdd_) << 32);
      const std::uint64_t sum = gs::splitmix64(sum_state);
      for (int attempt = 1;; ++attempt) {
        std::uint64_t stored = sum;
        if (sc_.chaos_corrupt_block(static_cast<std::uint64_t>(store_rdd_),
                                    static_cast<std::uint64_t>(bid.partition),
                                    static_cast<std::uint64_t>(attempt))) {
          stored ^= 0xbad0bad0bad0bad0ULL;
        }
        io_s += sc_.shared_fs().put_block(0, bid, nd.bytes, stored,
                                          /*pinned=*/true);
        io_s += sc_.shared_fs().read(0, nd.bytes);  // verification read-back
        if (sc_.shared_fs().verify_block(bid, sum)) {
          sc_.metrics().note_checkpoint_block(nd.bytes);
          break;
        }
        // Corrupted write: treat the tile as lost, heal through lineage,
        // write again.
        sc_.metrics().note_corrupted_block();
        sc_.timeline().add_marker("checkpoint-corruption");
        sc_.shared_fs().remove_block(bid);
        GS_THROW_IF(attempt >= max_attempts, gs::JobAbortedError,
                    gs::strfmt("checkpoint block (%d,%d) failed "
                               "verification %d times",
                               store_rdd_, bid.partition, attempt));
        nd.out.reset();
        sc_.metrics().note_partitions_dropped(1);
        recomputed += recompute_now(id);
      }
      nd.pinned = true;
    }
    sc_.timeline().add_serial("checkpoint", io_s,
                              sparklet::TimeCategory::kRecovery);
    if (recomputed > 0) sc_.metrics().note_partitions_recomputed(recomputed);
    // The snapshot lives pinned in shared storage; cached-block entries for
    // the carried tiles are obsolete.
    sc_.executor_store().remove_rdd_blocks(store_rdd_);
  }

  /// Serialize the node table + live set for the recovery-closure auditor.
  /// Runs at the segment boundary AFTER the checkpoint/registration step, so
  /// the snapshot reflects exactly what a failure in the NEXT segment could
  /// take away and what recovery would then have to stand on.
  void log_lineage_snapshot(int seg_index) {
    analysis::LineageSnapshot snap;
    snap.segment = seg_index;
    snap.nodes.reserve(nodes_.size());
    for (const Node& nd : nodes_) {
      analysis::LineageRecord rec;
      rec.label = nd.k < 0 ? gs::strfmt("input(%d,%d)", nd.key.i, nd.key.j)
                           : gs::strfmt("%c(%d,%d)@%c=%d", nd.kind, nd.key.i,
                                        nd.key.j, Planner::kStepName, nd.k);
      rec.k = nd.k;
      rec.pinned = nd.pinned;
      rec.source = nd.dep_count == 0;
      const std::span<const int> ds = deps(nd);
      rec.deps.assign(ds.begin(), ds.end());
      snap.nodes.push_back(std::move(rec));
    }
    snap.live.reserve(live_.size());
    for (std::size_t s : live_) snap.live.push_back(latest_[s]);
    std::sort(snap.live.begin(), snap.live.end());
    lineage_log_->push_back(std::move(snap));
  }

  /// Lineage truncation: superseded, unpinned tile versions drop their
  /// payloads (recomputable from the latest snapshot if recovery ever needs
  /// them again).
  void drop_stale_outs() {
    std::vector<char> is_latest(nodes_.size(), 0);
    for (std::size_t s : live_) {
      is_latest[static_cast<std::size_t>(latest_[s])] = 1;
    }
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (!is_latest[i] && !nodes_[i].pinned) nodes_[i].out.reset();
    }
  }

  sparklet::SparkContext& sc_;
  const SolverOptions& opt_;
  Planner planner_;
  sparklet::PartitionerPtr part_;
  const int store_rdd_;  ///< block/chaos namespace for this engine
  const int cols_;

  std::vector<Node> nodes_;
  std::vector<int> dep_pool_;
  std::vector<int> latest_;  ///< node id per slot (i * cols + j), -1 = none
  std::vector<std::size_t> live_;  ///< occupied slots, first-insertion order

  // Graph of the segment being built and run.
  int seg_start_ = 0;
  int seg_first_node_ = 0;
  std::vector<sparklet::DataflowTaskSpec> specs_;
  std::vector<TaskRef> tasks_;
  std::vector<int> members_;
  std::unordered_map<int, int> xfer_memo_;  ///< producer*num_exec+dest → task
  std::vector<int> fences_;                 ///< fence task per step offset
  std::vector<int> step_tasks_;             ///< tasks of the step being emitted
  std::vector<std::array<std::size_t, 2>> cb_bytes_;  ///< per step, per group
  std::size_t shuffle_bytes_ = 0;

  std::vector<std::vector<sparklet::DataflowTaskSpec>>* graph_log_ = nullptr;
  std::vector<analysis::LineageSnapshot>* lineage_log_ = nullptr;
};

/// GEP planner: iteration k emits
///
///   A(k,k):  self = latest (k,k)
///   B(k,j):  self = latest (k,j),  u = A(k,k)   [+ w = A iff Spec::kUsesW]
///   C(i,k):  self = latest (i,k),  v = A(k,k)   [+ w = A]
///   D(i,j):  self = latest (i,j),  u = C(i,k), v = B(k,j)   [+ w = A]
///
/// so the latest writer of a tile at iteration k is the `self` input of its
/// next writer, and most D tiles of iteration k overlap A/B/C of k+1 ("pivot
/// lookahead"). This is exactly the barrier drivers' call graph — same
/// kernels, same input versions. Under fused_d each executor's D tiles of
/// one iteration run as a single "DBatchGE" task.
template <gs::GepSpecType Spec>
class GepPlanner {
 public:
  using T = typename Spec::value_type;
  using TileR = gs::TileRef<T>;
  struct Payload {};
  static constexpr char kStepName = 'k';
  static constexpr const char* kBatchLabel = "DBatchGE";
  static constexpr const char* kBatchSpan = "Dbatch";

  GepPlanner(std::shared_ptr<const gs::GepKernels<Spec>> kernels,
             const gs::TileGrid<T>& grid)
      : kernels_(std::move(kernels)),
        grid_(grid),
        r_(static_cast<int>(grid.layout().r)),
        ranges_(r_, Spec::kStrictSigma) {}

  int grid_rows() const { return r_; }
  int grid_cols() const { return r_; }
  int steps() const { return r_; }
  std::string graph_name(int first, int last) const {
    return gs::strfmt("dataflow(k=%d..%d)", first, last);
  }
  static const char* task_label(char kind) {
    switch (kind) {
      case 'A': return "ARecGE";
      case 'B':
      case 'C': return "BCRecGE";
      default: return "DRecGE";
    }
  }
  /// CB ships the pivot (group 0) and the B/C pivot sets (group 1) through
  /// the driver each iteration; D outputs stay on their executors.
  static int cb_group(char kind) {
    return kind == 'A' ? 0 : kind == 'D' ? -1 : 1;
  }
  analysis::ScheduleWorkload workload() const {
    return analysis::make_schedule_workload<Spec>(r_);
  }

  /// The input tiles, row-major. Pinned — the driver holds the input.
  template <typename Engine>
  void add_inputs(Engine& eng) const {
    for (int i = 0; i < r_; ++i) {
      for (int j = 0; j < r_; ++j) {
        eng.add_input({i, j}, grid_.at(static_cast<std::size_t>(i),
                                       static_cast<std::size_t>(j)));
      }
    }
  }

  template <typename Engine>
  void emit(Engine& eng, int k) const {
    // Deps are {self, u, v, w}; compute() reads them back by kind.
    auto add = [&](gs::TileKey key, char kind, int u, int v, int w) {
      const int self = eng.latest(key);
      return eng.add_node(key, kind, k, eng.node(self).bytes,
                          std::array{self, u, v, w});
    };
    const gs::TileKey pivot{k, k};
    const int a = add(pivot, 'A', -1, -1, -1);
    eng.add_task(a);
    const int w = Spec::kUsesW ? a : -1;
    for (const auto& key : ranges_.b_keys(k)) {
      eng.add_task(add(key, 'B', a, -1, w));
    }
    for (const auto& key : ranges_.c_keys(k)) {
      eng.add_task(add(key, 'C', -1, a, w));
    }
    std::map<int, std::vector<int>> batches;  // executor → fused D members
    for (const auto& key : ranges_.d_keys(k)) {
      const int id = add(key, 'D', eng.latest({key.i, k}),  // post-C column
                         eng.latest({k, key.j}), w);         // post-B row
      if (eng.options().fused_d) {
        batches[eng.node(id).executor].push_back(id);
      } else {
        eng.add_task(id);
      }
    }
    for (const auto& [exec, group] : batches) eng.add_batch_task(group, exec);
  }

  template <typename Engine>
  TileR compute(const Engine& eng, const typename Engine::Node& nd) const {
    const auto ds = eng.deps(nd);
    auto in = [&](std::size_t i) -> TileR {
      return i < ds.size() ? eng.node(ds[i]).out : nullptr;
    };
    switch (nd.kind) {
      case 'A':
        return gs::apply_tile_kernel<Spec>(*kernels_, gs::KernelKind::A, in(0),
                                           nullptr, nullptr, nullptr);
      case 'B':
        return gs::apply_tile_kernel<Spec>(*kernels_, gs::KernelKind::B, in(0),
                                           in(1), nullptr, in(2));
      case 'C':
        return gs::apply_tile_kernel<Spec>(*kernels_, gs::KernelKind::C, in(0),
                                           nullptr, in(1), in(2));
      default:
        break;
    }
    if (eng.options().fused_d && kernels_->config().strassen_d) {
      // Strassen reassociates sums, so per-tile recomputation must go
      // through the same split the batch used. strassen_field_tile is
      // tile-local, so a single-member batch reproduces the member's bits
      // regardless of the original batch composition.
      std::vector<gs::FusedDMember<T>> members{{in(0), in(1), in(2)}};
      return gs::apply_fused_d_batch<Spec>(*kernels_, members, in(3))[0];
    }
    return gs::apply_tile_kernel<Spec>(*kernels_, gs::KernelKind::D, in(0),
                                       in(1), in(2), in(3));
  }

  /// Fused D: every member against one shared panel pack.
  template <typename Engine>
  std::vector<TileR> compute_batch(const Engine& eng,
                                   std::span<const int> group) const {
    std::vector<gs::FusedDMember<T>> members;
    members.reserve(group.size());
    TileR w;
    for (int id : group) {
      const auto ds = eng.deps(eng.node(id));
      members.push_back(
          {eng.node(ds[0]).out, eng.node(ds[1]).out, eng.node(ds[2]).out});
      if (ds.size() > 3) w = eng.node(ds[3]).out;
    }
    return gs::apply_fused_d_batch<Spec>(*kernels_, members, w);
  }

  template <typename Engine>
  gs::Matrix<T> finish(const Engine& eng) const {
    std::vector<std::pair<gs::TileKey, TileR>> entries;
    entries.reserve(static_cast<std::size_t>(r_ * r_));
    for (int i = 0; i < r_; ++i) {
      for (int j = 0; j < r_; ++j) {
        const auto& nd = eng.node(eng.latest({i, j}));
        GS_CHECK_MSG(nd.out != nullptr, "final tile missing");
        entries.push_back({nd.key, nd.out});
      }
    }
    return gs::TileGrid<T>::from_entries(grid_.layout(), entries).gather();
  }

 private:
  std::shared_ptr<const gs::GepKernels<Spec>> kernels_;
  const gs::TileGrid<T>& grid_;
  int r_;
  GridRanges ranges_;
};

/// Run `planner` through the dataflow engine with the analysis options
/// wired in: --audit-recovery audits the logged lineage snapshots and
/// --validate-schedule checks every emitted graph against the planner's
/// symbolic workload; either failure throws after the solve.
template <typename Planner>
auto solve_dataflow(sparklet::SparkContext& sc, const SolverOptions& opt,
                    Planner planner, sparklet::PartitionerPtr part) {
  DataflowEngine<Planner> engine(sc, opt, std::move(planner), std::move(part));
  std::vector<std::vector<sparklet::DataflowTaskSpec>> graph_log;
  if (opt.validate_schedule) engine.set_graph_log(&graph_log);
  std::vector<analysis::LineageSnapshot> lineage_log;
  if (opt.audit_recovery) engine.set_lineage_log(&lineage_log);
  auto result = engine.solve();
  if (opt.audit_recovery) {
    const analysis::RecoveryAuditReport audit =
        analysis::audit_recovery_closure(lineage_log);
    GS_THROW_IF(!audit.ok(), analysis::RecoveryAuditError, audit.summary());
  }
  if (opt.validate_schedule) {
    analysis::ScheduleCheckOptions copt;
    copt.lookahead = opt.effective_lookahead();
    copt.in_memory = opt.strategy == Strategy::kInMemory;
    copt.checkpoint_interval = opt.checkpoint_interval;
    const analysis::ScheduleCheckReport check_report =
        analysis::check_dataflow_schedule(engine.planner().workload(), copt,
                                          graph_log);
    GS_THROW_IF(!check_report.ok(), analysis::ScheduleViolationError,
                check_report.summary());
  }
  return result;
}

/// Model-check a dataflow solve (`--model-check`): systematically explore
/// the distinct interleavings of the emitted task graphs (DPOR-pruned to
/// conflicting reorderings) and require every order to produce a
/// bit-identical table with a clean ScheduleChecker and HbDetector verdict.
/// `solve(run_opt)` runs one full solve and returns its table; it runs
/// serially under a ReplayHook, so the exploration is deterministic
/// regardless of the context's executor pool.
template <typename SolveFn>
analysis::ModelCheckReport model_check_dataflow(
    sparklet::SparkContext& sc, const SolverOptions& opt,
    const analysis::ModelCheckOptions& mc, SolveFn solve) {
  SolverOptions run_opt = opt;
  run_opt.schedule = ScheduleMode::kDataflow;  // hooks drive run_task_graph
  run_opt.validate_schedule = true;  // verdicts at every explored order
  run_opt.model_check = 0;
  run_opt.audit_recovery = false;  // one static audit elsewhere, not per run
  analysis::ModelChecker checker;
  return checker.explore(
      [&sc, &solve, &run_opt](analysis::ReplayHook& hook) {
        analysis::HbDetector detector;
        analysis::RunObservation obs;
        {
          analysis::ReplayScope scope(sc, hook, detector);
          obs.digest = analysis::digest_matrix(solve(run_opt));
        }
        if (detector.races_found() > 0) {
          obs.checks_ok = false;
          obs.detail = detector.summary();
        }
        return obs;
      },
      mc);
}

}  // namespace gepspark
