// nested_kernels.hpp — tiled kernels for the nested-dataflow workloads. Each
// kernel computes one output tile of a recurrence from nested_spec.hpp over
// the tile's global index range.
//
// Read contract: a kernel calls the TileLookup at most once per finished tile
// it reads — always a subset of the task's declared `reads` — all at kernel
// entry. It keeps those tiles alive in a local array and then runs plain
// loops over contiguous tile rows, so no type-erased call and no refcount
// operation is left inside the cell loops.
//
// Equivalence: the loops are reordered relative to gap_cell / accordion_cell
// / viterbi_cell (row-at-a-time updates, per-column carries), but every cell
// still takes min/max over exactly the same candidate values, each candidate
// one addition of the same two doubles. min/max are exact selections and no
// candidate is NaN or -0.0, so the tiles are bit-identical to the per-cell
// recurrences (which the serial references run).
//
// Padding: tiles on the grid fringe cover indices past the real table. The
// recurrences are pure index functions, so padded cells are simply evaluated
// too — real cells only ever read indices no larger than their own, so the
// real region is unaffected and no clamping or masking is needed.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "grid/tile.hpp"
#include "nested/nested_spec.hpp"
#include "support/check.hpp"

namespace nested {

using TileR = gs::TileRef<double>;

/// Lookup of a finished tile by grid key. Kernels read their own in-progress
/// tile locally and everything else through this.
using TileLookup = std::function<TileR(gs::TileKey)>;

namespace detail {

/// dst[j] = min(dst[j], src[j] + add) for j < len: one candidate per cell.
inline void relax_min(double* GS_RESTRICT dst, const double* GS_RESTRICT src,
                      double add, std::size_t len) {
  for (std::size_t j = 0; j < len; ++j) dst[j] = std::min(dst[j], src[j] + add);
}

}  // namespace detail

/// GAP tile (bi,bj) at wave bi+bj: b×b cells. Reads the tile-row prefix
/// {(bi,q): q<bj}, the tile-column prefix {(p,bj): p<bi}, and the diagonal
/// neighbour (bi-1,bj-1). The output tile doubles as the running minimum:
/// the cross-tile row and column sweeps relax whole rows first, then each
/// row finishes in order with its in-tile column sweep, its diagonal
/// candidate, and a left-to-right in-tile row sweep.
inline TileR gap_tile_kernel(const GapProblem& p, std::size_t b,
                             gs::TileKey key, const TileLookup& at) {
  const auto nrow = static_cast<std::size_t>(key.j);  // row-prefix tiles
  const auto ncol = static_cast<std::size_t>(key.i);  // column-prefix tiles
  std::vector<TileR> row_tiles(nrow);
  std::vector<TileR> col_tiles(ncol);
  for (std::size_t q = 0; q < nrow; ++q) {
    row_tiles[q] = at({key.i, static_cast<std::int32_t>(q)});
  }
  for (std::size_t q = 0; q < ncol; ++q) {
    col_tiles[q] = at({static_cast<std::int32_t>(q), key.j});
  }
  const TileR diag =
      nrow > 0 && ncol > 0 ? at({key.i - 1, key.j - 1}) : nullptr;

  const std::size_t row0 = ncol * b;
  const std::size_t col0 = nrow * b;
  // Gap weights by span: w(q,j) depends on j-q only, and spans within this
  // tile's reach run up to col0+b-1 (row gaps) and row0+b-1 (column gaps).
  std::vector<double> wrow(col0 + b);
  std::vector<double> wcol(row0 + b);
  for (std::size_t d = 1; d < wrow.size(); ++d) wrow[d] = p.gap_row(0, d);
  for (std::size_t d = 1; d < wcol.size(); ++d) wcol[d] = p.gap_col(0, d);

  auto out = std::make_shared<gs::Tile<double>>(
      b, b, std::numeric_limits<double>::infinity());
  const gs::Span2D<double> g = out->span();

  // Cross-tile row sweep: G(i,q) + w(q,j) for q in the row-prefix tiles.
  for (std::size_t qt = 0; qt < nrow; ++qt) {
    const gs::Span2D<const double> src = row_tiles[qt]->span();
    for (std::size_t i = 0; i < b; ++i) {
      const double* s = src.row(i);
      for (std::size_t q = 0; q < b; ++q) {
        const std::size_t gq = qt * b + q;
        detail::relax_min(g.row(i), wrow.data() + (col0 - gq), s[q], b);
      }
    }
  }
  // Cross-tile column sweep: G(q,j) + w'(q,i) for q in the column-prefix
  // tiles.
  for (std::size_t pt = 0; pt < ncol; ++pt) {
    const gs::Span2D<const double> src = col_tiles[pt]->span();
    for (std::size_t i = 0; i < b; ++i) {
      for (std::size_t q = 0; q < b; ++q) {
        const std::size_t gq = pt * b + q;
        detail::relax_min(g.row(i), src.row(q), wcol[row0 + i - gq], b);
      }
    }
  }

  for (std::size_t i = 0; i < b; ++i) {
    const std::size_t gi = row0 + i;
    double* dst = g.row(i);
    // In-tile column sweep over the finished rows above.
    for (std::size_t q = 0; q < i; ++q) {
      detail::relax_min(dst, g.row(q), wcol[i - q], b);
    }
    // Diagonal: G(gi-1, gj-1) + s(gi, gj). Row gi-1 is this tile's row i-1
    // or the last row of the tile above; column col0-1 is the last column
    // of the tile to the left (or of the diagonal neighbour).
    if (gi > 0) {
      const double* up =
          i > 0 ? g.row(i - 1) : col_tiles[ncol - 1]->span().row(b - 1);
      for (std::size_t j = 0; j < b; ++j) {
        const std::size_t gj = col0 + j;
        if (gj == 0) continue;
        const double prev =
            j > 0 ? up[j - 1]
                  : (i > 0 ? (*row_tiles[nrow - 1])(i - 1, b - 1)
                           : (*diag)(b - 1, b - 1));
        dst[j] = std::min(dst[j], prev + p.match_cost(gi, gj));
      }
    }
    // In-tile row sweep: cell q is final once every cell left of it has
    // relaxed it; it then relaxes every cell to its right.
    for (std::size_t q = 0; q < b; ++q) {
      if (gi == 0 && col0 + q == 0) dst[q] = 0.0;  // G(0,0)
      detail::relax_min(dst + q + 1, wrow.data() + 1, dst[q], b - q - 1);
    }
  }
  return out;
}

/// Accordion tile (bi,bj) at wave bj: valid cells (global j < global i),
/// zero elsewhere. Reads tile-row bj-1 up to the diagonal plus tile-row bj's
/// prefix — including, for panels (bi > bj), the same-wave diagonal tile
/// (bj,bj). The carry max(0, max_k S(j-1,k)) depends on the column only, so
/// it is swept once per column; columns run left to right because the
/// diagonal tile's later columns read its own earlier ones.
inline TileR accordion_tile_kernel(const AccordionProblem& p, std::size_t b,
                                   gs::TileKey key, const TileLookup& at) {
  const auto nq = static_cast<std::size_t>(key.j);
  auto out = std::make_shared<gs::Tile<double>>(b, b, 0.0);
  // Source-row tiles by tile column q: tile-row bj-1 (read by column 0) and
  // tile-row bj, whose tile bj is this tile itself on the diagonal.
  std::vector<TileR> prev_row(nq);
  std::vector<TileR> cur_row(nq + 1);
  for (std::size_t q = 0; q < nq; ++q) {
    prev_row[q] = at({key.j - 1, static_cast<std::int32_t>(q)});
  }
  for (std::size_t q = 0; q < nq; ++q) {
    cur_row[q] = at({key.j, static_cast<std::int32_t>(q)});
  }
  cur_row[nq] = key.i == key.j ? TileR(out) : at({key.j, key.j});

  const std::size_t row0 = static_cast<std::size_t>(key.i) * b;
  const std::size_t col0 = nq * b;
  for (std::size_t j = 0; j < b; ++j) {
    const std::size_t gj = col0 + j;
    const std::size_t first = gj < row0 ? 0 : gj - row0 + 1;  // gj < gi
    if (first >= b) continue;
    double carry = 0.0;  // max(0, ...) — empty sweep (gj < 2) keeps the 0
    if (gj >= 2) {
      const std::size_t src = gj - 1;  // source row; columns k < src
      const auto& tiles = src < col0 ? prev_row : cur_row;
      for (std::size_t q = 0; q * b < src; ++q) {
        const double* row = tiles[q]->span().row(src % b);
        const std::size_t len = std::min(b, src - q * b);
        for (std::size_t k = 0; k < len; ++k) carry = std::max(carry, row[k]);
      }
    }
    for (std::size_t i = first; i < b; ++i) {
      (*out)(i, j) = p.contact(row0 + i, gj) + carry;
    }
  }
  return out;
}

/// Viterbi tile (t,bs): a 1×b row segment of trellis step t covering states
/// [bs*b, bs*b+b). Reads every tile of step t-1. Padded states past
/// num_states are evaluated like any other (pure index functions), but the
/// max over predecessors only ranges over REAL states, so padded values
/// never feed a real cell.
inline TileR viterbi_tile_kernel(const ViterbiProblem& p, std::size_t b,
                                 gs::TileKey key, const TileLookup& at) {
  auto out = std::make_shared<gs::Tile<double>>(1, b);
  const auto t = static_cast<std::size_t>(key.i);
  const std::size_t state0 = static_cast<std::size_t>(key.j) * b;
  if (t == 0) {
    for (std::size_t s0 = 0; s0 < b; ++s0) {
      (*out)(0, s0) = p.log_pi(state0 + s0) + p.log_emit(state0 + s0, 0);
    }
    return out;
  }
  const std::size_t segs = (p.num_states + b - 1) / b;
  std::vector<TileR> prev(segs);
  for (std::size_t q = 0; q < segs; ++q) {
    prev[q] = at({key.i - 1, static_cast<std::int32_t>(q)});
  }
  for (std::size_t s0 = 0; s0 < b; ++s0) {
    const std::size_t s = state0 + s0;
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t qt = 0; qt < segs; ++qt) {
      const double* d = prev[qt]->span().row(0);
      const std::size_t len = std::min(b, p.num_states - qt * b);
      for (std::size_t q = 0; q < len; ++q) {
        best = std::max(best, d[q] + p.log_trans(qt * b + q, s));
      }
    }
    (*out)(0, s0) = best + p.log_emit(s, t);
  }
  return out;
}

}  // namespace nested
