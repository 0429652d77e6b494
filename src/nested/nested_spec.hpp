// nested_spec.hpp — problem instances for the nested-dataflow workloads:
// the GAP problem, protein accordion folding, and Viterbi decoding (Yuan
// Tang's "Nested Dataflow Algorithms for DP Recurrences with more than O(1)
// Dependency"). Unlike the GEP family, every cell of these tables reads a
// non-constant number of earlier cells (a row sweep, a column sweep, or a
// full previous-row fan-in), so their tile schedules are wavefronts with
// O(r) tile fan-in rather than pivot-mediated A/B/C/D phases.
//
// Each instance is defined by PURE seeded index functions (splitmix-derived
// noise), not stored arrays: padded tiles can evaluate the recurrence at any
// index without clamping, and replays after chaos recovery see the same
// values. The per-cell functions below (gap_cell, accordion_cell,
// viterbi_cell) are the oracle the serial references run; the tiled kernels
// (nested_kernels.hpp) reorder the loops but give every cell exactly the
// same candidate values, each one addition of the same two doubles. min/max
// are exact selections, so all execution modes are bit-identical.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "support/rng.hpp"

namespace nested {

/// Deterministic noise in [0, 1): pure in (seed, a, b).
inline double unit_noise(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = seed ^ (a * 0x9e3779b97f4a7c15ULL) ^
                    (b * 0xc2b2ae3d27d4eb4fULL);
  gs::splitmix64(s);  // extra round: avalanche the structured inputs
  const std::uint64_t x = gs::splitmix64(s);
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// ---------------------------------------------------------------- GAP

/// The GAP problem (sequence alignment with concave gap penalties):
///
///   G(0,0) = 0
///   G(i,j) = min( G(i-1,j-1) + s(i,j),
///                 min_{0<=q<j} G(i,q) + w(q,j),      // gap in x ending at j
///                 min_{0<=p<i} G(p,j) + w'(p,i) )    // gap in y ending at i
///
/// over the (n+1)×(n+1) table. The q/p sweeps make every cell read a whole
/// table row prefix and column prefix — the canonical non-O(1) dependency.
struct GapProblem {
  std::size_t n = 0;  ///< sequence length; DP table is (n+1)×(n+1)
  std::uint64_t seed = 1;

  std::size_t table_n() const { return n + 1; }

  /// Substitution cost for matching x_i against y_j, in [0, 4).
  double match_cost(std::size_t i, std::size_t j) const {
    return 4.0 * unit_noise(seed ^ 0xa11cell, i, j);
  }
  /// Concave cost of a gap in x spanning columns (q, j]. Both gap costs
  /// depend on the span only; the tiled kernel tabulates them by span.
  double gap_row(std::size_t q, std::size_t j) const {
    return 1.0 + 0.5 * std::sqrt(static_cast<double>(j - q));
  }
  /// Concave cost of a gap in y spanning rows (p, i].
  double gap_col(std::size_t p, std::size_t i) const {
    return 1.25 + 0.4 * std::sqrt(static_cast<double>(i - p));
  }
};

/// One GAP cell from a value lookup `at(i, j)`: min is an exact selection,
/// each candidate is one addition of an earlier cell and a pure weight, so
/// any evaluation order over the same candidate set is bit-identical.
template <typename At>
double gap_cell(const GapProblem& p, std::size_t i, std::size_t j,
                const At& at) {
  if (i == 0 && j == 0) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  if (i > 0 && j > 0) best = std::min(best, at(i - 1, j - 1) + p.match_cost(i, j));
  for (std::size_t q = 0; q < j; ++q) {
    best = std::min(best, at(i, q) + p.gap_row(q, j));
  }
  for (std::size_t q = 0; q < i; ++q) {
    best = std::min(best, at(q, j) + p.gap_col(q, i));
  }
  return best;
}

// ---------------------------------------------------- accordion folding

/// Protein accordion folding: fold scores over the strict lower triangle,
///
///   S(i,j) = Phi(i,j) + max(0, max_{0<=k<j-1} S(j-1,k))   for 0 <= j < i < n
///
/// where Phi is the seeded contact-score matrix. A cell's fan-in is the whole
/// prefix of row j-1 — a row sweep whose source row is chosen by the cell's
/// *column*, which is what makes the tile schedule a column wavefront with a
/// same-wave diagonal→panel phase ordering.
struct AccordionProblem {
  std::size_t n = 0;  ///< chain length; table is n×n, strict lower triangle
  std::uint64_t seed = 1;

  /// Contact score in [-1, 2): negative scores make the max(0, ·) clamp real.
  double contact(std::size_t i, std::size_t j) const {
    return 3.0 * unit_noise(seed ^ 0xacc0fd10ull, i, j) - 1.0;
  }
};

/// One accordion cell (valid for j < i) from a value lookup `at(i, j)`.
template <typename At>
double accordion_cell(const AccordionProblem& p, std::size_t i, std::size_t j,
                      const At& at) {
  double carry = 0.0;  // max(0, ...) — empty sweep (j < 2) keeps the 0
  for (std::size_t k = 0; k + 1 < j; ++k) {
    carry = std::max(carry, at(j - 1, k));
  }
  return p.contact(i, j) + carry;
}

/// The folding optimum: best score over all valid cells (0 for n <= 1).
template <typename M>
double accordion_best(const M& table, std::size_t n) {
  double best = 0.0;
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) best = std::max(best, table(i, j));
  }
  return best;
}

// ------------------------------------------------------------- Viterbi

/// Viterbi decoding over a seeded HMM in log space:
///
///   d(0,s) = log pi(s) + log b(s, o_0)
///   d(t,s) = max_q [ d(t-1,q) + log a(q,s) ] + log b(s, o_t)
///
/// Every state of step t reads EVERY state of step t-1 — a full-row fan-in,
/// the column-sweep shape. The trellis is (horizon+1) rows × num_states.
struct ViterbiProblem {
  std::size_t num_states = 0;
  std::size_t horizon = 0;  ///< observations t = 0..horizon
  std::size_t num_symbols = 8;
  std::uint64_t seed = 1;

  std::size_t rows() const { return horizon + 1; }

  std::size_t observation(std::size_t t) const {
    return static_cast<std::size_t>(
        unit_noise(seed ^ 0x0b5e55ull, t, 0) *
        static_cast<double>(num_symbols));
  }
  double log_pi(std::size_t s) const {
    return -3.0 + 2.0 * unit_noise(seed ^ 0x9100ull, s, 0);
  }
  double log_trans(std::size_t q, std::size_t s) const {
    return -4.0 + 3.0 * unit_noise(seed ^ 0x74a5ull, q, s);
  }
  double log_emit_sym(std::size_t s, std::size_t sym) const {
    return -4.0 + 3.0 * unit_noise(seed ^ 0xe017ull, s, sym);
  }
  double log_emit(std::size_t s, std::size_t t) const {
    return log_emit_sym(s, observation(t));
  }
};

/// One Viterbi cell from a value lookup `at(t, q)` over the previous row.
template <typename At>
double viterbi_cell(const ViterbiProblem& p, std::size_t t, std::size_t s,
                    const At& at) {
  if (t == 0) return p.log_pi(s) + p.log_emit(s, 0);
  double best = -std::numeric_limits<double>::infinity();
  for (std::size_t q = 0; q < p.num_states; ++q) {
    best = std::max(best, at(t - 1, q) + p.log_trans(q, s));
  }
  return best + p.log_emit(s, t);
}

}  // namespace nested
