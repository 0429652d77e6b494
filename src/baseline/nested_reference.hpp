// nested_reference.hpp — sequential reference solvers for the nested-dataflow
// workloads (GAP, protein accordion folding, Viterbi decoding), written as
// plain loop nests straight from the recurrences in nested_spec.hpp: each
// cell runs its per-cell function (gap_cell / accordion_cell /
// viterbi_cell). The tiled kernels give every cell the same candidate values
// under exact min/max, so the tiled solvers are validated against these
// bit-for-bit, not within a tolerance.
#pragma once

#include <cstddef>

#include "grid/matrix.hpp"
#include "nested/nested_spec.hpp"

namespace gs::baseline {

/// GAP: the full (n+1)×(n+1) table, row-major cell order.
inline Matrix<double> reference_gap(const nested::GapProblem& p) {
  const std::size_t N = p.table_n();
  Matrix<double> g(N, N, 0.0);
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      g(i, j) = nested::gap_cell(
          p, i, j, [&](std::size_t a, std::size_t b) { return g(a, b); });
    }
  }
  return g;
}

/// Accordion folding: the n×n score table, column-major cell order (each
/// column only reads the previous column's source row), zero outside the
/// strict lower triangle.
inline Matrix<double> reference_accordion(const nested::AccordionProblem& p) {
  Matrix<double> s(p.n, p.n, 0.0);
  for (std::size_t j = 0; j < p.n; ++j) {
    for (std::size_t i = j + 1; i < p.n; ++i) {
      s(i, j) = nested::accordion_cell(
          p, i, j, [&](std::size_t a, std::size_t b) { return s(a, b); });
    }
  }
  return s;
}

/// Viterbi: the (horizon+1)×num_states trellis of log-likelihoods.
inline Matrix<double> reference_viterbi(const nested::ViterbiProblem& p) {
  Matrix<double> d(p.rows(), p.num_states, 0.0);
  for (std::size_t t = 0; t < p.rows(); ++t) {
    for (std::size_t s = 0; s < p.num_states; ++s) {
      d(t, s) = nested::viterbi_cell(
          p, t, s, [&](std::size_t a, std::size_t b) { return d(a, b); });
    }
  }
  return d;
}

}  // namespace gs::baseline
