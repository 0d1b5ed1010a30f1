#include "spn/absorbing.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

#include "linalg/dense_matrix.h"

namespace midas::spn {

TransientStructure::TransientStructure(const ReachabilityGraph& graph)
    : graph_(graph), absorbing_(graph.absorbing_mask()) {
  const std::size_t n = graph_.num_states();

  // Compact index over transient states.
  compact_.assign(n, UINT32_MAX);
  expand_.reserve(n);
  for (std::size_t s = 0; s < n; ++s) {
    if (!absorbing_[s]) {
      compact_[s] = static_cast<std::uint32_t>(expand_.size());
      expand_.push_back(static_cast<std::uint32_t>(s));
    }
  }
  const std::size_t nt = expand_.size();
  if (nt == 0) return;  // initial state itself absorbing
  init_compact_ = compact_[graph_.initial];

  // Transient→transient adjacency, once: incoming CSR (for the sojourn
  // balance) and outgoing CSR (for the condensation).
  in_offsets_.assign(nt + 1, 0);
  std::vector<std::uint32_t> out_offsets(nt + 1, 0);
  std::size_t num_tt = 0;
  for (std::size_t i = 0; i < nt; ++i) {
    for (const auto& e : graph_.out_edges(expand_[i])) {
      if (e.src == e.dst) continue;
      const auto cd = compact_[e.dst];
      if (cd != UINT32_MAX) {
        ++in_offsets_[cd + 1];
        ++out_offsets[i + 1];
        ++num_tt;
      }
    }
  }
  for (std::size_t i = 0; i < nt; ++i) {
    in_offsets_[i + 1] += in_offsets_[i];
    out_offsets[i + 1] += out_offsets[i];
  }
  in_edges_.resize(num_tt);
  std::vector<std::uint32_t> out_targets(num_tt);
  {
    std::vector<std::uint32_t> in_cursor(in_offsets_.begin(),
                                         in_offsets_.end() - 1);
    std::vector<std::uint32_t> out_cursor(out_offsets.begin(),
                                          out_offsets.end() - 1);
    for (std::size_t i = 0; i < nt; ++i) {
      const auto cs = static_cast<std::uint32_t>(i);
      const auto begin = graph_.edge_offsets[expand_[i]];
      const auto end = graph_.edge_offsets[expand_[i] + 1];
      for (std::uint32_t idx = begin; idx < end; ++idx) {
        const auto& e = graph_.edges[idx];
        if (e.src == e.dst) continue;
        const auto cd = compact_[e.dst];
        if (cd == UINT32_MAX) continue;
        in_edges_[in_cursor[cd]++] = {cs, idx};
        out_targets[out_cursor[i]++] = cd;
      }
    }
  }

  // Compacted exit-rate and absorption-flow structure: per transient
  // state, the global indices of its non-self-loop out-edges in graph
  // CSR order (exit), and among those the transient→absorbing ones
  // (abs).  The per-edge `e.src != e.dst` / absorbing-dst tests run
  // once here and the per-point loops walk dense index lists.
  exit_offsets_.reserve(nt + 1);
  abs_offsets_.reserve(nt + 1);
  exit_offsets_.push_back(0);
  abs_offsets_.push_back(0);
  for (std::size_t i = 0; i < nt; ++i) {
    const auto begin = graph_.edge_offsets[expand_[i]];
    const auto end = graph_.edge_offsets[expand_[i] + 1];
    for (std::uint32_t idx = begin; idx < end; ++idx) {
      const auto& e = graph_.edges[idx];
      if (e.src == e.dst) continue;
      exit_edges_.push_back(idx);
      if (absorbing_[e.dst]) abs_edges_.push_back({idx, e.dst});
    }
    exit_offsets_.push_back(static_cast<std::uint32_t>(exit_edges_.size()));
    abs_offsets_.push_back(static_cast<std::uint32_t>(abs_edges_.size()));
  }

  scc_ = strongly_connected_components(out_offsets, out_targets);
  components_ = scc_.members();
  slot_.assign(nt, 0);
  for (const auto& block : components_) {
    max_block_ = std::max(max_block_, block.size());
    for (std::size_t r = 0; r < block.size(); ++r) {
      slot_[block[r]] = static_cast<std::uint32_t>(r);
    }
  }
  if (max_block_ > 4096) {
    throw std::runtime_error(
        "TransientStructure: transient SCC of size " +
        std::to_string(max_block_) + " exceeds the dense-block limit");
  }
}

std::vector<double> TransientStructure::exit_rates(
    std::span<const double> edge_rates) const {
  const std::size_t nt = expand_.size();
  std::vector<double> exit(nt, 0.0);
  for (std::size_t i = 0; i < nt; ++i) {
    for (std::uint32_t k = exit_offsets_[i]; k < exit_offsets_[i + 1]; ++k) {
      exit[i] += edge_rates[exit_edges_[k]];
    }
  }
  return exit;
}

void TransientStructure::solve_blocks(std::span<const double> edge_rates,
                                      std::span<const double> exit,
                                      double shift,
                                      std::span<double> y) const {
  // Tarjan SCCs of the transient graph form a DAG; processing components
  // in topological order makes every cross-component inflow a known
  // quantity, and each component reduces to a dense system of its own
  // (tiny: the model's only cycles are the group partition/merge flips).
  // This is immune to the stiffness that defeats global Gauss–Seidel
  // when the cycle rates exceed the security rates by many orders of
  // magnitude.  Dense-block scratch is sized once to the largest SCC.
  const std::size_t kmax = std::max<std::size_t>(max_block_, 1);
  std::vector<double> lu(max_block_ > 1 ? kmax * kmax : 0);
  std::vector<double> b(max_block_ > 1 ? kmax : 0);
  std::vector<std::uint32_t> ipiv(b.size());
  // b_j plus the inflow from already-solved predecessor components.
  auto inflow = [&](std::uint32_t j, std::uint32_t c) {
    double acc = y[j];
    for (std::uint32_t k = in_offsets_[j]; k < in_offsets_[j + 1]; ++k) {
      const auto& in = in_edges_[k];
      if (scc_.component[in.src] != c) acc += y[in.src] * edge_rates[in.edge];
    }
    return acc;
  };
  // Higher component id = earlier in topological order (sources first).
  for (std::size_t c = components_.size(); c-- > 0;) {
    const auto& block = components_[c];
    const auto cc = static_cast<std::uint32_t>(c);
    if (block.size() == 1) {
      const auto j = block[0];
      const double diag = exit[j] + shift;
      if (diag <= 0.0) {
        throw std::runtime_error(
            "AbsorbingAnalyzer: transient state with zero exit rate");
      }
      y[j] = inflow(j, cc) / diag;
      continue;
    }
    // Dense block:  (shift + exit_j)·y_j − Σ_{i∈block} r_ij·y_i = b_j.
    const std::size_t k = block.size();
    std::fill_n(lu.begin(), k * k, 0.0);
    for (std::size_t r = 0; r < k; ++r) {
      const auto j = block[r];
      lu[r * k + r] = exit[j] + shift;
      b[r] = inflow(j, cc);
      for (std::uint32_t e = in_offsets_[j]; e < in_offsets_[j + 1]; ++e) {
        const auto& in = in_edges_[e];
        if (scc_.component[in.src] == cc) {
          lu[r * k + slot_[in.src]] -= edge_rates[in.edge];
        }
      }
    }
    linalg::LuFactorView view{std::span(lu).first(k * k),
                              std::span(ipiv).first(k), k};
    view.factor();
    view.solve_to(std::span(b).first(k), std::span(b).first(k));
    for (std::size_t r = 0; r < k; ++r) y[block[r]] = b[r];
  }
}

AbsorbingAnalyzer::AbsorbingAnalyzer(const ReachabilityGraph& graph)
    : TransientStructure(graph) {
  const std::size_t n = graph_.num_states();
  const std::size_t nt = expand_.size();
  if (nt == n) {
    throw std::runtime_error(
        "AbsorbingAnalyzer: chain has no absorbing states");
  }

  // Snapshot of the stored edge rates so the no-argument solve() does
  // not copy the edge list on every call (the graph is held const, so
  // the snapshot cannot go stale).
  stored_rates_.resize(graph_.edges.size());
  for (std::size_t i = 0; i < stored_rates_.size(); ++i) {
    stored_rates_[i] = graph_.edges[i].rate;
  }

  if (nt == 0) return;  // initial state itself absorbing: MTTA = 0

  if (init_compact_ == UINT32_MAX) {
    throw std::runtime_error(
        "AbsorbingAnalyzer: initial state is marked absorbing yet transient "
        "states exist; inconsistent graph");
  }

  // Absorption must be certain from the initial marking, or MTTA
  // diverges and the solve fails downstream with an opaque symptom (a
  // zero-exit-rate state, or a singular SCC block).  Detect the two
  // ways that happens here, where the message can say what is wrong:
  //   1. no absorbing state is reachable from the initial state at all;
  //   2. some reachable transient region cannot reach absorption (a
  //      recurrent transient class traps probability mass).
  // Edge existence is structural, so this is a construction-time check;
  // solve(edge_rates) only re-weights existing edges (positively).
  std::vector<char> can_absorb(nt, 0);
  std::vector<std::uint32_t> stack;
  for (std::size_t i = 0; i < nt; ++i) {
    for (const auto& e : graph_.out_edges(expand_[i])) {
      if (e.src != e.dst && absorbing_[e.dst]) {
        can_absorb[i] = 1;
        stack.push_back(static_cast<std::uint32_t>(i));
        break;
      }
    }
  }
  while (!stack.empty()) {
    const auto j = stack.back();
    stack.pop_back();
    for (std::uint32_t k = in_offsets_[j]; k < in_offsets_[j + 1]; ++k) {
      const auto src = in_edges_[k].src;
      if (!can_absorb[src]) {
        can_absorb[src] = 1;
        stack.push_back(src);
      }
    }
  }
  if (!can_absorb[init_compact_]) {
    throw std::runtime_error(
        "AbsorbingAnalyzer: no absorbing state is reachable from the "
        "initial marking " +
        graph_.states[graph_.initial].to_string() +
        " — every path cycles among transient states forever, so mean "
        "time to absorption diverges");
  }
  // Forward sweep over the transient region reachable from the initial
  // state: a reachable state that cannot absorb is a trap.
  std::vector<char> reachable(nt, 0);
  reachable[init_compact_] = 1;
  stack.push_back(init_compact_);
  while (!stack.empty()) {
    const auto j = stack.back();
    stack.pop_back();
    if (!can_absorb[j]) {
      throw std::runtime_error(
          "AbsorbingAnalyzer: transient state " +
          graph_.states[expand_[j]].to_string() +
          " is reachable from the initial marking but cannot reach any "
          "absorbing state (recurrent transient class: mean time to "
          "absorption diverges)");
    }
    for (const auto& e : graph_.out_edges(expand_[j])) {
      if (e.src == e.dst) continue;
      const auto cd = compact_[e.dst];
      if (cd != UINT32_MAX && !reachable[cd]) {
        reachable[cd] = 1;
        stack.push_back(cd);
      }
    }
  }
}

AbsorbingResult AbsorbingAnalyzer::solve() const {
  return solve(stored_rates_);
}

AbsorbingResult AbsorbingAnalyzer::solve(
    std::span<const double> edge_rates) const {
  return solve(edge_rates, SolveOptions{});
}

AbsorbingResult AbsorbingAnalyzer::solve(std::span<const double> edge_rates,
                                         const SolveOptions& opts) const {
  return solve_impl({}, edge_rates, opts);
}

AbsorbingResult AbsorbingAnalyzer::solve_from(
    std::span<const double> initial_mass, std::span<const double> edge_rates,
    const SolveOptions& opts) const {
  if (!initial_mass.empty() && initial_mass.size() != graph_.num_states()) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer::solve_from: initial_mass size " +
        std::to_string(initial_mass.size()) +
        " does not match state count " +
        std::to_string(graph_.num_states()));
  }
  return solve_impl(initial_mass, edge_rates, opts);
}

AbsorbingResult AbsorbingAnalyzer::solve_impl(
    std::span<const double> initial_mass, std::span<const double> edge_rates,
    const SolveOptions& opts) const {
  if (edge_rates.size() != graph_.edges.size()) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer::solve: edge_rates size " +
        std::to_string(edge_rates.size()) + " does not match edge count " +
        std::to_string(graph_.edges.size()));
  }
  const std::size_t n = graph_.num_states();
  const std::size_t nt = expand_.size();

  AbsorbingResult res;
  if (opts.sojourn) res.sojourn.assign(n, 0.0);

  if (nt == 0) {
    // Initial state itself is absorbing: MTTA = 0.  With a custom mass
    // the contract puts nothing at absorbing states, so there is no
    // transient mass at all and every expectation is 0.
    res.mtta = 0.0;
    if (opts.absorb_probability) {
      res.absorb_probability.assign(n, 0.0);
      if (initial_mass.empty()) res.absorb_probability[graph_.initial] = 1.0;
    }
    res.converged = true;
    return res;
  }

  // The expected-sojourn balance  exit_j·τ_j = π0_j + Σ_{i→j} τ_i·r_ij
  // is the unshifted block pass.  π₀ is the default unit mass at the
  // initial state, or the caller's full-state distribution (solve_from).
  const std::vector<double> exit_rate = exit_rates(edge_rates);
  std::vector<double> tau(nt, 0.0);
  if (initial_mass.empty()) {
    tau[init_compact_] = 1.0;
  } else {
    for (std::size_t i = 0; i < nt; ++i) tau[i] = initial_mass[expand_[i]];
  }
  solve_blocks(edge_rates, exit_rate, 0.0, tau);

  res.solver_blocks = components_.size();
  res.converged = true;
  double mtta = 0.0;
  for (std::size_t i = 0; i < nt; ++i) {
    if (opts.sojourn) res.sojourn[expand_[i]] = tau[i];
    mtta += tau[i];
  }
  res.mtta = mtta;

  // Absorption probabilities: flow into each absorbing state, via the
  // compacted transient→absorbing edge list.
  if (opts.absorb_probability) {
    res.absorb_probability.assign(n, 0.0);
    for (std::size_t i = 0; i < nt; ++i) {
      for (std::uint32_t k = abs_offsets_[i]; k < abs_offsets_[i + 1]; ++k) {
        const auto& ae = abs_edges_[k];
        res.absorb_probability[ae.dst] += tau[i] * edge_rates[ae.edge];
      }
    }
  }
  return res;
}

AbsorbingBatchResult AbsorbingAnalyzer::solve_batch(
    std::span<const double> edge_rates, std::size_t num_points,
    const BatchSolveOptions& opts, util::Arena* arena) const {
  const std::size_t P = num_points;
  if (P == 0) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer::solve_batch: num_points must be positive");
  }
  if (edge_rates.size() != graph_.edges.size() * P) {
    throw std::invalid_argument(
        "AbsorbingAnalyzer::solve_batch: edge_rates size " +
        std::to_string(edge_rates.size()) +
        " does not match edge count x num_points = " +
        std::to_string(graph_.edges.size() * P));
  }
  util::Arena& a = arena != nullptr ? *arena : util::thread_scratch_arena();
  const std::size_t n = graph_.num_states();
  const std::size_t nt = expand_.size();
  const double* rates = edge_rates.data();

  AbsorbingBatchResult res;
  res.num_points = P;
  res.mtta = a.make_span<double>(P, 0.0);
  res.sojourn = a.make_span<double>(n * P, 0.0);
  res.absorb_probability = a.make_span<double>(n * P, 0.0);

  if (nt == 0) {
    double* row = res.absorb_probability.data() +
                  static_cast<std::size_t>(graph_.initial) * P;
    for (std::size_t p = 0; p < P; ++p) row[p] = 1.0;
    res.converged = true;
    return res;
  }

  // Exit rates, point-major: each compacted edge contributes a
  // contiguous row of P rates to its source's row.
  auto exit = a.make_span<double>(nt * P, 0.0);
  for (std::size_t i = 0; i < nt; ++i) {
    double* row = exit.data() + i * P;
    for (std::uint32_t k = exit_offsets_[i]; k < exit_offsets_[i + 1]; ++k) {
      const double* er = rates + static_cast<std::size_t>(exit_edges_[k]) * P;
      for (std::size_t p = 0; p < P; ++p) row[p] += er[p];
    }
  }

  auto tau = a.make_span<double>(nt * P, 0.0);

  // Dense-block scratch, sized once to the largest SCC.
  const std::size_t kmax = std::max<std::size_t>(max_block_, 1);
  auto b = a.make_span<double>(kmax * P);         // point-major RHS
  auto M = a.make_span<double>(kmax * kmax * P);  // point-major blocks
  auto Mp = a.make_span<double>(kmax * kmax);     // one point's block
  auto xk = a.make_span<double>(kmax);
  auto ipiv = a.make_span<std::uint32_t>(kmax);
  // Factor-reuse scratch.
  std::span<double> m00, G;
  std::span<std::uint32_t> head, member;
  if (opts.factor_reuse && max_block_ > 1) {
    m00 = a.make_span<double>(P);
    G = a.make_span<double>(kmax * P);  // grouped RHS, component-major
    head = a.make_span<std::uint32_t>(P);
    member = a.make_span<std::uint32_t>(P);
  }

  // Higher component id = earlier in topological order (sources first) —
  // the scalar solve's order, mirrored exactly.
  for (std::size_t c = components_.size(); c-- > 0;) {
    const auto& block = components_[c];
    const auto cc = static_cast<std::uint32_t>(c);
    if (block.size() == 1) {
      const auto j = block[0];
      const double* ej = exit.data() + static_cast<std::size_t>(j) * P;
      for (std::size_t p = 0; p < P; ++p) {
        if (ej[p] <= 0.0) {
          throw std::runtime_error(
              "AbsorbingAnalyzer: transient state with zero exit rate");
        }
      }
      // External inflow + initial mass, accumulated per point in the
      // scalar external_b's in-CSR order.
      double* bj = b.data();
      const double init = j == init_compact_ ? 1.0 : 0.0;
      for (std::size_t p = 0; p < P; ++p) bj[p] = init;
      for (std::uint32_t k = in_offsets_[j]; k < in_offsets_[j + 1]; ++k) {
        const auto& in = in_edges_[k];
        if (scc_.component[in.src] == cc) continue;
        const double* ts = tau.data() + static_cast<std::size_t>(in.src) * P;
        const double* er = rates + static_cast<std::size_t>(in.edge) * P;
        for (std::size_t p = 0; p < P; ++p) bj[p] += ts[p] * er[p];
      }
      double* tj = tau.data() + static_cast<std::size_t>(j) * P;
      for (std::size_t p = 0; p < P; ++p) tj[p] = bj[p] / ej[p];
      continue;
    }
    const std::size_t k = block.size();
    // Point-major assembly:  M[(r·k+c)·P + p],  b[r·P + p].  The scalar
    // solve accumulates b (cross-component in-edges) and the block
    // coefficients (same-component in-edges) from the same ordered
    // in-CSR scan; the targets are disjoint, so one interleaved scan
    // reproduces both accumulation sequences bitwise.
    std::fill_n(M.data(), k * k * P, 0.0);
    for (std::size_t r = 0; r < k; ++r) {
      const auto j = block[r];
      double* diag = M.data() + (r * k + r) * P;
      const double* ej = exit.data() + static_cast<std::size_t>(j) * P;
      for (std::size_t p = 0; p < P; ++p) diag[p] = ej[p];
      double* br = b.data() + r * P;
      const double init = j == init_compact_ ? 1.0 : 0.0;
      for (std::size_t p = 0; p < P; ++p) br[p] = init;
      for (std::uint32_t e = in_offsets_[j]; e < in_offsets_[j + 1]; ++e) {
        const auto& in = in_edges_[e];
        const double* er = rates + static_cast<std::size_t>(in.edge) * P;
        if (scc_.component[in.src] != cc) {
          const double* ts = tau.data() + static_cast<std::size_t>(in.src) * P;
          for (std::size_t p = 0; p < P; ++p) br[p] += ts[p] * er[p];
        } else {
          double* mrc = M.data() + (r * k + slot_[in.src]) * P;
          for (std::size_t p = 0; p < P; ++p) mrc[p] -= er[p];
        }
      }
    }

    // Per-point fallback path: gather point p's block, factor, solve —
    // bitwise the scalar LuSolver path (shared factor/substitution
    // kernels, same values in, same order).
    auto solve_per_point = [&]() {
      for (std::size_t p = 0; p < P; ++p) {
        for (std::size_t rc = 0; rc < k * k; ++rc) Mp[rc] = M[rc * P + p];
        linalg::LuFactorView view{Mp.first(k * k), ipiv.first(k), k};
        view.factor();
        for (std::size_t r = 0; r < k; ++r) xk[r] = b[r * P + p];
        view.solve_to(xk.first(k), xk.first(k));
        for (std::size_t r = 0; r < k; ++r) {
          tau[static_cast<std::size_t>(block[r]) * P + p] = xk[r];
        }
      }
      res.blocks_factored += P;
    };

    bool can_normalise = opts.factor_reuse;
    if (can_normalise) {
      // Normalisation scale: the power of two bracketing the head
      // state's exit rate (block diagonal (0,0)).  A power-of-two
      // divide is EXACT, so N_p = M_p / 2^e keeps every mantissa:
      // factoring N_p chooses the same pivots and produces the scalar
      // factorisation's values scaled by 2^-e, and the substitution
      // returns bitwise the raw-block solution — factor reuse never
      // perturbs the arithmetic, it only shares work.  The (0,0) entry
      // is positive in any well-posed solve; bail out to the per-point
      // path rather than take ilogb of a degenerate one.
      for (std::size_t p = 0; p < P; ++p) {
        const double pivot = M[p];  // entry (0,0), point-major row 0
        if (!(pivot > 0.0)) {
          can_normalise = false;
          break;
        }
        m00[p] = std::ldexp(1.0, std::ilogb(pivot));
      }
    }
    if (!can_normalise) {
      solve_per_point();
    } else {
      // N_p = M_p / 2^e_p in place.  Points whose normalised blocks are
      // bitwise identical (identical blocks, or exact power-of-two
      // multiples — the common-scalar-multiple structure of rate-scaled
      // sweeps) share one factorisation; tau_p then depends only on
      // (N_p, b_p, e_p), never on which points share the batch.
      for (std::size_t rc = 0; rc < k * k; ++rc) {
        double* row = M.data() + rc * P;
        for (std::size_t p = 0; p < P; ++p) row[p] /= m00[p];
      }
      auto same_block = [&](std::size_t p, std::size_t q) {
        for (std::size_t rc = 0; rc < k * k; ++rc) {
          const double* row = M.data() + rc * P;
          if (std::bit_cast<std::uint64_t>(row[p]) !=
              std::bit_cast<std::uint64_t>(row[q])) {
            return false;
          }
        }
        return true;
      };
      for (std::size_t p = 0; p < P; ++p) {
        head[p] = static_cast<std::uint32_t>(p);
        for (std::size_t q = 0; q < p; ++q) {
          if (head[q] != q) continue;  // compare against group heads only
          if (same_block(p, q)) {
            head[p] = static_cast<std::uint32_t>(q);
            break;
          }
        }
      }
      for (std::size_t h = 0; h < P; ++h) {
        if (head[h] != h) continue;
        std::size_t n_g = 0;
        for (std::size_t p = 0; p < P; ++p) {
          if (head[p] == h) member[n_g++] = static_cast<std::uint32_t>(p);
        }
        for (std::size_t rc = 0; rc < k * k; ++rc) Mp[rc] = M[rc * P + h];
        linalg::LuFactorView view{Mp.first(k * k), ipiv.first(k), k};
        view.factor();
        ++res.blocks_factored;
        // Scaled right-hand sides g_p = b_p / m00_p, component-major.
        for (std::size_t r = 0; r < k; ++r) {
          double* gr = G.data() + r * n_g;
          for (std::size_t g = 0; g < n_g; ++g) {
            const std::size_t p = member[g];
            gr[g] = b[r * P + p] / m00[p];
          }
        }
        view.solve_many(G.first(k * n_g), n_g);
        for (std::size_t r = 0; r < k; ++r) {
          const double* gr = G.data() + r * n_g;
          for (std::size_t g = 0; g < n_g; ++g) {
            tau[static_cast<std::size_t>(block[r]) * P + member[g]] = gr[g];
          }
        }
        res.blocks_reused += n_g - 1;
      }
    }
  }

  res.solver_blocks = components_.size();
  res.converged = true;
  double* mtta = res.mtta.data();
  for (std::size_t i = 0; i < nt; ++i) {
    const double* ti = tau.data() + i * P;
    double* so =
        res.sojourn.data() + static_cast<std::size_t>(expand_[i]) * P;
    for (std::size_t p = 0; p < P; ++p) so[p] = ti[p];
    for (std::size_t p = 0; p < P; ++p) mtta[p] += ti[p];
  }

  // Absorption probabilities: flow into each absorbing state, in the
  // scalar pass's state/edge order per point.
  for (std::size_t i = 0; i < nt; ++i) {
    const double* ti = tau.data() + i * P;
    for (std::uint32_t k = abs_offsets_[i]; k < abs_offsets_[i + 1]; ++k) {
      const auto& ae = abs_edges_[k];
      double* ap = res.absorb_probability.data() +
                   static_cast<std::size_t>(ae.dst) * P;
      const double* er = rates + static_cast<std::size_t>(ae.edge) * P;
      for (std::size_t p = 0; p < P; ++p) ap[p] += ti[p] * er[p];
    }
  }
  return res;
}

double AbsorbingAnalyzer::accumulated_rate_reward(
    const AbsorbingResult& res,
    const std::function<double(const Marking&)>& reward) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < graph_.num_states(); ++s) {
    const double tau = res.sojourn[s];
    if (tau > 0.0) acc += tau * reward(graph_.states[s]);
  }
  return acc;
}

double AbsorbingAnalyzer::accumulated_impulse_reward(
    const AbsorbingResult& res) const {
  double acc = 0.0;
  for (const auto& e : graph_.edges) {
    if (e.impulse == 0.0) continue;
    acc += res.sojourn[e.src] * e.rate * e.impulse;
  }
  return acc;
}

double AbsorbingAnalyzer::accumulated_impulse_reward(
    const AbsorbingResult& res, std::span<const double> edge_rates) const {
  if (edge_rates.size() != graph_.edges.size()) {
    throw std::invalid_argument(
        "accumulated_impulse_reward: edge_rates size does not match edge "
        "count");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < graph_.edges.size(); ++i) {
    const auto& e = graph_.edges[i];
    if (e.impulse == 0.0) continue;
    acc += res.sojourn[e.src] * edge_rates[i] * e.impulse;
  }
  return acc;
}

double AbsorbingAnalyzer::accumulated_impulse_reward(
    const AbsorbingResult& res, std::span<const double> edge_rates,
    std::span<const double> edge_impulses) const {
  if (edge_rates.size() != graph_.edges.size() ||
      edge_impulses.size() != graph_.edges.size()) {
    throw std::invalid_argument(
        "accumulated_impulse_reward: edge_rates/edge_impulses size does "
        "not match edge count");
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < graph_.edges.size(); ++i) {
    if (edge_impulses[i] == 0.0) continue;
    acc += res.sojourn[graph_.edges[i].src] * edge_rates[i] *
           edge_impulses[i];
  }
  return acc;
}

double AbsorbingAnalyzer::absorption_probability_where(
    const AbsorbingResult& res,
    const std::function<bool(const Marking&)>& pred) const {
  double acc = 0.0;
  for (std::size_t s = 0; s < graph_.num_states(); ++s) {
    if (res.absorb_probability[s] > 0.0 && pred(graph_.states[s])) {
      acc += res.absorb_probability[s];
    }
  }
  return acc;
}

}  // namespace midas::spn
