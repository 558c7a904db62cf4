#include "graph/netgraph.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "verilog/symbols.h"

namespace noodle::graph {

const char* to_string(NodeType type) noexcept {
  switch (type) {
    case NodeType::Input: return "input";
    case NodeType::Output: return "output";
    case NodeType::Wire: return "wire";
    case NodeType::Reg: return "reg";
    case NodeType::Const: return "const";
    case NodeType::Op: return "op";
    case NodeType::Mux: return "mux";
    case NodeType::Concat: return "concat";
    case NodeType::Select: return "select";
    case NodeType::Instance: return "instance";
  }
  return "unknown";
}

AnalysisScratch& thread_analysis_scratch() noexcept {
  thread_local AnalysisScratch scratch;
  return scratch;
}

NetGraph::NetGraph() : symbols_(std::make_shared<util::SymbolTable>()) {
  verilog::preintern_verilog_symbols(*symbols_);
}

NetGraph::NetGraph(std::shared_ptr<util::SymbolTable> symbols)
    : symbols_(std::move(symbols)) {
  if (!symbols_) throw std::invalid_argument("NetGraph: null symbol table");
  if (symbols_->size() < verilog::kPreinternedSymbolCount) {
    throw std::invalid_argument("NetGraph: symbol table lacks the verilog vocabulary");
  }
}

void NetGraph::check_id(NodeId id) const {
  // out_/in_ may be longer than nodes_ (capacity kept across clear()), so
  // range-check against the live node count, not the vector sizes.
  if (id >= nodes_.size()) throw std::out_of_range("NetGraph: invalid node id");
}

NetGraph::NodeId NetGraph::add_node(NodeType type, util::Symbol label, int width) {
  nodes_.push_back(Node{type, label, width});
  if (out_.size() < nodes_.size()) {
    out_.emplace_back();
    in_.emplace_back();
  }
  return nodes_.size() - 1;
}

NetGraph::NodeId NetGraph::add_node(NodeType type, std::string_view label, int width) {
  return add_node(type, symbols_->intern(label), width);
}

void NetGraph::add_edge(NodeId src, NodeId dst) {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    throw std::out_of_range("NetGraph::add_edge: invalid node id");
  }
  out_[src].push_back(dst);
  in_[dst].push_back(src);
  ++edge_count_;
}

void NetGraph::clear() noexcept {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    out_[i].clear();  // keeps each adjacency list's capacity
    in_[i].clear();
  }
  nodes_.clear();
  edge_count_ = 0;
}

std::vector<NetGraph::NodeId> NetGraph::nodes_of_type(NodeType type) const {
  std::vector<NodeId> result;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].type == type) result.push_back(id);
  }
  return result;
}

std::size_t NetGraph::component_count() const {
  return component_count(thread_analysis_scratch());
}

std::size_t NetGraph::component_count(AnalysisScratch& scratch) const {
  if (nodes_.empty()) return 0;
  scratch.seen.assign(nodes_.size(), 0);
  std::size_t components = 0;
  for (NodeId start = 0; start < nodes_.size(); ++start) {
    if (scratch.seen[start]) continue;
    ++components;
    scratch.queue.clear();
    scratch.queue.push_back(start);
    scratch.seen[start] = 1;
    for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
      const NodeId id = scratch.queue[head];
      for (const NodeId next : out_[id]) {
        if (!scratch.seen[next]) {
          scratch.seen[next] = 1;
          scratch.queue.push_back(next);
        }
      }
      for (const NodeId next : in_[id]) {
        if (!scratch.seen[next]) {
          scratch.seen[next] = 1;
          scratch.queue.push_back(next);
        }
      }
    }
  }
  return components;
}

std::size_t NetGraph::depth_from_inputs() const {
  return depth_from_inputs(thread_analysis_scratch());
}

std::size_t NetGraph::depth_from_inputs(AnalysisScratch& scratch) const {
  scratch.dist.assign(nodes_.size(), static_cast<std::size_t>(-1));
  scratch.queue.clear();
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].type == NodeType::Input) {
      scratch.dist[id] = 0;
      scratch.queue.push_back(id);
    }
  }
  std::size_t depth = 0;
  for (std::size_t head = 0; head < scratch.queue.size(); ++head) {
    const NodeId id = scratch.queue[head];
    depth = std::max(depth, scratch.dist[id]);
    for (const NodeId next : out_[id]) {
      if (scratch.dist[next] == static_cast<std::size_t>(-1)) {
        scratch.dist[next] = scratch.dist[id] + 1;
        scratch.queue.push_back(next);
      }
    }
  }
  return depth;
}

std::vector<double> NetGraph::type_histogram() const {
  std::vector<double> histogram(kNodeTypeCount, 0.0);
  type_histogram(histogram);
  return histogram;
}

void NetGraph::type_histogram(std::span<double> out) const {
  if (out.size() != kNodeTypeCount) {
    throw std::invalid_argument("NetGraph::type_histogram: bad output size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  if (nodes_.empty()) return;
  for (const Node& n : nodes_) {
    out[static_cast<std::size_t>(n.type)] += 1.0;
  }
  for (double& bin : out) bin /= static_cast<double>(nodes_.size());
}

std::vector<double> NetGraph::spectral_sketch(std::size_t count,
                                              std::size_t iterations) const {
  std::vector<double> eigenvalues(count, 0.0);
  spectral_sketch(eigenvalues, iterations, thread_analysis_scratch());
  return eigenvalues;
}

namespace {

/// Stationarity threshold for the blocked-iteration early exit: once every
/// column-norm eigenvalue estimate moves by at most this (relative) for
/// kSpectralConvergenceStreak consecutive passes, the subspace has stopped
/// turning and the remaining budget cannot change the Ritz values beyond
/// rounding. Well-separated spectra (stars, chains) exit within a handful
/// of passes; near-degenerate circuit spectra simply run the full budget.
/// Unlike single-vector power iteration, the blocked subspace absorbs the
/// ±λ pairs of near-bipartite netlists (both signs live in the subspace),
/// so the norms genuinely settle instead of oscillating forever.
constexpr double kSpectralConvergenceTol = 1e-13;
constexpr int kSpectralConvergenceStreak = 2;

/// Block width of the subspace iteration. One CSR pass drives all four
/// iterate columns, so the adjacency is walked once per pass instead of
/// once per eigenvector — and the fixed width lets every inner loop unroll
/// into four independent accumulator lanes.
constexpr std::size_t kSketchBlock = 4;

/// Deterministic decorrelated seed for iterate column c at node i (an
/// integer hash mapped into [0.5, 1.5)). The v1 sketch seeded every vector
/// from the same 7-periodic ramp, which made the start block nearly rank-1
/// and cost the subdominant eigenvalues most of their accuracy.
double sketch_seed(std::size_t i, std::size_t c) {
  std::uint64_t h = (static_cast<std::uint64_t>(i) * 2654435761ULL) ^
                    ((static_cast<std::uint64_t>(c) + 1) * 0x9e3779b97f4a7c15ULL);
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return 0.5 + static_cast<double>(h & 0xffffff) / static_cast<double>(0x1000000);
}

/// Cyclic Jacobi eigensolver for the m x m symmetric Rayleigh-Ritz matrix
/// (m is the block width, so this is a few sweeps over a 4x4).
void jacobi_eigenvalues(double* s, std::size_t m, double* eig) {
  for (int sweep = 0; sweep < 50; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = p + 1; q < m; ++q) off += s[p * m + q] * s[p * m + q];
    }
    if (off < 1e-24) break;
    for (std::size_t p = 0; p < m; ++p) {
      for (std::size_t q = p + 1; q < m; ++q) {
        const double spq = s[p * m + q];
        if (std::abs(spq) < 1e-18) continue;
        const double tau = (s[q * m + q] - s[p * m + p]) / (2.0 * spq);
        const double t =
            (tau >= 0.0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double sn = t * c;
        for (std::size_t i = 0; i < m; ++i) {
          const double sip = s[i * m + p];
          const double siq = s[i * m + q];
          s[i * m + p] = c * sip - sn * siq;
          s[i * m + q] = sn * sip + c * siq;
        }
        for (std::size_t i = 0; i < m; ++i) {
          const double spi = s[p * m + i];
          const double sqi = s[q * m + i];
          s[p * m + i] = c * spi - sn * sqi;
          s[q * m + i] = sn * spi + c * sqi;
        }
      }
    }
  }
  for (std::size_t i = 0; i < m; ++i) eig[i] = s[i * m + i];
}

/// The blocked iteration over one fixed 4-wide block. The four accumulator
/// lanes map one-to-one onto block columns, so each column's sums run in
/// a fixed order on every machine.
///
/// `small` is the caller's sketch_small scratch laid out as
/// norms[4] | prev[4] | gram[4x4] | chol[4x4].
void sketch_block(const std::size_t* offsets, const std::uint32_t* adj, std::size_t n,
                  std::size_t iterations, double* vp, double* wp, double* small,
                  std::span<double> out) {
  constexpr std::size_t W = kSketchBlock;
  double* norms = small;
  double* prev = norms + W;
  double* gram = prev + W;
  double* chol = gram + W * W;
  std::fill(prev, prev + W, -1.0);

  int stationary_streak = 0;
  for (std::size_t pass = 0; pass < iterations; ++pass) {
    const bool orthonormalize = (pass % 4 == 3) || pass + 1 == iterations;
    if (!orthonormalize) {
      // Fused SpMV + column square-norms, then one row-major rescale pass.
      double n0 = 0.0, n1 = 0.0, n2 = 0.0, n3 = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (std::size_t idx = offsets[i]; idx < offsets[i + 1]; ++idx) {
          const double* vr = vp + adj[idx] * 4;
          a0 += vr[0];
          a1 += vr[1];
          a2 += vr[2];
          a3 += vr[3];
        }
        double* wr = wp + i * 4;
        wr[0] = a0;
        wr[1] = a1;
        wr[2] = a2;
        wr[3] = a3;
        n0 += a0 * a0;
        n1 += a1 * a1;
        n2 += a2 * a2;
        n3 += a3 * a3;
      }
      norms[0] = std::sqrt(n0);
      norms[1] = std::sqrt(n1);
      norms[2] = std::sqrt(n2);
      norms[3] = std::sqrt(n3);
      const double i0 = norms[0] < 1e-12 ? 0.0 : 1.0 / norms[0];
      const double i1 = norms[1] < 1e-12 ? 0.0 : 1.0 / norms[1];
      const double i2 = norms[2] < 1e-12 ? 0.0 : 1.0 / norms[2];
      const double i3 = norms[3] < 1e-12 ? 0.0 : 1.0 / norms[3];
      for (std::size_t i = 0; i < n; ++i) {
        double* wr = wp + i * 4;
        wr[0] *= i0;
        wr[1] *= i1;
        wr[2] *= i2;
        wr[3] *= i3;
      }
    } else {
      // Fused SpMV + full 4x4 Gram, then Cholesky-QR: factor the Gram
      // matrix and apply L⁻ᵀ row-wise. A column whose pivot collapses is
      // rank-deficient (the graph has fewer independent spectral
      // directions than the block is wide) and is zeroed.
      std::array<double, 10> g{};
      for (std::size_t i = 0; i < n; ++i) {
        double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
        for (std::size_t idx = offsets[i]; idx < offsets[i + 1]; ++idx) {
          const double* vr = vp + adj[idx] * 4;
          a0 += vr[0];
          a1 += vr[1];
          a2 += vr[2];
          a3 += vr[3];
        }
        double* wr = wp + i * 4;
        wr[0] = a0;
        wr[1] = a1;
        wr[2] = a2;
        wr[3] = a3;
        g[0] += a0 * a0;
        g[1] += a0 * a1;
        g[2] += a0 * a2;
        g[3] += a0 * a3;
        g[4] += a1 * a1;
        g[5] += a1 * a2;
        g[6] += a1 * a3;
        g[7] += a2 * a2;
        g[8] += a2 * a3;
        g[9] += a3 * a3;
      }
      gram[0] = g[0];
      gram[1] = g[1];
      gram[2] = g[2];
      gram[3] = g[3];
      gram[5] = g[4];
      gram[6] = g[5];
      gram[7] = g[6];
      gram[10] = g[7];
      gram[11] = g[8];
      gram[15] = g[9];
      norms[0] = std::sqrt(gram[0]);
      norms[1] = std::sqrt(gram[5]);
      norms[2] = std::sqrt(gram[10]);
      norms[3] = std::sqrt(gram[15]);
      std::fill(chol, chol + W * W, 0.0);
      for (std::size_t c = 0; c < W; ++c) {
        double d = gram[c * W + c];
        for (std::size_t p = 0; p < c; ++p) d -= chol[c * W + p] * chol[c * W + p];
        if (!(d > 1e-24)) {
          chol[c * W + c] = 0.0;  // sentinel: dead column
          continue;
        }
        chol[c * W + c] = std::sqrt(d);
        for (std::size_t r = c + 1; r < W; ++r) {
          double s = gram[c * W + r];
          for (std::size_t p = 0; p < c; ++p) s -= chol[r * W + p] * chol[c * W + p];
          chol[r * W + c] = s / chol[c * W + c];
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        double* wr = wp + i * 4;
        for (std::size_t c = 0; c < W; ++c) {
          if (chol[c * W + c] == 0.0) {
            wr[c] = 0.0;
            continue;
          }
          double q = wr[c];
          for (std::size_t p = 0; p < c; ++p) q -= chol[c * W + p] * wr[p];
          wr[c] = q / chol[c * W + c];
        }
      }
    }
    std::swap(vp, wp);
    bool stationary = true;
    for (std::size_t c = 0; c < W; ++c) {
      if (std::abs(norms[c] - prev[c]) >
          kSpectralConvergenceTol * std::max(norms[c], 1.0)) {
        stationary = false;
        break;
      }
    }
    if (stationary) {
      if (++stationary_streak >= kSpectralConvergenceStreak) break;
    } else {
      stationary_streak = 0;
    }
    std::copy(norms, norms + W, prev);
  }

  // Rayleigh-Ritz: one more fused CSR pass computes S = Vᵀ(A·V) over the
  // final orthonormal block, then a small Jacobi sweep; the Ritz
  // magnitudes, sorted descending, are the sketch.
  std::array<double, 10> s{};
  for (std::size_t i = 0; i < n; ++i) {
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t idx = offsets[i]; idx < offsets[i + 1]; ++idx) {
      const double* vr = vp + adj[idx] * 4;
      a0 += vr[0];
      a1 += vr[1];
      a2 += vr[2];
      a3 += vr[3];
    }
    const double* vr = vp + i * 4;
    s[0] += vr[0] * a0;
    s[1] += vr[0] * a1;
    s[2] += vr[0] * a2;
    s[3] += vr[0] * a3;
    s[4] += vr[1] * a1;
    s[5] += vr[1] * a2;
    s[6] += vr[1] * a3;
    s[7] += vr[2] * a2;
    s[8] += vr[2] * a3;
    s[9] += vr[3] * a3;
  }
  gram[0] = s[0];
  gram[1] = gram[4] = s[1];
  gram[2] = gram[8] = s[2];
  gram[3] = gram[12] = s[3];
  gram[5] = s[4];
  gram[6] = gram[9] = s[5];
  gram[7] = gram[13] = s[6];
  gram[10] = s[7];
  gram[11] = gram[14] = s[8];
  gram[15] = s[9];
  jacobi_eigenvalues(gram, W, chol);  // chol doubles as eigenvalue storage
  for (std::size_t c = 0; c < W; ++c) chol[c] = std::abs(chol[c]);
  std::sort(chol, chol + W, std::greater<>());
  for (std::size_t k = 0; k < out.size(); ++k) out[k] = chol[k];
}

}  // namespace

void NetGraph::spectral_sketch(std::span<double> out, std::size_t iterations,
                               AnalysisScratch& scratch) const {
  const std::size_t n = nodes_.size();
  const std::size_t count = out.size();
  if (count > kSketchBlock) {
    throw std::invalid_argument("NetGraph::spectral_sketch: at most 4 eigenvalues");
  }
  std::fill(out.begin(), out.end(), 0.0);
  if (n == 0 || count == 0) return;

  // Materialize the symmetrized adjacency A + Aᵀ as CSR once: row i is
  // successors(i) then predecessors(i), so parallel edges and self-loops
  // keep their multiplicity (a self-loop appears in both halves, weight 2,
  // exactly as the old edge-scatter double-counted it). Every SpMV below is
  // then one contiguous gather per row instead of two indirections through
  // the vector-of-vectors adjacency — and the per-iteration w.assign(n, 0)
  // wipe disappears because each w[i] is written exactly once.
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("NetGraph::spectral_sketch: node count exceeds u32 CSR");
  }
  scratch.csr_offsets.resize(n + 1);
  scratch.csr_adj.resize(2 * edge_count_);
  {
    std::size_t pos = 0;
    for (NodeId i = 0; i < n; ++i) {
      scratch.csr_offsets[i] = pos;
      for (const NodeId dst : out_[i]) {
        scratch.csr_adj[pos++] = static_cast<std::uint32_t>(dst);
      }
      for (const NodeId src : in_[i]) {
        scratch.csr_adj[pos++] = static_cast<std::uint32_t>(src);
      }
    }
    scratch.csr_offsets[n] = pos;
  }
  const std::size_t* offsets = scratch.csr_offsets.data();
  const std::uint32_t* adj = scratch.csr_adj.data();

  // Blocked subspace iteration over a fixed 4-wide block (v2 sketch). Every
  // pass is one fused CSR sweep: the gather drives all four columns through
  // row-major 4-lane accumulators, and the column square-norms (regular
  // pass) or the full 4x4 Gram matrix (orthonormalization pass, every 4th
  // and the last) fall out of the same loop. Orthonormalization is
  // Cholesky-QR — one Gram pass plus one row-wise forward-substitution pass
  // instead of the strided dot/axpy ladder of Gram-Schmidt. Eigenvalue
  // magnitudes come from a final Rayleigh-Ritz projection (4x4 Jacobi),
  // which extracts the optimal estimates the iterated subspace supports —
  // including both halves of the ±λ pairs that near-bipartite netlists
  // produce and that single-vector deflated power iteration never pins
  // down. At the default 24-pass budget the Ritz values track a dense
  // eigensolve ~30x tighter than the v1 deflated sketch at 50 passes while
  // walking the adjacency ~6x fewer times (asserted in tests/test_graph.cpp
  // against a dense Jacobi ground truth).
  constexpr std::size_t W = kSketchBlock;
  std::vector<double>& v_block = scratch.vec_a;
  std::vector<double>& w_block = scratch.vec_b;
  v_block.resize(n * W);
  w_block.resize(n * W);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t c = 0; c < W; ++c) v_block[i * W + c] = sketch_seed(i, c);
  }
  scratch.sketch_small.resize(2 * W + 2 * W * W);
  sketch_block(offsets, adj, n, iterations, v_block.data(), w_block.data(),
               scratch.sketch_small.data(), out);
}

NetGraph::NodeId NetGraph::find_cycle_node(std::span<const std::uint8_t> excluded,
                                           std::uint32_t preferred_types) const {
  return find_cycle_node(excluded, preferred_types, thread_analysis_scratch());
}

NetGraph::NodeId NetGraph::find_cycle_node(std::span<const std::uint8_t> excluded,
                                           std::uint32_t preferred_types,
                                           AnalysisScratch& scratch) const {
  const std::size_t n = nodes_.size();
  auto skip = [&](NodeId id) { return id < excluded.size() && excluded[id] != 0; };

  // Iterative colored DFS: seen 0 = unvisited, 1 = on the current path,
  // 2 = finished. queue doubles as the explicit path stack and dist as the
  // per-node successor cursor, so a warm scratch allocates nothing.
  scratch.seen.assign(n, 0);
  scratch.dist.assign(n, 0);
  scratch.queue.clear();
  for (NodeId root = 0; root < n; ++root) {
    if (scratch.seen[root] != 0 || skip(root)) continue;
    scratch.queue.push_back(root);
    scratch.seen[root] = 1;
    while (!scratch.queue.empty()) {
      const NodeId v = scratch.queue.back();
      const std::vector<NodeId>& succ = out_[v];
      bool descended = false;
      while (scratch.dist[v] < succ.size()) {
        const NodeId w = succ[scratch.dist[v]++];
        if (skip(w)) continue;
        if (scratch.seen[w] == 1) {
          // Back edge: the cycle is the path-stack suffix starting at w.
          std::size_t start = scratch.queue.size() - 1;
          while (start > 0 && scratch.queue[start] != w) --start;
          for (std::size_t i = start; i < scratch.queue.size(); ++i) {
            const NodeId candidate = scratch.queue[i];
            if ((type_mask(nodes_[candidate].type) & preferred_types) != 0) {
              return candidate;
            }
          }
          return w;
        }
        if (scratch.seen[w] == 0) {
          scratch.seen[w] = 1;
          scratch.queue.push_back(w);
          descended = true;
          break;
        }
      }
      if (!descended) {
        scratch.seen[v] = 2;
        scratch.queue.pop_back();
      }
    }
  }
  return kNoNode;
}

}  // namespace noodle::graph
