// Select-step kernels: node-wise (individual) sampling, the fused
// extract+sample kernel, and random walks. Layer-wise (collective)
// sampling lives in layerwise.cc.

#include <algorithm>
#include <vector>

#include "common/sampling.h"
#include "sparse/kernels.h"
#include "sparse/kernels_internal.h"

namespace gs::sparse {

using internal::CurrentStream;

Matrix IndividualSample(const Matrix& m, int64_t k, const ValueArray& probs,
                        std::span<Rng> rngs, int64_t num_nodes, IdArray* node_set) {
  GS_CHECK_GT(k, 0) << "fanout must be positive";
  if (probs.defined()) {
    GS_CHECK_EQ(probs.size(), m.nnz()) << "probs must align with the matrix's CSC edge order";
  }
  const Compressed& csc = m.Csc();
  const bool weighted = csc.values.defined();
  device::KernelScope kernel(CurrentStream());

  const int64_t t = m.num_cols();
  Compressed out;
  out.indptr = OffsetArray::Empty(t + 1);
  out.indptr[0] = 0;
  std::vector<int32_t> picked;  // per-column scratch of selected slots
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(static_cast<size_t>(std::min(m.nnz(), k * t)));
  int64_t pcie = 0;

  for (int64_t c = 0; c < t; ++c) {
    // A column's segment comes from its global (labeled) id.
    const int32_t id = m.GlobalColId(static_cast<int32_t>(c));
    const int64_t segment = num_nodes > 0 ? id / num_nodes : 0;
    GS_CHECK(id >= 0 && segment < static_cast<int64_t>(rngs.size()))
        << "column " << id << " has no rng for its segment";
    Rng& rng = rngs[static_cast<size_t>(segment)];
    const int64_t begin = csc.indptr[c];
    const int64_t deg = csc.indptr[c + 1] - begin;
    picked.clear();
    if (probs.defined()) {
      SampleWeightedWithoutReplacement(
          std::span<const float>(probs.data() + begin, static_cast<size_t>(deg)), k, rng,
          picked);
    } else {
      SampleUniformWithoutReplacement(deg, k, rng, picked);
    }
    // Canonical output order: emit by ascending slot so the result's edge
    // order is a pure function of the selected set, not of the selection
    // algorithm's internal ordering.
    std::sort(picked.begin(), picked.end());
    for (int32_t slot : picked) {
      indices.push_back(csc.indices[begin + slot]);
      if (weighted) {
        values.push_back(csc.values[begin + slot]);
      }
    }
    out.indptr[c + 1] = static_cast<int64_t>(indices.size());
    if (m.IsUva()) {
      // Selection needs the full candidate list (degrees + weights).
      pcie += internal::UvaCharge(m, static_cast<uint64_t>(id - segment * num_nodes),
                                  deg * int64_t{4});
    }
  }

  const int64_t out_nnz = static_cast<int64_t>(indices.size());
  out.indices = IdArray::FromVector(indices);
  if (weighted) {
    out.values = ValueArray::FromVector(values);
  }
  Matrix result = Matrix::FromCsc(m.num_rows(), t, std::move(out));
  internal::InheritRowSpace(m.row_ids(), result);
  result.SetColIds(m.col_ids());
  device::KernelStats charge{.parallel_items = std::max<int64_t>(m.nnz(), 1),
                             .hbm_bytes = m.nnz() * int64_t{4} + out_nnz * int64_t{8},
                             .pcie_bytes = pcie};
  if (node_set != nullptr) {
    *node_set = RowIdsInKernel(result, &charge);
  }
  kernel.Finish(charge);
  return result;
}

Matrix FusedSliceSample(const Matrix& m, const IdArray& cols, int64_t k, std::span<Rng> rngs,
                        IdArray* node_set) {
  GS_CHECK_GT(k, 0);
  const Compressed& csc = m.Csc();
  const bool weighted = csc.values.defined();
  device::KernelScope kernel(CurrentStream());
  const internal::Frontier frontier(m, cols, static_cast<int64_t>(rngs.size()));

  const int64_t t = frontier.size();
  Compressed out;
  out.indptr = OffsetArray::Empty(t + 1);
  out.indptr[0] = 0;
  std::vector<int32_t> picked;
  std::vector<int32_t> indices;
  std::vector<float> values;
  indices.reserve(static_cast<size_t>(k * t));
  int64_t pcie = 0;

  for (int64_t i = 0; i < t; ++i) {
    const internal::SliceColumn c = frontier[i];
    const int64_t begin = csc.indptr[c.local];
    const int64_t deg = csc.indptr[c.local + 1] - begin;
    picked.clear();
    SampleUniformWithoutReplacement(deg, k, rngs[static_cast<size_t>(c.segment)], picked);
    std::sort(picked.begin(), picked.end());  // canonical output order
    for (int32_t slot : picked) {
      indices.push_back(c.row_offset + csc.indices[begin + slot]);
      if (weighted) {
        values.push_back(csc.values[begin + slot]);
      }
    }
    out.indptr[i + 1] = static_cast<int64_t>(indices.size());
    if (m.IsUva()) {
      // Uniform selection touches only the chosen slots, not the whole
      // adjacency list — one of the wins of Extract-Select fusion on UVA.
      pcie += internal::UvaCharge(m, static_cast<uint64_t>(m.GlobalColId(c.local)),
                                  static_cast<int64_t>(picked.size()) * 4);
    }
  }

  const int64_t out_nnz = static_cast<int64_t>(indices.size());
  out.indices = IdArray::FromVector(indices);
  if (weighted) {
    out.values = ValueArray::FromVector(values);
  }
  Matrix result = Matrix::FromCsc(frontier.num_rows(), t, std::move(out));
  internal::InheritRowSpace(frontier.row_ids(), result);
  result.SetColIds(cols.Clone());
  device::KernelStats charge{.parallel_items = std::max<int64_t>(out_nnz, 1),
                             .hbm_bytes = out_nnz * int64_t{8},
                             .pcie_bytes = pcie};
  if (node_set != nullptr) {
    *node_set = RowIdsInKernel(result, &charge);
  }
  kernel.Finish(charge);
  return result;
}

namespace {

// A live walker decoded from its labeled id (see the Walks note in
// kernels.h).
struct Walker {
  int32_t node;    // column of m
  int32_t offset;  // segment * num_nodes: labels a node of m into the segment
  Rng& rng;        // the segment's stream
};

// Decodes the walkers of one step; the per-kernel constants are computed
// once because every walker of every step is decoded.
class WalkerDecoder {
 public:
  WalkerDecoder(const Matrix& m, std::span<Rng> rngs, int64_t num_nodes)
      : rngs_(rngs),
        n_(static_cast<int32_t>(num_nodes > 0 ? num_nodes : m.num_cols())),
        num_cols_(static_cast<int32_t>(m.num_cols())) {}

  Walker operator()(int32_t id) const {
    const int32_t segment = rngs_.size() == 1 ? 0 : id / n_;  // no division when solo
    const int32_t offset = segment * n_;
    GS_CHECK(static_cast<size_t>(segment) < rngs_.size() && id - offset < num_cols_)
        << "walker id " << id << " out of range";
    return {id - offset, offset, rngs_[static_cast<size_t>(segment)]};
  }

 private:
  std::span<Rng> rngs_;
  int32_t n_;
  int32_t num_cols_;
};

// Allocates the step-major path of `steps` rows of `walkers` ids, rejecting
// a shape whose id or byte count overflows int64 before allocating.
IdArray AllocatePath(int64_t steps, int64_t walkers) {
  GS_CHECK_GE(steps, 1) << "a walk takes at least one step";
  int64_t ids = 0;
  int64_t bytes = 0;
  GS_CHECK(!__builtin_mul_overflow(steps, walkers, &ids) &&
           !__builtin_mul_overflow(ids, static_cast<int64_t>(sizeof(int32_t)), &bytes))
      << "walk path of " << steps << " steps x " << walkers << " walkers overflows int64";
  return IdArray::Empty(ids);
}

}  // namespace

IdArray WalkPathRow(const IdArray& path, int64_t steps, int64_t row) {
  GS_CHECK(row >= 0 && row < steps) << "walk path row " << row << " of " << steps;
  const int64_t walkers = path.size() / steps;
  IdArray out = IdArray::Empty(walkers);
  std::copy_n(path.data() + row * walkers, walkers, out.data());
  return out;
}

IdArray UniformWalk(const Matrix& m, const IdArray& start, int64_t steps, std::span<Rng> rngs,
                    int64_t num_nodes) {
  const Compressed& csc = m.Csc();
  device::KernelScope kernel(CurrentStream());
  const WalkerDecoder decode(m, rngs, num_nodes);
  const int64_t walkers = start.size();
  IdArray path = AllocatePath(steps, walkers);
  int64_t pcie = 0;
  const int32_t* cur = start.data();
  for (int64_t t = 0; walkers > 0 && t < steps; ++t) {
    int32_t* out = path.data() + t * walkers;
    for (int64_t i = 0; i < walkers; ++i) {
      if (cur[i] < 0) {
        out[i] = -1;
        continue;
      }
      const Walker w = decode(cur[i]);
      const int64_t begin = csc.indptr[w.node];
      const int64_t deg = csc.indptr[w.node + 1] - begin;
      if (deg == 0) {
        out[i] = -1;
        continue;
      }
      const auto slot = static_cast<int64_t>(w.rng.UniformInt(static_cast<uint64_t>(deg)));
      out[i] = w.offset + csc.indices[begin + slot];
      if (m.IsUva()) {
        pcie += internal::UvaCharge(m, static_cast<uint64_t>(w.node), 4);
      }
    }
    cur = out;
  }
  kernel.Finish({.parallel_items = steps * walkers,
                 .hbm_bytes = steps * walkers * int64_t{12},
                 .pcie_bytes = pcie});
  return path;
}

IdArray UniformWalkStep(const Matrix& m, const IdArray& cur, std::span<Rng> rngs,
                        int64_t num_nodes) {
  return UniformWalk(m, cur, 1, rngs, num_nodes);
}

IdArray UniformWalkRestart(const Matrix& m, const IdArray& start, const IdArray& root,
                           float restart_prob, int64_t steps, std::span<Rng> rngs,
                           int64_t num_nodes) {
  GS_CHECK_EQ(start.size(), root.size());
  GS_CHECK(restart_prob >= 0.0f && restart_prob <= 1.0f);
  const Compressed& csc = m.Csc();
  device::KernelScope kernel(CurrentStream());
  const WalkerDecoder decode(m, rngs, num_nodes);
  const int64_t walkers = start.size();
  IdArray path = AllocatePath(steps, walkers);
  int64_t pcie = 0;
  const int32_t* cur = start.data();
  for (int64_t t = 0; walkers > 0 && t < steps; ++t) {
    int32_t* out = path.data() + t * walkers;
    for (int64_t i = 0; i < walkers; ++i) {
      if (cur[i] < 0) {
        out[i] = root[i];
        continue;
      }
      const Walker w = decode(cur[i]);
      if (w.rng.UniformF() < restart_prob) {
        out[i] = root[i];
        continue;
      }
      const int64_t begin = csc.indptr[w.node];
      const int64_t deg = csc.indptr[w.node + 1] - begin;
      if (deg == 0) {
        out[i] = root[i];  // dead end: restart
        continue;
      }
      const auto slot = static_cast<int64_t>(w.rng.UniformInt(static_cast<uint64_t>(deg)));
      out[i] = w.offset + csc.indices[begin + slot];
      if (m.IsUva()) {
        pcie += internal::UvaCharge(m, static_cast<uint64_t>(w.node), 4);
      }
    }
    cur = out;
  }
  kernel.Finish({.parallel_items = steps * walkers,
                 .hbm_bytes = steps * walkers * int64_t{16},
                 .pcie_bytes = pcie});
  return path;
}

IdArray UniformWalkStepRestart(const Matrix& m, const IdArray& cur, const IdArray& root,
                               float restart_prob, std::span<Rng> rngs, int64_t num_nodes) {
  return UniformWalkRestart(m, cur, root, restart_prob, 1, rngs, num_nodes);
}

Matrix TopKVisited(std::span<const IdArray> steps, const IdArray& roots, int64_t k,
                   int64_t num_rows) {
  GS_CHECK_GT(k, 0);
  device::KernelScope kernel(CurrentStream());
  const int64_t t = roots.size();
  for (const IdArray& step : steps) {
    GS_CHECK_EQ(step.size(), t) << "walk traces must align with roots";
  }

  Compressed out;
  out.indptr = OffsetArray::Empty(t + 1);
  out.indptr[0] = 0;
  std::vector<int32_t> indices;
  std::vector<float> counts;
  std::vector<std::pair<int32_t, int32_t>> visits;  // (node, count) scratch
  for (int64_t i = 0; i < t; ++i) {
    visits.clear();
    for (const IdArray& step : steps) {
      const int32_t v = step[i];
      if (v < 0 || v == roots[i]) {
        continue;
      }
      visits.emplace_back(v, 1);
    }
    std::sort(visits.begin(), visits.end());
    // Merge duplicates into counts, then keep the k most visited.
    std::vector<std::pair<int32_t, int32_t>> merged;  // (count, node)
    for (size_t j = 0; j < visits.size();) {
      size_t end = j;
      while (end < visits.size() && visits[end].first == visits[j].first) {
        ++end;
      }
      merged.emplace_back(static_cast<int32_t>(end - j), visits[j].first);
      j = end;
    }
    std::sort(merged.begin(), merged.end(), std::greater<>());
    const size_t take = std::min<size_t>(static_cast<size_t>(k), merged.size());
    for (size_t j = 0; j < take; ++j) {
      indices.push_back(merged[j].second);
      counts.push_back(static_cast<float>(merged[j].first));
    }
    out.indptr[i + 1] = static_cast<int64_t>(indices.size());
  }
  out.indices = IdArray::FromVector(indices);
  out.values = ValueArray::FromVector(counts);
  const int64_t out_nnz = static_cast<int64_t>(indices.size());
  Matrix result = Matrix::FromCsc(num_rows, t, std::move(out));
  result.SetColIds(roots.Clone());
  kernel.Finish({.parallel_items = t,
                 .hbm_bytes = static_cast<int64_t>(steps.size()) * t * 4 + out_nnz * 8});
  return result;
}

IdArray Node2VecWalk(const Matrix& m, const IdArray& start, const IdArray& prev, float p,
                     float q, int64_t steps, std::span<Rng> rngs, int64_t num_nodes) {
  GS_CHECK_EQ(start.size(), prev.size());
  GS_CHECK_GT(p, 0.0f);
  GS_CHECK_GT(q, 0.0f);
  const Compressed& csc = m.Csc();
  device::KernelScope kernel(CurrentStream());

  // Membership test: is `node` an in-neighbor of `anchor`? Requires sorted
  // per-column indices (guaranteed by the graph builders).
  auto is_neighbor = [&](int32_t anchor, int32_t node) {
    const int64_t begin = csc.indptr[anchor];
    const int64_t end = csc.indptr[anchor + 1];
    return std::binary_search(csc.indices.data() + begin, csc.indices.data() + end, node);
  };

  const WalkerDecoder decode(m, rngs, num_nodes);
  const int64_t walkers = start.size();
  IdArray path = AllocatePath(steps, walkers);
  std::vector<float> bias;
  int64_t edges_scored = 0;
  int64_t pcie = 0;
  const int32_t* before = prev.data();
  const int32_t* cur = start.data();
  for (int64_t t = 0; walkers > 0 && t < steps; ++t) {
    int32_t* out = path.data() + t * walkers;
    for (int64_t i = 0; i < walkers; ++i) {
      if (cur[i] < 0) {
        out[i] = -1;
        continue;
      }
      const Walker w = decode(cur[i]);
      const int64_t begin = csc.indptr[w.node];
      const int64_t deg = csc.indptr[w.node + 1] - begin;
      if (deg == 0) {
        out[i] = -1;
        continue;
      }
      int32_t searched = -1;  // the previous node, when its list was searched
      if (before[i] < 0) {
        const auto slot = static_cast<int64_t>(w.rng.UniformInt(static_cast<uint64_t>(deg)));
        out[i] = w.offset + csc.indices[begin + slot];
      } else {
        const int32_t prev_node = before[i] - w.offset;  // same segment as the walker
        bias.clear();
        for (int64_t e = begin; e < begin + deg; ++e) {
          const int32_t r = csc.indices[e];
          float b;
          if (r == prev_node) {
            b = 1.0f / p;
          } else if (is_neighbor(prev_node, r)) {
            b = 1.0f;
          } else {
            b = 1.0f / q;
          }
          bias.push_back(b);
        }
        const int32_t slot = SampleWeightedOne(bias, w.rng);
        out[i] = slot >= 0 ? w.offset + csc.indices[begin + slot] : -1;
        edges_scored += deg;
        searched = prev_node;
      }
      if (m.IsUva()) {
        pcie += internal::UvaCharge(m, static_cast<uint64_t>(w.node), deg * int64_t{4});
        if (searched >= 0) {
          // The adjacency test read the previous node's list too.
          pcie += internal::UvaCharge(
              m, static_cast<uint64_t>(searched),
              (csc.indptr[searched + 1] - csc.indptr[searched]) * int64_t{4});
        }
      }
    }
    before = cur;
    cur = out;
  }
  kernel.Finish({.parallel_items = steps * walkers,
                 .hbm_bytes = edges_scored * int64_t{8} + steps * walkers * int64_t{8},
                 .pcie_bytes = pcie});
  return path;
}

IdArray Node2VecStep(const Matrix& m, const IdArray& cur, const IdArray& prev, float p,
                     float q, std::span<Rng> rngs, int64_t num_nodes) {
  return Node2VecWalk(m, cur, prev, p, q, 1, rngs, num_nodes);
}

}  // namespace gs::sparse
