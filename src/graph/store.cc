#include "graph/store.h"

#include <algorithm>
#include <utility>

#include "common/error.h"

namespace gs::graph {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void FnvMix(uint64_t& h, const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

template <typename T>
void FnvMixArray(uint64_t& h, const device::Array<T>& a) {
  if (a.size() > 0) {
    FnvMix(h, a.data(), static_cast<size_t>(a.bytes()));
  }
}

}  // namespace

std::vector<int32_t> MutationBatch::TouchedColumns() const {
  std::vector<int32_t> cols;
  cols.reserve(add_edges.size() + remove_edges.size());
  for (const EdgeAdd& e : add_edges) {
    if (e.src != e.dst) {
      cols.push_back(e.dst);
    }
  }
  for (const auto& [src, dst] : remove_edges) {
    (void)src;
    cols.push_back(dst);
  }
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  return cols;
}

DegreeStats DegreeStats::FromMatrix(const sparse::Matrix& adj, int64_t top_k) {
  DegreeStats s;
  s.num_nodes = adj.num_cols();
  s.num_edges = adj.nnz();
  if (s.num_nodes == 0) {
    return s;
  }
  const sparse::Compressed& csc = adj.Csc();
  std::vector<int64_t> degree(static_cast<size_t>(s.num_nodes));
  for (int64_t v = 0; v < s.num_nodes; ++v) {
    degree[static_cast<size_t>(v)] = csc.indptr[v + 1] - csc.indptr[v];
  }
  s.mean_in_degree = static_cast<double>(s.num_edges) / static_cast<double>(s.num_nodes);
  s.max_in_degree = *std::max_element(degree.begin(), degree.end());

  std::vector<int64_t> sorted = degree;
  std::sort(sorted.begin(), sorted.end());
  const auto p99_idx = static_cast<size_t>(
      std::min<int64_t>(s.num_nodes - 1, (s.num_nodes * 99) / 100));
  s.p99_in_degree = sorted[p99_idx];

  // Top-K by degree, ties to the lower id; reported sorted by id so hub-set
  // overlap is a linear merge.
  const int64_t k = std::min<int64_t>(top_k, s.num_nodes);
  std::vector<int32_t> ids(static_cast<size_t>(s.num_nodes));
  for (int64_t v = 0; v < s.num_nodes; ++v) {
    ids[static_cast<size_t>(v)] = static_cast<int32_t>(v);
  }
  std::partial_sort(ids.begin(), ids.begin() + k, ids.end(), [&](int32_t a, int32_t b) {
    const int64_t da = degree[static_cast<size_t>(a)];
    const int64_t db = degree[static_cast<size_t>(b)];
    if (da != db) {
      return da > db;
    }
    return a < b;
  });
  s.hubs.assign(ids.begin(), ids.begin() + k);
  std::sort(s.hubs.begin(), s.hubs.end());
  return s;
}

double DegreeStats::HubOverlap(const std::vector<int32_t>& a, const std::vector<int32_t>& b) {
  if (a.empty()) {
    return 1.0;
  }
  size_t i = 0;
  size_t j = 0;
  int64_t common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return static_cast<double>(common) / static_cast<double>(a.size());
}

uint64_t Snapshot::DigestOf(const Graph& graph) {
  uint64_t h = kFnvOffset;
  const int64_t n = graph.num_nodes();
  FnvMix(h, &n, sizeof(n));
  const sparse::Compressed& csc = graph.adj().Csc();
  FnvMixArray(h, csc.indptr);
  FnvMixArray(h, csc.indices);
  if (csc.values.defined()) {
    FnvMixArray(h, csc.values);
  }
  return h;
}

std::shared_ptr<const Snapshot> GraphStore::Stamp(uint64_t epoch, Graph graph) {
  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->epoch_ = epoch;
  snap->digest_ = Snapshot::DigestOf(graph);
  snap->degree_stats_ = DegreeStats::FromMatrix(graph.adj());
  snap->graph_ = std::move(graph);
  return snap;
}

GraphStore::GraphStore(Graph base)
    : num_nodes_(base.num_nodes()), weighted_(base.adj().Csc().values.defined()) {
  current_ = Stamp(0, std::move(base));
}

std::shared_ptr<const Snapshot> GraphStore::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

std::shared_ptr<const Snapshot> GraphStore::Apply(const MutationBatch& batch) {
  std::lock_guard<std::mutex> writer(apply_mutex_);
  // Only the holder of apply_mutex_ replaces current_ and stats_, so it
  // reads them without mutex_.
  const Graph& graph = current_->graph();
  const auto in_range = [this](int32_t v) { return v >= 0 && v < num_nodes_; };

  // 1. Validate the whole batch before anything changes.
  for (const auto& [src, dst] : batch.remove_edges) {
    GS_CHECK(in_range(src) && in_range(dst)) << "remove (" << src << "," << dst << ") out of range";
  }
  for (const EdgeAdd& e : batch.add_edges) {
    GS_CHECK(in_range(e.src) && in_range(e.dst))
        << "add (" << e.src << "," << e.dst << ") out of range";
  }
  if (!batch.update_features.empty()) {
    GS_CHECK(graph.features().defined()) << "feature update on a graph without features";
    for (const FeatureUpdate& u : batch.update_features) {
      GS_CHECK(in_range(u.node)) << "feature update node out of range";
      GS_CHECK_EQ(static_cast<int64_t>(u.row.size()), graph.features().cols());
    }
  }
  GraphStoreStats stats = stats_;

  // 2. Edit copies of the touched columns: removes first, then adds
  // (upserts) in batch order, so a pair that is both removed and re-added
  // ends up present with the add's weight, and the last add for a pair wins.
  const sparse::Compressed& csc = graph.adj().Csc();
  using Column = std::vector<std::pair<int32_t, float>>;  // sorted (src, weight)
  std::map<int32_t, Column> edited;
  const auto column = [&](int32_t dst) -> Column& {
    auto [it, fresh] = edited.try_emplace(dst);
    if (fresh) {
      for (int64_t e = csc.indptr[dst]; e < csc.indptr[dst + 1]; ++e) {
        it->second.emplace_back(csc.indices[e], weighted_ ? csc.values[e] : 0.0f);
      }
    }
    return it->second;
  };
  const auto find = [](Column& edges, int32_t src) {
    return std::lower_bound(edges.begin(), edges.end(), src,
                            [](const auto& p, int32_t s) { return p.first < s; });
  };
  for (const auto& [src, dst] : batch.remove_edges) {
    if (src == dst) {
      continue;
    }
    Column& edges = column(dst);
    auto it = find(edges, src);
    if (it != edges.end() && it->first == src) {
      edges.erase(it);
      ++stats.edges_removed;
    }
  }
  for (const EdgeAdd& e : batch.add_edges) {
    if (e.src == e.dst) {
      continue;  // self-loops dropped, matching Graph::FromEdges
    }
    Column& edges = column(e.dst);
    auto it = find(edges, e.src);
    if (it != edges.end() && it->first == e.src) {
      it->second = e.weight;
      ++stats.edges_updated;
    } else {
      edges.insert(it, {e.src, e.weight});
      ++stats.edges_added;
    }
  }

  // 3. The next CSC, in the memory space the graph lives in: each run of
  // untouched columns is copied whole, its offsets shifted by the edits
  // before it, and each touched column is written from its edited copy.
  const int64_t* indptr = csc.indptr.data();
  int64_t nnz = indptr[num_nodes_];
  for (const auto& [col, edges] : edited) {
    nnz += static_cast<int64_t>(edges.size()) - (indptr[col + 1] - indptr[col]);
  }
  const device::MemorySpace space =
      graph.uva() ? device::MemorySpace::kHost : device::MemorySpace::kDevice;
  sparse::Compressed next;
  next.indptr = sparse::OffsetArray::Empty(num_nodes_ + 1, space);
  next.indices = sparse::IdArray::Empty(nnz, space);
  if (weighted_) {
    next.values = sparse::ValueArray::Empty(nnz, space);
  }
  int64_t* next_indptr = next.indptr.data();
  next_indptr[0] = 0;
  int64_t shift = 0;  // next offset minus current offset past the last edit
  const auto copy_run = [&](int64_t begin, int64_t end) {  // columns [begin, end)
    const int64_t from = indptr[begin];
    const int64_t to = indptr[end];
    std::copy(csc.indices.data() + from, csc.indices.data() + to,
              next.indices.data() + from + shift);
    if (weighted_) {
      std::copy(csc.values.data() + from, csc.values.data() + to,
                next.values.data() + from + shift);
    }
    for (int64_t c = begin; c < end; ++c) {
      next_indptr[c + 1] = indptr[c + 1] + shift;
    }
  };
  int64_t run = 0;  // first column of the current untouched run
  for (const auto& [col, edges] : edited) {
    copy_run(run, col);
    int64_t at = indptr[col] + shift;
    for (const auto& [src, w] : edges) {
      next.indices[at] = src;
      if (weighted_) {
        next.values[at] = w;
      }
      ++at;
    }
    shift = at - indptr[col + 1];
    next_indptr[col + 1] = at;
    run = col + 1;
  }
  copy_run(run, num_nodes_);
  GS_INTERNAL(next_indptr[num_nodes_] == nnz);

  Graph next_graph = Graph::FromCsc(graph.name(), num_nodes_, std::move(next), graph.uva());
  // Feature rows copy-on-write: the new epoch gets its own tensor only when
  // this batch touches features; otherwise storage stays shared.
  if (!batch.update_features.empty()) {
    tensor::Tensor features = graph.features().Clone();
    for (const FeatureUpdate& u : batch.update_features) {
      for (int64_t c = 0; c < features.cols(); ++c) {
        features.at(u.node, c) = u.row[static_cast<size_t>(c)];
      }
      ++stats.features_updated;
    }
    next_graph.SetFeatures(std::move(features));
  } else if (graph.features().defined()) {
    next_graph.SetFeatures(graph.features());
  }
  if (graph.labels().defined()) {
    next_graph.SetLabels(graph.labels(), graph.num_classes());
  }
  if (graph.train_ids().defined()) {
    next_graph.SetTrainIds(graph.train_ids());
  }
  std::shared_ptr<const Snapshot> snap = Stamp(current_->epoch() + 1, std::move(next_graph));
  ++stats.batches_applied;
  stats.epoch = snap->epoch();

  // 4. Publish: readers wait only for this swap.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = snap;
    stats_ = stats;
  }
  std::vector<Listener> fire;
  {
    std::lock_guard<std::mutex> llock(listener_mutex_);
    fire.reserve(listeners_.size());
    for (const auto& [id, l] : listeners_) {
      (void)id;
      fire.push_back(l);
    }
  }
  for (const Listener& l : fire) {
    l(snap, batch);
  }
  return snap;
}

std::vector<std::pair<int32_t, int32_t>> GraphStore::EffectiveEdges(
    std::vector<float>* weights) const {
  const std::shared_ptr<const Snapshot> snap = Current();
  const sparse::Compressed& csc = snap->graph().adj().Csc();
  std::vector<std::pair<int32_t, int32_t>> edges;
  edges.reserve(static_cast<size_t>(csc.indices.size()));
  if (weights != nullptr) {
    weights->clear();
  }
  for (int64_t col = 0; col < num_nodes_; ++col) {
    for (int64_t e = csc.indptr[col]; e < csc.indptr[col + 1]; ++e) {
      edges.emplace_back(csc.indices[e], static_cast<int32_t>(col));
      if (weights != nullptr) {
        weights->push_back(weighted_ ? csc.values[e] : 0.0f);
      }
    }
  }
  return edges;
}

int64_t GraphStore::AddListener(Listener listener) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  const int64_t id = next_listener_id_++;
  listeners_[id] = std::move(listener);
  return id;
}

void GraphStore::RemoveListener(int64_t id) {
  std::lock_guard<std::mutex> lock(listener_mutex_);
  listeners_.erase(id);
}

GraphStoreStats GraphStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace gs::graph
