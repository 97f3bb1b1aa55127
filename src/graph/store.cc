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

GraphStore::GraphStore(Graph base, GraphStoreOptions options) : options_(options) {
  GS_CHECK_GT(options_.segment_cols, 0);
  name_ = base.name();
  num_nodes_ = base.num_nodes();
  uva_ = base.uva();
  const sparse::Compressed& csc = base.adj().Csc();
  weighted_ = csc.values.defined();

  // Slice the base CSC into immutable column segments.
  const int64_t num_segments = (num_nodes_ + options_.segment_cols - 1) / options_.segment_cols;
  segments_.reserve(static_cast<size_t>(num_segments));
  for (int64_t s = 0; s < num_segments; ++s) {
    auto seg = std::make_shared<ColumnSegment>();
    seg->begin_col = s * options_.segment_cols;
    seg->end_col = std::min(num_nodes_, seg->begin_col + options_.segment_cols);
    const int64_t base_off = csc.indptr[seg->begin_col];
    seg->offsets.reserve(static_cast<size_t>(seg->end_col - seg->begin_col) + 1);
    for (int64_t c = seg->begin_col; c <= seg->end_col; ++c) {
      seg->offsets.push_back(csc.indptr[c] - base_off);
    }
    const int64_t nnz = seg->offsets.back();
    seg->indices.resize(static_cast<size_t>(nnz));
    for (int64_t i = 0; i < nnz; ++i) {
      seg->indices[static_cast<size_t>(i)] = csc.indices[base_off + i];
    }
    if (weighted_) {
      seg->weights.resize(static_cast<size_t>(nnz));
      for (int64_t i = 0; i < nnz; ++i) {
        seg->weights[static_cast<size_t>(i)] = csc.values[base_off + i];
      }
    }
    segments_.push_back(std::move(seg));
  }

  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->epoch_ = 0;
  snap->digest_ = Snapshot::DigestOf(base);
  snap->graph_ = std::move(base);
  snap->degree_stats_ = DegreeStats::FromMatrix(snap->graph_.adj(), options_.hub_top_k);
  current_ = snap;
}

std::shared_ptr<const Snapshot> GraphStore::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

GraphStore::ColumnOverlay GraphStore::EffectiveColumnLocked(int64_t col) const {
  auto it = overlay_.find(col);
  if (it != overlay_.end()) {
    return it->second;
  }
  const ColumnSegment& seg = *segments_[static_cast<size_t>(SegmentOf(col))];
  const int64_t local = col - seg.begin_col;
  const int64_t begin = seg.offsets[static_cast<size_t>(local)];
  const int64_t end = seg.offsets[static_cast<size_t>(local) + 1];
  ColumnOverlay column;
  column.reserve(static_cast<size_t>(end - begin));
  for (int64_t i = begin; i < end; ++i) {
    column.emplace_back(seg.indices[static_cast<size_t>(i)],
                        seg.weights.empty() ? 0.0f : seg.weights[static_cast<size_t>(i)]);
  }
  return column;
}

std::shared_ptr<const Snapshot> GraphStore::Apply(const MutationBatch& batch) {
  std::unique_lock<std::mutex> lock(mutex_);

  // Removes first, then adds (upserts) in batch order — so a pair that is
  // both removed and re-added within one batch ends up present with the
  // add's weight, and the last add for a pair wins.
  for (const auto& [src, dst] : batch.remove_edges) {
    GS_CHECK(src >= 0 && src < num_nodes_ && dst >= 0 && dst < num_nodes_)
        << "remove (" << src << "," << dst << ") out of range";
    if (src == dst) {
      continue;
    }
    ColumnOverlay column = EffectiveColumnLocked(dst);
    auto it = std::lower_bound(column.begin(), column.end(), src,
                               [](const auto& e, int32_t s) { return e.first < s; });
    if (it != column.end() && it->first == src) {
      column.erase(it);
      ++stats_.edges_removed;
    }
    overlay_[dst] = std::move(column);
  }
  for (const EdgeAdd& e : batch.add_edges) {
    GS_CHECK(e.src >= 0 && e.src < num_nodes_ && e.dst >= 0 && e.dst < num_nodes_)
        << "add (" << e.src << "," << e.dst << ") out of range";
    if (e.src == e.dst) {
      continue;  // self-loops dropped, matching Graph::FromEdges
    }
    ColumnOverlay column = EffectiveColumnLocked(e.dst);
    auto it = std::lower_bound(column.begin(), column.end(), e.src,
                               [](const auto& p, int32_t s) { return p.first < s; });
    if (it != column.end() && it->first == e.src) {
      it->second = e.weight;
      ++stats_.edges_updated;
    } else {
      column.insert(it, {e.src, e.weight});
      ++stats_.edges_added;
    }
    overlay_[e.dst] = std::move(column);
  }

  // Feature rows copy-on-write: the new epoch gets its own tensor only when
  // this batch touches features; otherwise storage stays shared.
  Graph attrs = current_->graph();
  if (!batch.update_features.empty()) {
    GS_CHECK(attrs.features().defined()) << "feature update on a graph without features";
    tensor::Tensor features = attrs.features().Clone();
    const int64_t dim = features.cols();
    for (const FeatureUpdate& u : batch.update_features) {
      GS_CHECK(u.node >= 0 && u.node < num_nodes_) << "feature update node out of range";
      GS_CHECK_EQ(static_cast<int64_t>(u.row.size()), dim);
      for (int64_t c = 0; c < dim; ++c) {
        features.at(u.node, c) = u.row[static_cast<size_t>(c)];
      }
      ++stats_.features_updated;
    }
    attrs.SetFeatures(std::move(features));
  }

  delta_log_.push_back(batch);
  ++stats_.batches_applied;
  stats_.delta_entries = static_cast<int64_t>(delta_log_.size());

  std::shared_ptr<const Snapshot> snap = MaterializeLocked(current_->epoch() + 1, attrs);
  current_ = snap;
  stats_.epoch = snap->epoch();

  if (options_.seal_threshold > 0 &&
      static_cast<int64_t>(delta_log_.size()) >= options_.seal_threshold) {
    SealLocked();
  }

  // Fire listeners after releasing mutex_ so a listener may call back into
  // Current()/EffectiveEdges()/stats() without deadlocking.
  lock.unlock();
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

std::shared_ptr<const Snapshot> GraphStore::MaterializeLocked(uint64_t epoch, Graph attrs) {
  const device::MemorySpace space =
      uva_ ? device::MemorySpace::kHost : device::MemorySpace::kDevice;

  sparse::Compressed csc;
  csc.indptr = sparse::OffsetArray::Empty(num_nodes_ + 1, space);
  csc.indptr[0] = 0;
  int64_t nnz = 0;
  for (int64_t col = 0; col < num_nodes_; ++col) {
    auto it = overlay_.find(col);
    if (it != overlay_.end()) {
      nnz += static_cast<int64_t>(it->second.size());
    } else {
      const ColumnSegment& seg = *segments_[static_cast<size_t>(SegmentOf(col))];
      const int64_t local = col - seg.begin_col;
      nnz += seg.offsets[static_cast<size_t>(local) + 1] - seg.offsets[static_cast<size_t>(local)];
    }
    csc.indptr[col + 1] = nnz;
  }
  csc.indices = sparse::IdArray::Empty(nnz, space);
  if (weighted_) {
    csc.values = sparse::ValueArray::Empty(nnz, space);
  }
  int64_t cursor = 0;
  for (int64_t col = 0; col < num_nodes_; ++col) {
    auto it = overlay_.find(col);
    if (it != overlay_.end()) {
      for (const auto& [src, w] : it->second) {
        csc.indices[cursor] = src;
        if (weighted_) {
          csc.values[cursor] = w;
        }
        ++cursor;
      }
    } else {
      const ColumnSegment& seg = *segments_[static_cast<size_t>(SegmentOf(col))];
      const int64_t local = col - seg.begin_col;
      const int64_t begin = seg.offsets[static_cast<size_t>(local)];
      const int64_t end = seg.offsets[static_cast<size_t>(local) + 1];
      for (int64_t i = begin; i < end; ++i) {
        csc.indices[cursor] = seg.indices[static_cast<size_t>(i)];
        if (weighted_) {
          csc.values[cursor] = seg.weights[static_cast<size_t>(i)];
        }
        ++cursor;
      }
    }
  }
  GS_INTERNAL(cursor == nnz);

  Graph g = Graph::FromCsc(name_, num_nodes_, std::move(csc), uva_);
  if (attrs.features().defined()) {
    g.SetFeatures(attrs.features());
  }
  if (attrs.labels().defined()) {
    g.SetLabels(attrs.labels(), attrs.num_classes());
  }
  if (attrs.train_ids().defined()) {
    g.SetTrainIds(attrs.train_ids());
  }

  auto snap = std::shared_ptr<Snapshot>(new Snapshot());
  snap->epoch_ = epoch;
  snap->digest_ = Snapshot::DigestOf(g);
  snap->graph_ = std::move(g);
  snap->degree_stats_ = DegreeStats::FromMatrix(snap->graph_.adj(), options_.hub_top_k);
  return snap;
}

void GraphStore::Seal() {
  std::lock_guard<std::mutex> lock(mutex_);
  SealLocked();
}

void GraphStore::SealLocked() {
  if (overlay_.empty() && delta_log_.empty()) {
    return;
  }
  // Rebuild exactly the segments holding overlaid columns; every other
  // segment is reused by reference (the COW guarantee).
  std::vector<bool> touched(segments_.size(), false);
  for (const auto& [col, column] : overlay_) {
    (void)column;
    touched[static_cast<size_t>(SegmentOf(col))] = true;
  }
  for (size_t s = 0; s < segments_.size(); ++s) {
    if (!touched[s]) {
      ++stats_.segments_reused;
      continue;
    }
    const ColumnSegment& old = *segments_[s];
    auto fresh = std::make_shared<ColumnSegment>();
    fresh->begin_col = old.begin_col;
    fresh->end_col = old.end_col;
    fresh->offsets.reserve(static_cast<size_t>(old.end_col - old.begin_col) + 1);
    fresh->offsets.push_back(0);
    for (int64_t col = old.begin_col; col < old.end_col; ++col) {
      const ColumnOverlay column = EffectiveColumnLocked(col);
      for (const auto& [src, w] : column) {
        fresh->indices.push_back(src);
        if (weighted_) {
          fresh->weights.push_back(w);
        }
      }
      fresh->offsets.push_back(static_cast<int64_t>(fresh->indices.size()));
    }
    segments_[s] = std::move(fresh);
    ++stats_.segments_rebuilt;
  }
  overlay_.clear();
  delta_log_.clear();
  stats_.delta_entries = 0;
  ++stats_.seals;
}

std::vector<std::pair<int32_t, int32_t>> GraphStore::EffectiveEdges(
    std::vector<float>* weights) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<int32_t, int32_t>> edges;
  if (weights != nullptr) {
    weights->clear();
  }
  for (int64_t col = 0; col < num_nodes_; ++col) {
    const ColumnOverlay column = EffectiveColumnLocked(col);
    for (const auto& [src, w] : column) {
      edges.emplace_back(src, static_cast<int32_t>(col));
      if (weights != nullptr) {
        weights->push_back(w);
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
