// Heterogeneous sampling (Section 4.5 of the paper): each edge type is its
// own sparse matrix running the same workflow. This example builds a
// bipartite user-item interaction graph, binds the two relations
// ("clicked" and its reverse) as named graph inputs, and runs a
// HetGNN-style metapath walk (user -> item -> user -> ...) with top-k
// frequent-neighbor selection, plus PinSAGE on the item projection.
//
//   build/examples/heterogeneous

#include <cstdio>

#include "algorithms/algorithms.h"
#include "core/engine.h"
#include "graph/generator.h"

namespace {

// Bipartite interactions: users [0, U) click items [0, I). Relation
// matrices live over separate id spaces, so we build two graphs: `clicks`
// (column = user, rows = items the user clicked — "what can a walker at a
// user reach") and `clicked_by` (column = item, rows = users).
struct Bipartite {
  gs::graph::Graph user_to_item;  // columns: users, rows: items
  gs::graph::Graph item_to_user;  // columns: items, rows: users
};

Bipartite MakeInteractions(int64_t users, int64_t items, int64_t clicks, uint64_t seed) {
  gs::Rng rng(seed);
  std::vector<std::pair<int32_t, int32_t>> forward;  // (item, user)
  std::vector<std::pair<int32_t, int32_t>> backward;
  const int64_t n = std::max(users, items);
  for (int64_t c = 0; c < clicks; ++c) {
    // Skewed popularity: item ids cluster toward 0.
    const int32_t user = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(users)));
    const int32_t item = static_cast<int32_t>(
        rng.UniformInt(static_cast<uint64_t>(items)) *
        rng.UniformInt(static_cast<uint64_t>(items)) / static_cast<uint64_t>(items));
    forward.emplace_back(item, user);
    backward.emplace_back(user, item);
  }
  Bipartite b;
  // Both matrices are sized over the joint id space so walkers can move
  // between the relations without id translation.
  b.user_to_item = gs::graph::Graph::FromEdges("clicks", n, forward);
  b.item_to_user = gs::graph::Graph::FromEdges("clicked-by", n, backward);
  return b;
}

}  // namespace

int main() {
  using namespace gs;
  Bipartite bipartite = MakeInteractions(/*users=*/3000, /*items=*/1000,
                                         /*clicks=*/40000, /*seed=*/21);
  std::printf("user->item: %lld interactions; item->user: %lld\n",
              static_cast<long long>(bipartite.user_to_item.num_edges()),
              static_cast<long long>(bipartite.item_to_user.num_edges()));

  // HetGNN over the metapath user -> item -> user -> ... : the program is
  // written once against two named relations; bindings supply the matrices.
  algorithms::AlgorithmProgram ap = algorithms::HetGnn(
      bipartite.user_to_item,
      {.num_walks = 8, .walk_length = 4, .restart_prob = 0.4f, .k = 8});
  core::SamplerOptions options;
  core::SamplerSession sampler(std::move(ap.program), bipartite.user_to_item,
                               std::move(ap.tensors), options);
  sampler.BindGraph("rel0", &bipartite.user_to_item.adj());
  sampler.BindGraph("rel1", &bipartite.item_to_user.adj());

  std::vector<int32_t> seed_users;
  for (int i = 0; i < 64; ++i) {
    seed_users.push_back(i);
  }
  std::vector<core::Value> out = sampler.Sample(tensor::IdArray::FromVector(seed_users));
  const sparse::Matrix& neighbors = out[0].matrix;
  std::printf("HetGNN neighbors: %s\n", neighbors.DebugString().c_str());

  // Inspect one user's most-visited heterogeneous neighborhood.
  const sparse::Compressed& csc = neighbors.Csc();
  std::printf("user 0 top neighbors (node: visits):");
  for (int64_t e = csc.indptr[0]; e < csc.indptr[1]; ++e) {
    std::printf(" %d:%.0f", csc.indices[e], csc.values[e]);
  }
  std::printf("\n");

  // The same machinery drives PinSAGE over a single relation.
  algorithms::AlgorithmProgram pinsage = algorithms::PinSage(
      bipartite.item_to_user, {.num_walks = 10, .walk_length = 2, .k = 10});
  core::SamplerSession item_sampler(std::move(pinsage.program), bipartite.item_to_user,
                                    std::move(pinsage.tensors), options);
  std::vector<int32_t> seed_items = {0, 1, 2, 3};
  std::vector<core::Value> items = item_sampler.Sample(tensor::IdArray::FromVector(seed_items));
  std::printf("PinSAGE item neighborhoods: %s\n", items[0].matrix.DebugString().c_str());
  return 0;
}
