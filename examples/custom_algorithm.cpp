// Writing a new sampling algorithm with the matrix-centric API.
//
// This example makes the paper's Figure 2 point concrete: computing the
// LADIES sampling bias is two lines against the matrix abstraction, versus
// the message-passing dance existing systems require. It then goes further
// and implements a *novel* algorithm — "degree-tempered layer-wise
// sampling" — to show that new designs compose from the same Table-4
// operators and inherit every engine optimization for free.
//
//   build/examples/custom_algorithm

#include <cmath>
#include <cstdio>

#include "core/engine.h"
#include "core/trace.h"
#include "graph/datasets.h"

int main() {
  using namespace gs;
  graph::Graph g = graph::MakePD({.scale = 0.25, .weighted = true});

  // --- Figure 2, right-hand side: LADIES bias in two lines -------------
  {
    core::Builder b;
    core::MVal a = b.Graph();
    core::IVal f = b.Frontier();
    core::MVal sub = a.Cols(f);
    core::TVal h = sub.Pow(2.0f).Sum(0);  // h = (A ** 2).sum(axis=...)
    core::TVal bias = h / h.Sum(0);       // return h / h.sum()
    b.Output(bias);
    core::SamplerSession sampler(std::move(b).Build(), g, {}, {});
    std::vector<int32_t> seeds = {0, 1, 2, 3};
    std::vector<core::Value> out = sampler.Sample(tensor::IdArray::FromVector(seeds));
    double total = 0;
    for (int64_t i = 0; i < out[0].tensor.numel(); ++i) {
      total += out[0].tensor.at(i);
    }
    std::printf("LADIES bias in 2 LoC: %lld candidate probabilities, sum = %.3f\n",
                static_cast<long long>(out[0].tensor.numel()), total);
  }

  // --- A novel algorithm: degree-tempered layer-wise sampling ----------
  // Candidate bias = (sum of incident frontier edge weights) / sqrt(degree):
  // high-degree hubs are down-weighted so the layer covers the periphery.
  // Both factors are plain Table-4 operators; the degree term is
  // batch-invariant, so the pre-processing pass computes it once.
  {
    core::Builder b;
    core::MVal a = b.Graph();
    core::IVal f = b.Frontier();
    core::TVal inv_sqrt_deg = (a.Sum(0) + 1.0f).Pow(-0.5f);  // pre-computed

    core::IVal cur = f;
    for (int layer = 0; layer < 2; ++layer) {
      core::MVal sub = a.Cols(cur);
      core::TVal bias = sub.Sum(0) * inv_sqrt_deg;  // tempered importance
      core::MVal sample = sub.CollectiveSample(256, bias);
      core::MVal normalized = sample.Div(sample.Sum(1), 1);
      b.Output(normalized);
      cur = sample.Row();
    }
    b.Output(cur);

    core::SamplerOptions options;
    options.super_batch = 0;
    core::SamplerSession sampler(std::move(b).Build(), g, {}, options);
    std::printf("\ncompiled degree-tempered sampler:\n%s\n",
                sampler.DebugString().c_str());

    std::vector<int32_t> seeds;
    for (int i = 0; i < 256; ++i) {
      seeds.push_back(i);
    }
    std::vector<core::Value> out = sampler.Sample(tensor::IdArray::FromVector(seeds));
    std::printf("layer 1 sample: %s\n", out[0].matrix.DebugString().c_str());
    std::printf("layer 2 sample: %s\n", out[1].matrix.DebugString().c_str());

    // The novel sampler gets every optimization automatically — including
    // super-batched epochs.
    device::Stream& stream = device::Current().stream();
    const double t0 = static_cast<double>(stream.counters().virtual_ns) / 1e6;
    sampler.SampleEpoch(g.train_ids(), 256, nullptr);
    std::printf("epoch: %.2f ms simulated (super-batch %d)\n",
                static_cast<double>(stream.counters().virtual_ns) / 1e6 - t0,
                sampler.effective_super_batch());
  }
  return 0;
}
