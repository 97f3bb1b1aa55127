// Ablation: contribution of each individual fusion rule (Section 4.2) —
// Extract-Select fusion (node-wise for GraphSAGE, layer-wise for LADIES),
// Edge-Map(-Reduce) fusion, SDDMM rewriting, walk fusion (DeepWalk,
// Node2Vec) — for the algorithm each rule targets.

#include <cstdio>

#include "bench/harness.h"

namespace gs::bench {
namespace {

core::SamplerOptions Base() {
  core::SamplerOptions opts;
  opts.enable_fusion = true;
  opts.fuse_extract_select = false;
  opts.fuse_edge_maps = false;
  opts.rewrite_sddmm = false;
  opts.enable_preprocessing = true;
  opts.enable_layout_selection = true;
  opts.super_batch = 1;  // isolate fusion effects
  return opts;
}

void Run() {
  RunConfig config;
  config.dataset_scale = 0.5;
  config.max_batches = 16;
  BenchContext ctx(config);
  const device::DeviceProfile gpu = device::V100Sim();

  // Walk fusion has no flag of its own: its rows (enable == nullptr)
  // compare enable_fusion off and on.
  struct Case {
    const char* algo;
    const char* rule;
    void (*enable)(core::SamplerOptions&);
  };
  const std::vector<Case> cases = {
      {"GraphSAGE", "extract-select",
       [](core::SamplerOptions& o) { o.fuse_extract_select = true; }},
      {"LADIES", "extract-select",
       [](core::SamplerOptions& o) { o.fuse_extract_select = true; }},
      {"LADIES", "edge-map(-reduce)",
       [](core::SamplerOptions& o) { o.fuse_edge_maps = true; }},
      {"PASS", "sddmm-rewrite", [](core::SamplerOptions& o) { o.rewrite_sddmm = true; }},
      {"PASS", "all-fusion",
       [](core::SamplerOptions& o) {
         o.fuse_extract_select = true;
         o.fuse_edge_maps = true;
         o.rewrite_sddmm = true;
       }},
      {"DeepWalk", "walk", nullptr},
      {"Node2Vec", "walk", nullptr},
  };

  PrintTitle("Fusion-rule ablation (PD graph, epoch ms)");
  PrintRow("algorithm", {"rule", "off", "on", "speedup"});
  for (const Case& c : cases) {
    core::SamplerOptions off = Base();
    core::SamplerOptions on = Base();
    if (c.enable != nullptr) {
      c.enable(on);
    } else {
      off.enable_fusion = false;
    }
    const CellResult r_off = ctx.RunGsampler("PD", c.algo, gpu, off);
    const CellResult r_on = ctx.RunGsampler("PD", c.algo, gpu, on);
    char a[64];
    char b[64];
    char s[64];
    std::snprintf(a, sizeof(a), "%.1f", r_off.epoch_ms);
    std::snprintf(b, sizeof(b), "%.1f", r_on.epoch_ms);
    std::snprintf(s, sizeof(s), "%.2fx", r_off.epoch_ms / r_on.epoch_ms);
    PrintRow(c.algo, {c.rule, a, b, s});
  }
  std::printf("\n(Each rule should speed up the algorithm it targets; the SDDMM rewrite\n"
              " is the decisive one for PASS — without it the attention scores go\n"
              " through a dense |V| x |batch| product. Walk fusion saves L - 1 launches\n"
              " per walk of L steps, so it matters most at small batches.)\n");
}

}  // namespace
}  // namespace gs::bench

int main() {
  gs::bench::Run();
  return 0;
}
