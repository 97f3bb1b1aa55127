// Data-layout selection (Section 4.3): choose output sparse formats and
// row-compaction for structure-producing operators by measuring candidate
// configurations on calibration batches.
//
// The paper observes that only extract and select modify graph structure;
// compute/finalize adopt their upstream layout. The search space per
// structure node is {CSC, CSR, COO} x {compact, keep}, small enough to
// search directly: we run coordinate-descent sweeps (two passes over the
// nodes, each trying every option) with costs measured on the simulated
// device's deterministic model clock, which automatically accounts for
// conversion and compaction overheads — the cost-aware behaviour the paper
// contrasts with DGL's greedy per-operator choice.

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "core/passes.h"
#include "device/device.h"

namespace gs::core {
namespace {

struct Option {
  bool annotate = false;  // false = leave the kernel's natural output format
  sparse::Format format = sparse::Format::kCsc;
  bool compact = false;
};

std::vector<Option> OptionsFor(const Node& node) {
  (void)node;
  std::vector<Option> options;
  options.push_back({});  // natural output format
  for (sparse::Format f : {sparse::Format::kCsc, sparse::Format::kCoo, sparse::Format::kCsr}) {
    options.push_back({true, f, false});
  }
  return options;
}

void ApplyOption(Node& node, const Option& option) {
  node.has_format_choice = option.annotate;
  node.chosen_format = option.format;
  node.compact_rows = option.compact;
}

}  // namespace

void SelectDataLayout(Program& program, const Bindings& bindings,
                      std::span<const tensor::IdArray> calibration_batches,
                      const std::map<int, Value>& precomputed, Rng& rng) {
  std::vector<int> candidates;
  for (const Node& n : program.nodes()) {
    if (IsStructureOp(n.kind) && n.kind != OpKind::kCompactRows) {
      candidates.push_back(n.id);
    }
  }
  if (candidates.empty() || calibration_batches.empty()) {
    return;
  }

  Executor executor(program, ExecOptions{.layout = LayoutMode::kPlanned});
  for (const auto& [id, value] : precomputed) {
    executor.SetPrecomputed(id, value);
  }

  // Measures the current annotation assignment over the calibration
  // batches, with a fixed randomness stream so every configuration samples
  // identical subgraphs. Costs come from the stream's deterministic model
  // clock (model_ns), not the measured-CPU virtual clock: calibration must
  // pick the same layout on every compile of the same program, or the plan
  // itself becomes a function of host timing noise — which the differential
  // oracle (src/oracle/) would then flag as run-to-run divergence.
  auto measure = [&]() -> double {
    device::Stream& stream = device::Current().stream();
    const int64_t before = stream.counters().model_ns;
    try {
      for (size_t b = 0; b < calibration_batches.size(); ++b) {
        Rng trial = rng.Fork(0x1a07 + b);
        Bindings batch = bindings;
        batch.frontier = calibration_batches[b];
        executor.Run(batch, trial);
      }
    } catch (const Error& e) {
      // Invalid candidate (e.g. compacting one of two row-space-coupled
      // extracts): infinite cost, the sweep moves on.
      GS_LOG(Debug) << "layout candidate rejected: " << e.what();
      return std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(stream.counters().model_ns - before);
  };
  // An option must beat the incumbent by a margin to be adopted, so
  // near-ties resolve to the natural layout instead of churning.
  constexpr double kAdoptionMargin = 0.97;

  double best_total = measure();  // baseline: all-natural layouts

  // Stage 1: joint row-compaction of all extract nodes. Hoisting can split
  // one logical extract into several pattern-coupled slices (e.g. A[:, f]
  // and op(A)[:, f] when both have more than one consumer; single-consumer
  // ones are fused away); their row spaces must compact together, so
  // compaction is searched as a single joint switch.
  // Extracts feeding a collective sample stay uncompacted: the sample's
  // row-probability operand may live in the uncompacted row space (e.g.
  // FastGCN's precomputed per-node probabilities), and dropping
  // positive-probability rows would change which rows can be drawn — a
  // layout decision must never change sampled results. Whether calibration
  // batches happen to drop rows varies per batch, so adopting compaction
  // here would also make plans data-dependent.
  std::vector<int> collective_inputs;
  for (const Node& n : program.nodes()) {
    if ((n.kind == OpKind::kCollectiveSample || n.kind == OpKind::kFusedSliceCollectiveSample ||
         n.kind == OpKind::kFusedSliceReduceSample) &&
        !n.inputs.empty()) {
      collective_inputs.push_back(n.inputs[0]);
    }
  }
  std::vector<int> extracts;
  for (int id : candidates) {
    const OpKind kind = program.node(id).kind;
    const bool feeds_collective = std::find(collective_inputs.begin(), collective_inputs.end(),
                                            id) != collective_inputs.end();
    if ((kind == OpKind::kSliceCols || kind == OpKind::kSliceRows) && !feeds_collective) {
      extracts.push_back(id);
    }
  }
  if (!extracts.empty()) {
    for (int id : extracts) {
      program.node(id).compact_rows = true;
    }
    const double t = measure();
    if (t < best_total * kAdoptionMargin) {
      best_total = t;
    } else {
      for (int id : extracts) {
        program.node(id).compact_rows = false;
      }
    }
  }

  // Stage 2: per-node format sweeps (coordinate descent, two passes),
  // keeping whatever compaction decision stage 1 made.
  for (int sweep = 0; sweep < 2; ++sweep) {
    for (int id : candidates) {
      Node& node = program.node(id);
      const Option original{node.has_format_choice, node.chosen_format, node.compact_rows};
      Option best = original;
      for (Option option : OptionsFor(node)) {
        option.compact = original.compact;  // compaction fixed by stage 1
        ApplyOption(node, option);
        const double t = measure();
        if (t < best_total * kAdoptionMargin) {
          best_total = t;
          best = option;
        }
      }
      ApplyOption(node, best);
    }
  }

  GS_LOG(Info) << "layout selection done (" << candidates.size() << " structure nodes)";
}

}  // namespace gs::core
