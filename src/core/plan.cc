#include "core/plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "core/passes.h"

namespace gs::core {
namespace {

// --- Text serialization helpers ------------------------------------------

uint64_t Fnv1a(std::string_view s) {
  uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

// Bit-exact float round trip: hexadecimal float literals survive text form
// without rounding (float -> double promotion is exact; strtof rounds the
// exact value back to the original float).
std::string HexFloat(float v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
  return buf;
}

float ParseHexFloat(const std::string& s) {
  char* end = nullptr;
  const float v = std::strtof(s.c_str(), &end);
  GS_CHECK(end != nullptr && *end == '\0' && !s.empty()) << "plan: bad float literal '" << s
                                                         << "'";
  return v;
}

// Reads the next whitespace token and strips its "key=" prefix.
std::string TakeField(std::istringstream& in, const char* key) {
  std::string token;
  GS_CHECK(static_cast<bool>(in >> token)) << "plan: missing field '" << key << "'";
  const std::string prefix = std::string(key) + "=";
  GS_CHECK(token.rfind(prefix, 0) == 0)
      << "plan: expected '" << key << "=...', got '" << token << "'";
  return token.substr(prefix.size());
}

int64_t TakeInt(std::istringstream& in, const char* key) {
  const std::string v = TakeField(in, key);
  char* end = nullptr;
  const int64_t parsed = std::strtoll(v.c_str(), &end, 10);
  GS_CHECK(end != nullptr && *end == '\0' && !v.empty())
      << "plan: bad integer for '" << key << "': '" << v << "'";
  return parsed;
}

uint64_t TakeUint(std::istringstream& in, const char* key) {
  const std::string v = TakeField(in, key);
  char* end = nullptr;
  const uint64_t parsed = std::strtoull(v.c_str(), &end, 10);
  GS_CHECK(end != nullptr && *end == '\0' && !v.empty())
      << "plan: bad integer for '" << key << "': '" << v << "'";
  return parsed;
}

bool TakeBool(std::istringstream& in, const char* key) {
  const int64_t v = TakeInt(in, key);
  GS_CHECK(v == 0 || v == 1) << "plan: bad flag for '" << key << "'";
  return v != 0;
}

std::string JoinInts(const std::vector<int>& values) {
  std::ostringstream out;
  for (size_t i = 0; i < values.size(); ++i) {
    out << (i > 0 ? "," : "") << values[i];
  }
  return out.str();
}

std::vector<int> ParseIntList(const std::string& list) {
  std::vector<int> out;
  std::istringstream in(list);
  std::string item;
  while (std::getline(in, item, ',')) {
    GS_CHECK(!item.empty()) << "plan: malformed id list '" << list << "'";
    char* end = nullptr;
    out.push_back(static_cast<int>(std::strtol(item.c_str(), &end, 10)));
    GS_CHECK(end != nullptr && *end == '\0') << "plan: malformed id list '" << list << "'";
  }
  return out;
}

// The digest-covered payload: everything that defines the artifact (label,
// options, calibration/tuning state, program nodes with all annotations,
// outputs). The report/pass-timing trailer is informational and excluded so
// the digest is stable across runs of the same compilation.
std::string SemanticBody(const Program& program, const SamplerOptions& o,
                         const std::string& label, bool calibrated, int tuned_super_batch) {
  GS_CHECK(label.find_first_of(" \t\n\r") == std::string::npos)
      << "plan labels must not contain whitespace: '" << label << "'";
  std::ostringstream out;
  out << "label " << (label.empty() ? "-" : label) << "\n";
  out << "options fusion=" << o.enable_fusion << " extract_select=" << o.fuse_extract_select
      << " edge_maps=" << o.fuse_edge_maps << " sddmm=" << o.rewrite_sddmm
      << " preprocess=" << o.enable_preprocessing << " layout=" << o.enable_layout_selection
      << " greedy=" << o.greedy_when_layout_disabled << " super_batch=" << o.super_batch
      << " memory_budget=" << o.memory_budget_bytes
      << " calibration_batches=" << o.calibration_batches << " seed=" << o.seed << "\n";
  out << "state calibrated=" << calibrated << " tuned_super_batch=" << tuned_super_batch
      << "\n";
  out << "nodes " << program.size() << "\n";
  for (const Node& n : program.nodes()) {
    GS_CHECK(n.attrs.name.find_first_of(" \t\n\r") == std::string::npos)
        << "binding names must not contain whitespace: '" << n.attrs.name << "'";
    out << "node id=" << n.id << " kind=" << OpKindName(n.kind) << " in=" << JoinInts(n.inputs)
        << " k=" << n.attrs.k << " axis=" << n.attrs.axis
        << " bop=" << static_cast<int>(n.attrs.bop) << " scalar=" << HexFloat(n.attrs.scalar)
        << " p=" << HexFloat(n.attrs.p) << " q=" << HexFloat(n.attrs.q)
        << " flag=" << n.attrs.flag << " format=" << static_cast<int>(n.attrs.format)
        << " name=" << (n.attrs.name.empty() ? "-" : n.attrs.name)
        << " nstages=" << n.attrs.stages.size() << " inv=" << n.invariant
        << " fc=" << n.has_format_choice << " cf=" << static_cast<int>(n.chosen_format)
        << " cr=" << n.compact_rows;
    if (n.kind == OpKind::kFusedWalk) {
      out << " step=" << OpKindName(n.attrs.step_kind);
    }
    out << "\n";
    for (const sparse::EdgeMapStage& s : n.attrs.stages) {
      out << "stage op=" << static_cast<int>(s.op) << " kind=" << static_cast<int>(s.kind)
          << " scalar=" << HexFloat(s.scalar) << " a=" << s.operand << " b=" << s.operand2
          << "\n";
    }
  }
  out << "outputs " << JoinInts(program.outputs()) << "\n";
  return out.str();
}

}  // namespace

bool PlanValidity::CheckAgainst(const graph::DegreeStats& now, std::string* why) const {
  if (!bound) {
    return true;
  }
  const auto drift = [](double was, double is) {
    return std::abs(is - was) / std::max(std::abs(was), 1e-9);
  };
  const double mean_drift = drift(mean_in_degree, now.mean_in_degree);
  if (mean_drift > max_drift) {
    if (why != nullptr) {
      std::ostringstream out;
      out << "mean in-degree drifted " << mean_drift << " (bound " << max_drift << "): "
          << mean_in_degree << " -> " << now.mean_in_degree;
      *why = out.str();
    }
    return false;
  }
  const double p99_drift =
      drift(static_cast<double>(p99_in_degree), static_cast<double>(now.p99_in_degree));
  if (p99_drift > max_drift) {
    if (why != nullptr) {
      std::ostringstream out;
      out << "p99 in-degree drifted " << p99_drift << " (bound " << max_drift << "): "
          << p99_in_degree << " -> " << now.p99_in_degree;
      *why = out.str();
    }
    return false;
  }
  const double overlap = graph::DegreeStats::HubOverlap(hubs, now.hubs);
  if (overlap < min_hub_overlap) {
    if (why != nullptr) {
      std::ostringstream out;
      out << "hub-set overlap " << overlap << " below bound " << min_hub_overlap;
      *why = out.str();
    }
    return false;
  }
  return true;
}

std::string OptimizationReport::ToString() const {
  std::ostringstream out;
  out << "sddmm=" << sddmm_rewrites << " hoisted=" << hoisted_ops
      << " extract-select=" << extract_select_fusions << " edge-map=" << edge_map_fusions
      << " map-reduce=" << edge_map_reduce_fusions << " cse=" << cse_merged
      << " precomputed=" << precomputed_values << " layouts=" << annotated_layouts
      << " compacted=" << compacted_extracts;
  if (!passes.empty()) {
    out << "\npasses:";
    for (const PassStats& s : passes) {
      out << "\n  " << s.ToString();
    }
  }
  return out.str();
}

PassManager StandardPassPipeline(const SamplerOptions& options) {
  PassManager pipeline;
  if (options.enable_fusion && options.rewrite_sddmm) {
    pipeline.Register("sddmm-rewrite", RewriteSddmm);
  }
  if (options.enable_preprocessing) {
    pipeline.Register("hoist-over-extract", HoistOverExtract);
  }
  if (options.enable_fusion) {
    if (options.fuse_extract_select) {
      pipeline.Register("fuse-extract-select", FuseExtractSelect);
    }
    if (options.fuse_edge_maps) {
      // Map-reduce fusion runs before AND after chain fusion: the second
      // run absorbs reductions over chains the first fusion just formed.
      pipeline.Register("fuse-edge-map-reduce", FuseEdgeMapReduce);
      pipeline.Register("fuse-edge-maps", FuseEdgeMaps);
      pipeline.Register("fuse-edge-map-reduce", FuseEdgeMapReduce);
    }
    pipeline.Register("fuse-walks", FuseWalks);
  }
  pipeline.Register("cse", EliminateCommonSubexpressions);
  pipeline.Register("dce", DeadCodeElimination);
  pipeline.Register("mark-invariant", [](Program& p) {
    MarkInvariant(p);
    return 0;
  });
  return pipeline;
}

CompiledPlan::CompiledPlan(Program program, SamplerOptions options, std::string label)
    : program_(std::move(program)), options_(options), label_(std::move(label)) {
  program_.Verify();
  PassManagerOptions pass_options;
  pass_options.verify = options_.verify_passes;
  pass_options.dump_ir = options_.dump_ir_after_passes;
  pass_options.pass_limit = options_.pass_limit;
  StandardPassPipeline(options_).Run(program_, pass_options, &report_.passes);
  program_.Verify();
  for (const PassStats& s : report_.passes) {
    if (s.name == "sddmm-rewrite") {
      report_.sddmm_rewrites += s.rewrites;
    } else if (s.name == "hoist-over-extract") {
      report_.hoisted_ops += s.rewrites;
    } else if (s.name == "fuse-extract-select") {
      report_.extract_select_fusions += s.rewrites;
    } else if (s.name == "fuse-edge-maps") {
      report_.edge_map_fusions += s.rewrites;
    } else if (s.name == "fuse-edge-map-reduce") {
      report_.edge_map_reduce_fusions += s.rewrites;
    } else if (s.name == "cse") {
      report_.cse_merged += s.rewrites;
    }
  }
}

void CompiledPlan::Calibrate(const Bindings& bindings,
                             std::span<const tensor::IdArray> calibration_batches,
                             const std::map<int, Value>& precomputed, Rng& rng) {
  if (calibrated_) {
    return;
  }
  GS_CHECK(!frozen_) << "cannot calibrate a frozen plan";
  calibrated_ = true;
  if (!options_.enable_layout_selection) {
    return;
  }
  // Bind the mutation-validity predicate to the distribution the layout
  // decisions are about to be measured against. Plans without layout
  // selection skip this (no degree-sensitive decisions => always valid).
  if (bindings.graph != nullptr && bindings.graph->defined()) {
    const graph::DegreeStats stats = graph::DegreeStats::FromMatrix(*bindings.graph);
    validity_.bound = true;
    validity_.mean_in_degree = stats.mean_in_degree;
    validity_.p99_in_degree = stats.p99_in_degree;
    validity_.hubs = stats.hubs;
  }
  PassManagerOptions pass_options;
  pass_options.verify = options_.verify_passes;
  pass_options.dump_ir = options_.dump_ir_after_passes;
  report_.passes.push_back(
      PassManager::RunOne("select-data-layout", program_, pass_options, [&](Program& p) {
        SelectDataLayout(p, bindings, calibration_batches, precomputed, rng);
        return 0;
      }));
}

void CompiledPlan::set_tuned_super_batch(int size) {
  GS_CHECK(!frozen_) << "cannot tune a frozen plan";
  GS_CHECK_GE(size, 0);
  tuned_super_batch_ = size;
}

bool CompiledPlan::SuperBatchEligible() const {
  const std::vector<int>& outputs = program_.outputs();
  const std::vector<bool> per_walker = program_.PerWalkerNodes();
  return std::none_of(outputs.begin(), outputs.end(), [&](int out) {
    const OpKind kind = program_.node(out).kind;
    const bool walk = IsWalkStepOp(kind) || kind == OpKind::kFusedWalk ||
                      kind == OpKind::kWalkPathStep;
    return OutputKindOf(kind) == ValueKind::kTensor ||
           (walk && !per_walker[static_cast<size_t>(out)]);
  });
}

LayoutMode CompiledPlan::layout_mode() const {
  return options_.enable_layout_selection
             ? LayoutMode::kPlanned
             : (options_.greedy_when_layout_disabled ? LayoutMode::kGreedy : LayoutMode::kAsIs);
}

OptimizationReport CompiledPlan::report() const {
  OptimizationReport r = report_;
  for (const Node& n : program_.nodes()) {
    r.annotated_layouts += n.has_format_choice ? 1 : 0;
    r.compacted_extracts += n.compact_rows ? 1 : 0;
  }
  return r;
}

uint64_t CompiledPlan::Digest() const {
  return Fnv1a(SemanticBody(program_, options_, label_, calibrated_, tuned_super_batch_));
}

std::string CompiledPlan::DigestHex() const {
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx", static_cast<unsigned long long>(Digest()));
  return digest;
}

std::string CompiledPlan::Serialize() const {
  const std::string body =
      SemanticBody(program_, options_, label_, calibrated_, tuned_super_batch_);
  char digest[24];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(Fnv1a(body)));
  std::ostringstream out;
  out << "gsplan 1\n";
  out << "digest " << digest << "\n";
  out << body;
  // Informational trailer (excluded from the digest: pass wall times differ
  // run to run even for identical artifacts).
  out << "report sddmm=" << report_.sddmm_rewrites << " hoisted=" << report_.hoisted_ops
      << " extract_select=" << report_.extract_select_fusions
      << " edge_map=" << report_.edge_map_fusions
      << " map_reduce=" << report_.edge_map_reduce_fusions << " cse=" << report_.cse_merged
      << "\n";
  for (const PassStats& s : report_.passes) {
    out << "pass name=" << s.name << " rewrites=" << s.rewrites << " before=" << s.nodes_before
        << " after=" << s.nodes_after << " wall_ns=" << s.wall_ns
        << " virtual_ns=" << s.virtual_ns << " verified=" << s.verified << "\n";
  }
  // Mutation-validity predicate (gs::dyn). Informational like the report:
  // excluded from the digest, tolerated-if-absent by Deserialize, so legacy
  // artifacts load fine (with unbound, always-valid predicates).
  if (validity_.bound) {
    out << "validity mean=" << HexFloat(static_cast<float>(validity_.mean_in_degree))
        << " p99=" << validity_.p99_in_degree
        << " max_drift=" << HexFloat(static_cast<float>(validity_.max_drift))
        << " min_overlap=" << HexFloat(static_cast<float>(validity_.min_hub_overlap))
        << " hubs=" << JoinInts(std::vector<int>(validity_.hubs.begin(), validity_.hubs.end()))
        << "\n";
  }
  return out.str();
}

std::shared_ptr<CompiledPlan> CompiledPlan::Deserialize(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  GS_CHECK(std::getline(in, line) && line == "gsplan 1")
      << "plan: bad header (expected 'gsplan 1')";
  GS_CHECK(std::getline(in, line) && line.rfind("digest ", 0) == 0) << "plan: missing digest";
  char* end = nullptr;
  const uint64_t stored_digest = std::strtoull(line.c_str() + 7, &end, 16);
  GS_CHECK(end != nullptr && *end == '\0') << "plan: malformed digest line";

  auto plan = std::shared_ptr<CompiledPlan>(new CompiledPlan());
  Program program;
  std::string body;
  int declared_nodes = -1;
  bool saw_outputs = false;

  while (std::getline(in, line)) {
    if (line.empty()) {
      continue;
    }
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "report") {
      plan->report_.sddmm_rewrites = static_cast<int>(TakeInt(ls, "sddmm"));
      plan->report_.hoisted_ops = static_cast<int>(TakeInt(ls, "hoisted"));
      plan->report_.extract_select_fusions = static_cast<int>(TakeInt(ls, "extract_select"));
      plan->report_.edge_map_fusions = static_cast<int>(TakeInt(ls, "edge_map"));
      plan->report_.edge_map_reduce_fusions = static_cast<int>(TakeInt(ls, "map_reduce"));
      plan->report_.cse_merged = static_cast<int>(TakeInt(ls, "cse"));
      continue;
    }
    if (tag == "pass") {
      PassStats s;
      s.name = TakeField(ls, "name");
      s.rewrites = static_cast<int>(TakeInt(ls, "rewrites"));
      s.nodes_before = static_cast<int>(TakeInt(ls, "before"));
      s.nodes_after = static_cast<int>(TakeInt(ls, "after"));
      s.wall_ns = TakeInt(ls, "wall_ns");
      s.virtual_ns = TakeInt(ls, "virtual_ns");
      s.verified = TakeBool(ls, "verified");
      plan->report_.passes.push_back(std::move(s));
      continue;
    }
    if (tag == "validity") {
      PlanValidity& v = plan->validity_;
      v.bound = true;
      v.mean_in_degree = static_cast<double>(ParseHexFloat(TakeField(ls, "mean")));
      v.p99_in_degree = TakeInt(ls, "p99");
      v.max_drift = static_cast<double>(ParseHexFloat(TakeField(ls, "max_drift")));
      v.min_hub_overlap = static_cast<double>(ParseHexFloat(TakeField(ls, "min_overlap")));
      const std::vector<int> hubs = ParseIntList(TakeField(ls, "hubs"));
      v.hubs.assign(hubs.begin(), hubs.end());
      continue;
    }
    body += line;
    body += '\n';
    if (tag == "label") {
      std::string label;
      GS_CHECK(static_cast<bool>(ls >> label)) << "plan: empty label line";
      plan->label_ = label == "-" ? "" : label;
    } else if (tag == "options") {
      SamplerOptions& o = plan->options_;
      o.enable_fusion = TakeBool(ls, "fusion");
      o.fuse_extract_select = TakeBool(ls, "extract_select");
      o.fuse_edge_maps = TakeBool(ls, "edge_maps");
      o.rewrite_sddmm = TakeBool(ls, "sddmm");
      o.enable_preprocessing = TakeBool(ls, "preprocess");
      o.enable_layout_selection = TakeBool(ls, "layout");
      o.greedy_when_layout_disabled = TakeBool(ls, "greedy");
      o.super_batch = static_cast<int>(TakeInt(ls, "super_batch"));
      o.memory_budget_bytes = TakeInt(ls, "memory_budget");
      o.calibration_batches = static_cast<int>(TakeInt(ls, "calibration_batches"));
      o.seed = TakeUint(ls, "seed");
    } else if (tag == "state") {
      plan->calibrated_ = TakeBool(ls, "calibrated");
      plan->tuned_super_batch_ = static_cast<int>(TakeInt(ls, "tuned_super_batch"));
    } else if (tag == "nodes") {
      GS_CHECK(static_cast<bool>(ls >> declared_nodes)) << "plan: malformed nodes line";
    } else if (tag == "node") {
      const int id = static_cast<int>(TakeInt(ls, "id"));
      const std::string kind_name = TakeField(ls, "kind");
      OpKind kind;
      GS_CHECK(OpKindFromName(kind_name, &kind)) << "plan: unknown op kind '" << kind_name
                                                 << "'";
      const std::vector<int> inputs = ParseIntList(TakeField(ls, "in"));
      Attrs attrs;
      attrs.k = TakeInt(ls, "k");
      attrs.axis = static_cast<int>(TakeInt(ls, "axis"));
      const int64_t bop = TakeInt(ls, "bop");
      GS_CHECK(bop >= 0 && bop <= static_cast<int64_t>(BinaryOp::kPow))
          << "plan: bad binary op " << bop;
      attrs.bop = static_cast<BinaryOp>(bop);
      attrs.scalar = ParseHexFloat(TakeField(ls, "scalar"));
      attrs.p = ParseHexFloat(TakeField(ls, "p"));
      attrs.q = ParseHexFloat(TakeField(ls, "q"));
      attrs.flag = TakeBool(ls, "flag");
      const int64_t format = TakeInt(ls, "format");
      GS_CHECK(format >= 0 && format <= 2) << "plan: bad format " << format;
      attrs.format = static_cast<sparse::Format>(format);
      const std::string name = TakeField(ls, "name");
      attrs.name = name == "-" ? "" : name;
      const int64_t nstages = TakeInt(ls, "nstages");
      const bool invariant = TakeBool(ls, "inv");
      const bool has_format_choice = TakeBool(ls, "fc");
      const int64_t chosen = TakeInt(ls, "cf");
      GS_CHECK(chosen >= 0 && chosen <= 2) << "plan: bad chosen format " << chosen;
      const bool compact_rows = TakeBool(ls, "cr");
      if (kind == OpKind::kFusedWalk) {
        const std::string step = TakeField(ls, "step");
        GS_CHECK(OpKindFromName(step, &attrs.step_kind))
            << "plan: unknown walk step kind '" << step << "'";
      }
      for (int64_t s = 0; s < nstages; ++s) {
        GS_CHECK(std::getline(in, line)) << "plan: truncated stage list";
        body += line;
        body += '\n';
        std::istringstream ss(line);
        std::string stage_tag;
        ss >> stage_tag;
        GS_CHECK(stage_tag == "stage") << "plan: expected stage line, got '" << line << "'";
        sparse::EdgeMapStage stage;
        const int64_t op = TakeInt(ss, "op");
        GS_CHECK(op >= 0 && op <= static_cast<int64_t>(BinaryOp::kPow))
            << "plan: bad stage op " << op;
        stage.op = static_cast<BinaryOp>(op);
        const int64_t operand_kind = TakeInt(ss, "kind");
        GS_CHECK(operand_kind >= 0 &&
                 operand_kind <= static_cast<int64_t>(sparse::EdgeMapStage::OperandKind::kDot))
            << "plan: bad stage operand kind " << operand_kind;
        stage.kind = static_cast<sparse::EdgeMapStage::OperandKind>(operand_kind);
        stage.scalar = ParseHexFloat(TakeField(ss, "scalar"));
        stage.operand = static_cast<int>(TakeInt(ss, "a"));
        stage.operand2 = static_cast<int>(TakeInt(ss, "b"));
        attrs.stages.push_back(stage);
      }
      const int added = program.Add(kind, inputs, std::move(attrs));
      GS_CHECK_EQ(added, id) << "plan: node ids must be dense and in order";
      Node& node = program.node(added);
      node.invariant = invariant;
      node.has_format_choice = has_format_choice;
      node.chosen_format = static_cast<sparse::Format>(chosen);
      node.compact_rows = compact_rows;
    } else if (tag == "outputs") {
      std::string list;
      ls >> list;  // may be empty
      program.SetOutputs(ParseIntList(list));
      saw_outputs = true;
    } else {
      GS_CHECK(false) << "plan: unknown line '" << line << "'";
    }
  }

  GS_CHECK(declared_nodes == program.size())
      << "plan: node count mismatch (declared " << declared_nodes << ", got "
      << program.size() << ")";
  GS_CHECK(saw_outputs) << "plan: missing outputs line";
  const uint64_t digest = Fnv1a(body);
  GS_CHECK(digest == stored_digest)
      << "plan: digest mismatch (artifact corrupted or edited): stored "
      << std::hex << stored_digest << ", computed " << digest;
  program.Verify();
  plan->program_ = std::move(program);
  plan->restored_ = true;
  // A calibrated artifact is complete — freeze it so shared use is safe. An
  // uncalibrated one may still calibrate in its new process.
  plan->frozen_ = plan->calibrated_;
  return plan;
}

std::string CompiledPlan::DebugString() const {
  std::ostringstream out;
  out << "CompiledPlan(label=" << (label_.empty() ? "-" : label_)
      << ", fusion=" << options_.enable_fusion << ", preprocess=" << options_.enable_preprocessing
      << ", layout=" << options_.enable_layout_selection << ", calibrated=" << calibrated_
      << ", frozen=" << frozen_ << ", restored=" << restored_
      << ", tuned_super_batch=" << tuned_super_batch_ << ")\n";
  for (const PassStats& s : report_.passes) {
    out << "  " << s.ToString() << "\n";
  }
  out << program_.ToString();
  return out.str();
}

void SavePlanFile(const CompiledPlan& plan, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  GS_CHECK(out.good()) << "cannot open plan file for writing: " << path;
  const std::string text = plan.Serialize();
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.flush();
  GS_CHECK(out.good()) << "failed writing plan file: " << path;
}

std::shared_ptr<CompiledPlan> LoadPlanFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  GS_CHECK(in.good()) << "cannot open plan file: " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  GS_CHECK(!in.bad()) << "failed reading plan file: " << path;
  return CompiledPlan::Deserialize(buffer.str());
}

}  // namespace gs::core
