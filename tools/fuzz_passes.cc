// Randomized differential fuzzer for the pass pipeline and the tiers built
// on it.
//
// Each seeded draw picks an algorithm, an R-MAT graph, an epoch shape, and a
// random optimization configuration (pass flags, super-batch size, device
// profile), then runs the gs::oracle differential checks: the optimized plan
// must sample exactly what the all-optimizations-off reference samples under
// mirrored RNG streams (statistical equivalence where the contract is only
// distributional).
//
// Each dimension (kDimensions, in draw order) adds a differential with the
// same contract — the tier changes where work runs, never what is sampled:
//   --shards N    an N-way sharded serving::Server vs a single-device session
//   --features    hot-set-cache feature gathers vs an eager lookup
//   --kill-shard  the shard differential with one shard dead and 2 replicas
//                 (needs --shards N with N >= 2)
//   --mutate      a mutated GraphStore snapshot vs a from-scratch load
//   --jit         native JIT kernels vs the interpreter
//
// Failures are *minimized* to a one-line reproducer that `--repro` replays:
// dimensions are dropped in reverse table order, then optimization flags one
// at a time, then the pass pipeline is truncated via
// SamplerOptions.pass_limit to the shortest failing prefix, and the
// graph/epoch are shrunk. Every step is re-verified; a dimension whose drop
// makes the failure vanish is restored and reported as surviving.
//
// Usage:
//   fuzz_passes --seeds 200                 # fuzz 200 seeded draws
//   fuzz_passes --seeds 50 --base-seed 7    # different deterministic stream
//   fuzz_passes --seeds 40 --shards 2 --kill-shard --features --mutate --jit
//   fuzz_passes --out failures.txt          # append reproducer lines
//   fuzz_passes --repro 'algo=LADIES nodes=200 ...'   # replay one line
//
// Exit status: 0 when every draw passes, 1 on any failure, 2 on bad usage,
// which includes a count that is not a positive integer, --kill-shard
// without a second shard, and a repro token with an unknown key.

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/algorithms.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/executor.h"
#include "core/plan.h"
#include "device/device.h"
#include "dyn/mutation_gen.h"
#include "fault/fault.h"
#include "feature/hot_set_cache.h"
#include "feature/store.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "graph/partition.h"
#include "graph/store.h"
#include "jit/jit.h"
#include "oracle/oracle.h"
#include "serving/server.h"
#include "tensor/tensor.h"

namespace {

using gs::Rng;
using gs::core::SamplerSession;
using gs::core::Value;
using gs::tensor::IdArray;

// Parses all of `text`; false on junk, trailing characters, or overflow.
template <typename T>
bool ParseValue(const std::string& text, T& out) {
  std::istringstream in(text);
  return (in >> out) && in.eof();
}

// One fuzz draw, fully determined by its fields; serializes to the
// reproducer line.
struct FuzzConfig {
  std::string algo = "GraphSAGE";
  int64_t nodes = 200;
  int64_t edges = 2000;
  uint64_t gseed = 1;
  bool weighted = true;
  int num_batches = 4;
  int64_t batch_size = 8;
  bool fusion = true;
  bool preproc = true;
  bool layout = true;
  bool greedy = true;
  int super_batch = 1;
  uint64_t seed = 1;
  std::string profile = "v100";
  int pass_limit = -1;
  int shards = 1;             // >1 adds the sharded-vs-single differential
  bool features = false;      // adds the feature-gather differential
  std::string admission = "frequency-ema";  // cache policy when features
  int replicas = 1;           // replication factor when shards > 1
  int kill = -1;              // shard killed permanently (-1 = none)
  bool mutate = false;        // adds the snapshot-equivalence differential
  int mutations = 0;          // MutationBatches applied when mutate
  uint64_t mseed = 1;         // mutation-stream seed
  bool jit = false;           // adds the JIT-vs-interpreter differential

  bool operator==(const FuzzConfig&) const = default;

  // Every field under its reproducer-line key, in line order; ToLine and
  // FromLine both walk this list.
  template <typename Self, typename F>
  static void ForEachField(Self& c, F&& f) {
    f("algo", c.algo);
    f("nodes", c.nodes);
    f("edges", c.edges);
    f("gseed", c.gseed);
    f("weighted", c.weighted);
    f("batches", c.num_batches);
    f("batch_size", c.batch_size);
    f("fusion", c.fusion);
    f("preproc", c.preproc);
    f("layout", c.layout);
    f("greedy", c.greedy);
    f("super_batch", c.super_batch);
    f("seed", c.seed);
    f("profile", c.profile);
    f("pass_limit", c.pass_limit);
    f("shards", c.shards);
    f("features", c.features);
    f("admission", c.admission);
    f("replicas", c.replicas);
    f("kill", c.kill);
    f("mutate", c.mutate);
    f("mutations", c.mutations);
    f("mseed", c.mseed);
    f("jit", c.jit);
  }

  std::string ToLine() const {
    std::ostringstream os;
    ForEachField(*this, [&](const char* key, const auto& value) {
      os << (os.tellp() > 0 ? " " : "") << key << "=" << value;
    });
    return os.str();
  }

  // Applies a reproducer line over `out`; returns the first token that is
  // not key=value with a known key and a valid value, or "". An unknown key
  // must not be skipped: the line would replay a different config.
  static std::string FromLine(const std::string& line, FuzzConfig& out) {
    std::istringstream is(line);
    std::string tok;
    while (is >> tok) {
      const size_t eq = tok.find('=');
      bool parsed = false;
      ForEachField(out, [&](const char* key, auto& value) {
        if (eq != std::string::npos && tok.compare(0, eq, key) == 0) {
          parsed = ParseValue(tok.substr(eq + 1), value);
        }
      });
      if (!parsed) {
        return tok;
      }
    }
    return "";
  }
};

gs::core::SamplerOptions ToSamplerOptions(const FuzzConfig& c) {
  gs::core::SamplerOptions opts;
  opts.enable_fusion = c.fusion;
  opts.enable_preprocessing = c.preproc;
  opts.enable_layout_selection = c.layout;
  opts.greedy_when_layout_disabled = c.greedy;
  opts.super_batch = c.super_batch;
  opts.seed = c.seed;
  opts.pass_limit = c.pass_limit;
  return opts;
}

gs::graph::Graph MakeGraph(const FuzzConfig& c) {
  gs::graph::RMatParams p;
  p.name = "fuzz";
  p.num_nodes = c.nodes;
  p.num_edges = c.edges;
  p.weighted = c.weighted;
  p.seed = c.gseed;
  return gs::graph::MakeRMatGraph(p);
}

// A draw's device and graph, in that order: lazy format materialization
// allocates into the current device's caching allocator, so the graph must
// die first.
struct Fixture {
  explicit Fixture(const FuzzConfig& c)
      : device(c.profile == "t4" ? gs::device::T4Sim() : gs::device::V100Sim()),
        guard(device),
        g(MakeGraph(c)) {}

  gs::device::Device device;
  gs::device::DeviceGuard guard;
  gs::graph::Graph g;
};

// batch_size seed ids drawn uniformly over the graph's nodes.
IdArray DrawFrontier(const FuzzConfig& c, Rng& rng) {
  std::vector<int32_t> ids(static_cast<size_t>(c.batch_size));
  for (int32_t& id : ids) {
    id = static_cast<int32_t>(rng.UniformInt(static_cast<uint64_t>(c.nodes)));
  }
  return IdArray::FromVector(ids);
}

// What one differential found; `detail` is the skip reason, the ok summary,
// or the divergence, as --repro prints it.
struct Verdict {
  enum Kind { kSkipped, kOk, kDiverged } kind;
  std::string detail;
};

// Samples num_batches drawn frontiers (batch b under seed c.seed + b *
// stride, its frontier passed through `pin(b, frontier)`) through
// `reference` and through `got(b, frontier, seed)`, and requires
// bit-identical outputs.
template <typename Pin, typename Got>
Verdict CompareBatches(const FuzzConfig& c, uint64_t salt, uint64_t stride,
                       SamplerSession& reference, Pin pin, Got got, std::string ok) {
  Rng rng = Rng(c.seed ^ salt);
  for (int b = 0; b < c.num_batches; ++b) {
    const IdArray frontier = pin(b, DrawFrontier(c, rng));
    const uint64_t seed = c.seed + static_cast<uint64_t>(b) * stride;
    const std::vector<Value> want = reference.SampleSeeded(frontier, seed);
    const std::vector<Value> have = got(b, frontier, seed);
    for (size_t v = 0; v < std::max(want.size(), have.size()); ++v) {
      if (v >= want.size() || v >= have.size() || !gs::core::BitIdentical(have[v], want[v])) {
        return {Verdict::kDiverged, c.algo + ": batch " + std::to_string(b) + " output " +
                                        std::to_string(v) + " diverged"};
      }
    }
  }
  return {Verdict::kOk, std::move(ok)};
}

// Runs the oracle once for a config; returns the report. The eager-twin
// comparison stays off (it checks the hand-written baselines, not the pass
// pipeline) and the stochastic significance is tight so that hundreds of
// draws keep a negligible false-positive rate.
gs::oracle::OracleReport RunConfig(const FuzzConfig& c) {
  Fixture fx(c);
  gs::oracle::OracleOptions opts;
  opts.seed = c.seed ^ 0xF022F022ULL;
  opts.num_batches = c.num_batches;
  opts.batch_size = c.batch_size;
  opts.stochastic_batches = 100;
  opts.significance = 1e-5;
  opts.check_eager_twin = false;
  // The feature-gather differential runs only in --features draws (it is
  // orthogonal to the pass pipeline the default stream targets).
  opts.check_feature_gather = c.features;
  return gs::oracle::VerifyConfig(c.algo, fx.g, ToSamplerOptions(c), opts);
}

// Sharded-vs-single differential (--shards N): every batch served by an
// N-way sharded serving::Server with one worker (so batches execute one at
// a time, in order) must be bit-identical to a single-device session over
// the same plan options, frontier, and seed. Batch b is pinned to shard
// b mod N — each drawn id maps onto a node that shard homes, so the request
// routes there — and every shard gets checked. Model-updating algorithms
// are skipped (SampleSeeded is pure, but their contract is defined over the
// stateful epoch path serving does not run).
//
// Under --kill-shard one shard is permanently lost from the first placement
// probe (a seeded shard.lost FaultPlan with after=0) and the server runs 2
// replicas: failover changes which device executes, never what is sampled.
// Every response must be kOk (anything else throws, which is a divergence)
// and every batch pinned to the dead shard must fail over exactly once. The
// reference session probes with no shard context, so the shard-qualified
// plan cannot touch it.
Verdict ShardCheck(const FuzzConfig& c, Fixture& fx) {
  gs::algorithms::AlgorithmProgram ref = gs::algorithms::MakeAlgorithm(c.algo, fx.g);
  if (ref.updates_model) {
    return {Verdict::kSkipped, "skipped (stateful)"};
  }
  gs::core::SamplerOptions opts = ToSamplerOptions(c);
  opts.super_batch = 1;  // both sides sample one request at a time
  SamplerSession session(
      std::make_shared<gs::core::CompiledPlan>(std::move(ref.program), opts, c.algo), fx.g,
      std::move(ref.tensors), std::move(ref.relations));
  session.Warmup(IdArray::FromVector({0, 1, 2, 3}));

  gs::serving::ServerOptions server_opts;
  server_opts.num_workers = 1;
  server_opts.num_shards = c.shards;
  server_opts.num_replicas = std::min(std::max(c.replicas, 1), c.shards);
  gs::serving::Server server(server_opts);
  server.RegisterEndpoint(gs::serving::MakeEndpoint(c.algo, "fuzz", fx.g, opts));
  server.Start();
  // The server partitions the same graph the same way, so these are the
  // nodes each shard homes.
  const gs::graph::Partition partition = gs::graph::Partitioner::EdgeCut(fx.g, c.shards);
  std::vector<std::vector<int32_t>> homed(static_cast<size_t>(c.shards));
  for (int32_t v = 0; v < fx.g.num_nodes(); ++v) {
    homed[static_cast<size_t>(partition.OwnerOf(v))].push_back(v);
  }
  const bool kill = c.kill >= 0 && c.kill < c.shards;
  std::unique_ptr<gs::fault::FaultScope> kill_scope;
  if (kill) {
    kill_scope = std::make_unique<gs::fault::FaultScope>(gs::fault::FaultPlan::Parse(
        "shard" + std::to_string(c.kill) + ":shard.lost:after=0", c.seed));
  }
  int64_t killed_batches = 0;
  const Verdict verdict = CompareBatches(
      c, 0x5A4D5A4DULL, 1315423911ULL, session,
      [&](int b, const IdArray& drawn) {
        const std::vector<int32_t>& pool = homed[static_cast<size_t>(b % c.shards)];
        std::vector<int32_t> ids = drawn.ToVector();
        for (int32_t& id : ids) {
          id = pool.empty() ? id : pool[static_cast<size_t>(id) % pool.size()];
        }
        const IdArray pinned = IdArray::FromVector(ids);
        killed_batches += partition.HomeShard(pinned.data(), pinned.size()) == c.kill ? 1 : 0;
        return pinned;
      },
      [&](int b, const IdArray& f, uint64_t seed) {
        gs::serving::SampleRequest request;
        request.algorithm = c.algo;
        request.dataset = "fuzz";
        request.seeds = f;
        request.seed = seed;
        gs::serving::SampleResponse response = server.Submit(std::move(request)).get();
        if (response.status != gs::serving::Status::kOk) {
          throw std::runtime_error("batch " + std::to_string(b) + " answered " +
                                   gs::serving::StatusName(response.status) + ": " +
                                   response.error);
        }
        return std::move(response.outputs);
      },
      std::to_string(c.shards) + "-shard bit-identical");
  const int64_t failovers = server.stats().failovers;
  if (verdict.kind == Verdict::kOk && kill && failovers != killed_batches) {
    return {Verdict::kDiverged, c.algo + ": " + std::to_string(failovers) + " failovers for " +
                                    std::to_string(killed_batches) + " batches on dead shard " +
                                    std::to_string(c.kill)};
  }
  return verdict;
}

// Feature-gather determinism differential (--features): two fresh hot-set
// caches fed the identical access sequence under the drawn admission policy
// must produce bit-identical gathered rows (both matching an eager lookup)
// and identical hit/miss counters. The bit-identity-across-policies check
// itself runs inside the oracle (check_feature_gather); this adds the
// cache-determinism axis the oracle's single-cache pass cannot see.
Verdict FeatureCheck(const FuzzConfig& c, Fixture& fx) {
  const gs::tensor::Tensor& table = fx.g.features();
  if (!table.defined()) {
    return {Verdict::kSkipped, "skipped (no feature table)"};
  }
  const gs::feature::FeatureStore store(table);
  gs::feature::HotSetCacheOptions cache_opts;
  cache_opts.capacity = std::max<int64_t>(c.nodes / 8, 64);
  cache_opts.admission = gs::feature::AdmissionFromName(c.admission);
  gs::feature::HotSetCache cache_a(cache_opts);
  gs::feature::HotSetCache cache_b(cache_opts);
  const int64_t dim = table.cols();
  const size_t row_bytes = static_cast<size_t>(dim) * sizeof(float);

  Rng rng = Rng(c.seed ^ 0xFEA7FEA7ULL);
  for (int b = 0; b < c.num_batches * 2; ++b) {  // x2: revisit for warm hits
    Rng batch_rng = rng.Fork(static_cast<uint64_t>(b % c.num_batches));
    const IdArray frontier = DrawFrontier(c, batch_rng);
    const gs::tensor::Tensor got_a = store.Gather(frontier, &cache_a);
    const gs::tensor::Tensor got_b = store.Gather(frontier, &cache_b);
    for (int64_t i = 0; i < frontier.size(); ++i) {
      const float* row = got_a.data() + i * dim;
      const bool eager = std::memcmp(row, table.data() + frontier.data()[i] * dim, row_bytes) == 0;
      if (!eager || std::memcmp(row, got_b.data() + i * dim, row_bytes) != 0) {
        return {Verdict::kDiverged,
                c.admission + ": batch " + std::to_string(b) + " row " + std::to_string(i) +
                    (eager ? " differs between two caches fed the same sequence"
                           : " diverged from the eager lookup")};
      }
    }
  }
  if (cache_a.hits() != cache_b.hits() || cache_a.misses() != cache_b.misses()) {
    return {Verdict::kDiverged, c.admission + ": twin caches count different hits or misses"};
  }
  return {Verdict::kOk, c.admission + " bit-identical and deterministic"};
}

// Snapshot-equivalence differential (--mutate): apply a seeded mutation
// stream to a GraphStore over the drawn base graph, then require the
// oracle's VerifySnapshotEquivalence to hold — the incremental snapshot
// must be digest-identical and sample bit-identically to a from-scratch
// FromEdges load of the same effective edge set.
Verdict MutateCheck(const FuzzConfig& c, Fixture& fx) {
  const int64_t feature_dim = fx.g.features().defined() ? fx.g.features().cols() : 0;
  gs::graph::GraphStore store(std::move(fx.g));

  gs::dyn::MutationGenOptions gen_opts;
  gen_opts.seed = c.mseed;
  gen_opts.num_nodes = c.nodes;
  gen_opts.adds_per_batch = 16;
  gen_opts.removes_per_batch = 4;
  gen_opts.feature_updates_per_batch = feature_dim > 0 ? 4 : 0;
  gen_opts.feature_dim = feature_dim;
  gen_opts.weighted = c.weighted;
  gen_opts.skew = 0.8;
  gs::dyn::MutationGen gen(gen_opts);
  for (int m = 0; m < c.mutations; ++m) {
    store.Apply(gen.Next());
  }

  gs::oracle::OracleOptions opts;
  opts.seed = c.seed ^ 0xD1D1D1D1ULL;
  opts.num_batches = c.num_batches;
  opts.batch_size = c.batch_size;
  const gs::oracle::OracleReport report =
      gs::oracle::VerifySnapshotEquivalence(c.algo, store, ToSamplerOptions(c), opts);
  if (!report.ok()) {
    return {Verdict::kDiverged, report.ToString()};
  }
  return {Verdict::kOk, std::to_string(c.mutations) + " batches snapshot-equivalent"};
}

// JIT-vs-interpreter differential (--jit): the same compiled plan is sampled
// through two warmed sessions — one purely interpreted, one with the JIT
// engine's native jump table attached — and every batch must be
// bit-identical. The engine is process-global so artifacts accumulate in one
// scratch dir across draws (the cache verifies each reloaded .so by its
// embedded key, so stale artifacts cannot poison a draw).
Verdict JitCheck(const FuzzConfig& c, Fixture& fx) {
  static gs::jit::JitEngine* engine = [] {
    gs::jit::JitEngineOptions options;
    options.artifact_dir = (std::filesystem::temp_directory_path() / "gs_fuzz_jit").string();
    std::filesystem::create_directories(options.artifact_dir);
    return new gs::jit::JitEngine(options);
  }();
  gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(c.algo, fx.g);
  gs::core::SamplerOptions opts = ToSamplerOptions(c);
  if (ap.updates_model) {
    opts.super_batch = 1;
  }
  auto plan = std::make_shared<gs::core::CompiledPlan>(std::move(ap.program), opts, c.algo);
  SamplerSession interp(plan, fx.g, ap.tensors, ap.relations);
  SamplerSession jitted(plan, fx.g, ap.tensors, ap.relations);
  interp.Warmup(IdArray::FromVector({0, 1, 2, 3}));
  jitted.Warmup(IdArray::FromVector({0, 1, 2, 3}));
  // Post-warmup, like serving: warmup calibrates the plan, and calibration
  // is part of the digest the artifact keys embed.
  const auto table = engine->TableFor(*plan);
  if (table == nullptr) {
    return {Verdict::kSkipped, "skipped (no fused regions)"};
  }
  jitted.SetJitTable(table);
  return CompareBatches(
      c, 0x317317ULL, 2654435761ULL, interp, [](int, IdArray f) { return f; },
      [&](int, const IdArray& f, uint64_t seed) { return jitted.SampleSeeded(f, seed); },
      "native kernels bit-identical");
}

// One fuzz dimension: a CLI flag, --<name>, that adds a differential.
struct Dimension {
  const char* name;   // also the name the minimizer reports
  bool counted;       // --<name> N takes a count (1 = off) instead of a switch
  const char* label;  // reports say "<label> differential: ..."
  // Sets the dimension's fields from its CLI setting (the count, or 0/1).
  void (*draw)(FuzzConfig& c, Rng& rng, int setting);
  // Turns the dimension off; a config has it on exactly when this changes it.
  void (*drop)(FuzzConfig& c);
  Verdict (*check)(const FuzzConfig& c, Fixture& fx);  // null: it changes another check
};

// Every dimension, in draw order. The draws are a contract: shards and
// admission draw on every draw, kill/replicas only under --kill-shard,
// mutations/mseed only under --mutate, and jit draws nothing, so every
// fixed-seed run keeps fuzzing the configs it always fuzzed. A new dimension
// goes last and draws only under its own flag.
const std::array<Dimension, 5> kDimensions = {{
    {"shards", true, "shard",
     [](FuzzConfig& c, Rng& rng, int shards) {
       c.shards = shards;
       // Once the partition kind; the only kind left is the edge-cut, but
       // the draw stays so later dimensions draw what they always drew.
       (void)rng.UniformInt(2);
     },
     [](FuzzConfig& c) {
       c.shards = 1;
       c.kill = -1;  // a killed shard goes with the group
       c.replicas = 1;
     },
     ShardCheck},
    {"features", false, "feature",
     [](FuzzConfig& c, Rng& rng, int on) {
       const char* admissions[] = {"static-degree", "lru", "frequency-ema"};
       c.features = on != 0;
       c.admission = admissions[rng.UniformInt(3)];
     },
     [](FuzzConfig& c) { c.features = false; }, FeatureCheck},
    {"kill-shard", false, nullptr,
     [](FuzzConfig& c, Rng& rng, int on) {
       if (on != 0) {
         c.kill = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(c.shards)));
         c.replicas = 2;
       }
     },
     [](FuzzConfig& c) {
       c.kill = -1;
       c.replicas = 1;
     },
     nullptr},  // changes the shard differential
    {"mutate", false, "mutate",
     [](FuzzConfig& c, Rng& rng, int on) {
       if (on != 0) {
         c.mutate = true;
         c.mutations = 1 + static_cast<int>(rng.UniformInt(4));  // 1..4 batches
         c.mseed = rng.UniformInt(1 << 20);
       }
     },
     [](FuzzConfig& c) {
       c.mutate = false;
       c.mutations = 0;
     },
     MutateCheck},
    {"jit", false, "jit", [](FuzzConfig& c, Rng&, int on) { c.jit = on != 0; },
     [](FuzzConfig& c) { c.jit = false; }, JitCheck},
}};

bool On(const Dimension& d, const FuzzConfig& c) {
  FuzzConfig off = c;
  d.drop(off);
  return off != c;
}

// Index of the dimension whose flag is `arg`, or kDimensions.size().
size_t DimensionIndex(const std::string& arg) {
  return std::find_if(kDimensions.begin(), kDimensions.end(),
                      [&](const Dimension& d) { return arg == std::string("--") + d.name; }) -
         kDimensions.begin();
}

// Runs one dimension's check on a fresh fixture; a throw is a divergence.
Verdict RunCheck(const Dimension& d, const FuzzConfig& c) {
  try {
    Fixture fx(c);
    return d.check(c, fx);
  } catch (const std::exception& e) {
    return {Verdict::kDiverged, std::string(d.label) + " THROW " + e.what()};
  }
}

// Runs the oracle, then each differential `c` turns on, in table order.
// Returns the first failure's report, or "" when everything holds; with a
// `log`, runs every check and writes each one's report there.
std::string Verify(const FuzzConfig& c, std::ostream* log) {
  std::ostream discard(nullptr);
  std::ostream& out = log != nullptr ? *log : discard;
  std::string failure;
  try {
    const gs::oracle::OracleReport report = RunConfig(c);
    out << report.ToString() << "\n";
    failure = report.ok() ? "" : report.ToString();
  } catch (const std::exception& e) {
    out << c.algo << ": THROW " << e.what() << "\n";
    return c.algo + ": THROW " + e.what();
  }
  for (const Dimension& d : kDimensions) {
    if (d.check == nullptr || !On(d, c) || (log == nullptr && !failure.empty())) {
      continue;
    }
    const Verdict v = RunCheck(d, c);
    const std::string report = std::string(d.label) + " differential: " + v.detail;
    out << report << "\n";
    if (v.kind == Verdict::kDiverged && failure.empty()) {
      failure = report;
    }
  }
  return failure;
}

bool Fails(const FuzzConfig& c) { return !Verify(c, nullptr).empty(); }

// Greedy ddmin: applies the first reduction in trials(c) that keeps the
// failure, and repeats until none does. Every reduction is re-verified
// rather than assuming an order preserves the repro.
void Shrink(FuzzConfig& c, std::vector<FuzzConfig> (*trials)(const FuzzConfig&)) {
  for (bool changed = true; changed;) {
    changed = false;
    for (const FuzzConfig& t : trials(c)) {
      if (Fails(t)) {
        c = t;
        changed = true;
        break;
      }
    }
  }
}

// Each dimension the config has, dropped, in reverse table order (so the
// shard count goes after the kill that needs it). A dimension still on after
// shrinking is load-bearing: dropping it makes the failure disappear, and
// the failure report names it as surviving.
std::vector<FuzzConfig> DimensionTrials(const FuzzConfig& c) {
  std::vector<FuzzConfig> trials;
  for (auto d = kDimensions.rbegin(); d != kDimensions.rend(); ++d) {
    if (On(*d, c)) {
      d->drop(trials.emplace_back(c));
    }
  }
  return trials;
}

// Single-knob reductions towards the reference configuration.
std::vector<FuzzConfig> FlagTrials(const FuzzConfig& c) {
  std::vector<FuzzConfig> trials;
  if (c.super_batch != 1) {
    trials.emplace_back(c).super_batch = 1;
  }
  for (bool FuzzConfig::* knob : {&FuzzConfig::fusion, &FuzzConfig::preproc,
                                  &FuzzConfig::layout, &FuzzConfig::greedy,
                                  &FuzzConfig::weighted}) {
    if (c.*knob) {
      trials.emplace_back(c).*knob = false;
    }
  }
  return trials;
}

// Halvings of the graph and the epoch.
std::vector<FuzzConfig> ShapeTrials(const FuzzConfig& c) {
  std::vector<FuzzConfig> trials;
  if (c.nodes / 2 >= 32) {
    FuzzConfig& t = trials.emplace_back(c);
    t.nodes = c.nodes / 2;
    t.edges = std::max<int64_t>(c.edges / 2, c.nodes / 2);
  }
  if (c.edges / 2 >= c.nodes) {
    trials.emplace_back(c).edges = c.edges / 2;
  }
  if (c.num_batches > 1) {
    trials.emplace_back(c).num_batches = c.num_batches / 2;
  }
  if (c.batch_size / 2 >= 1) {
    trials.emplace_back(c).batch_size = c.batch_size / 2;
  }
  if (c.mutations > 1) {
    trials.emplace_back(c).mutations = c.mutations / 2;
  }
  return trials;
}

// Pass-pipeline bisection through SamplerOptions.pass_limit: find the
// shortest failing prefix, attributing the divergence to its last pass.
void MinimizePasses(FuzzConfig& c, std::string& culprit) {
  int total = 0;
  std::vector<std::string> names;
  try {
    gs::graph::Graph g = MakeGraph(c);
    gs::algorithms::AlgorithmProgram ap = gs::algorithms::MakeAlgorithm(c.algo, g);
    gs::core::CompiledPlan plan(std::move(ap.program), ToSamplerOptions(c));
    for (const auto& pass : plan.report().passes) {
      names.push_back(pass.name);
    }
    total = static_cast<int>(names.size());
  } catch (const std::exception&) {
    return;  // compilation itself fails; nothing to bisect
  }
  for (int limit = 0; limit <= total; ++limit) {
    FuzzConfig t = c;
    t.pass_limit = limit;
    if (Fails(t)) {
      c = t;
      culprit = limit == 0 ? "(no passes: baseline mismatch)"
                           : names[static_cast<size_t>(limit - 1)];
      return;
    }
  }
  // Every prefix passes in isolation yet the full run failed (flaky
  // stochastic rejection, most likely); leave pass_limit untouched.
}

// Draw `index` of the stream `base_seed`: the base config, then each
// dimension from its CLI setting (settings[d] for kDimensions[d]).
FuzzConfig Draw(uint64_t base_seed, uint64_t index, const std::vector<int>& settings) {
  Rng rng = Rng(base_seed).Fork(index);
  const std::vector<std::string> algos = gs::algorithms::AllAlgorithmNames();
  FuzzConfig c;
  c.algo = algos[static_cast<size_t>(rng.UniformInt(static_cast<int64_t>(algos.size())))];
  c.nodes = 100 + rng.UniformInt(301);           // 100..400
  c.edges = c.nodes * (4 + rng.UniformInt(9));   // mean degree 4..12
  c.gseed = rng.UniformInt(1 << 20);
  c.weighted = rng.UniformInt(2) == 1;
  c.num_batches = 2 + static_cast<int>(rng.UniformInt(5));  // 2..6
  c.batch_size = 4 + rng.UniformInt(13);         // 4..16
  c.fusion = rng.UniformInt(2) == 1;
  c.preproc = rng.UniformInt(2) == 1;
  c.layout = rng.UniformInt(2) == 1;
  c.greedy = rng.UniformInt(2) == 1;
  const int sb[] = {1, 2, 4};
  c.super_batch = sb[rng.UniformInt(3)];
  c.seed = rng.UniformInt(int64_t{1} << 32);
  c.profile = rng.UniformInt(2) == 1 ? "t4" : "v100";
  for (size_t d = 0; d < kDimensions.size(); ++d) {
    kDimensions[d].draw(c, rng, settings[d]);
  }
  return c;
}

int Usage(const std::string& why) {
  std::cerr << "fuzz_passes: " << why
            << "\nusage: fuzz_passes [--seeds N] [--base-seed S] [--out FILE]"
               " [--repro 'key=value ...']";
  for (const Dimension& d : kDimensions) {
    std::cerr << " [--" << d.name << (d.counted ? " N]" : "]");
  }
  std::cerr << "\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t num_seeds = 50;
  uint64_t base_seed = 0xF022;
  std::vector<int> settings;
  for (const Dimension& d : kDimensions) {
    settings.push_back(d.counted ? 1 : 0);
  }
  std::string out_path;
  std::string repro_line;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t d = DimensionIndex(arg);
    if (d < kDimensions.size() && !kDimensions[d].counted) {
      settings[d] = 1;
      continue;
    }
    const std::string value = i + 1 < argc ? argv[++i] : "";
    bool ok = !value.empty();
    if (d < kDimensions.size()) {
      ok = ParseValue(value, settings[d]) && settings[d] >= 1;
    } else if (arg == "--seeds") {
      ok = ParseValue(value, num_seeds) && num_seeds >= 1;
    } else if (arg == "--base-seed") {
      char* end = nullptr;
      base_seed = std::strtoull(value.c_str(), &end, 0);  // decimal or 0x hex
      ok = ok && *end == '\0';
    } else if (arg == "--out") {
      out_path = value;
    } else if (arg == "--repro") {
      repro_line = value;
    } else {
      return Usage("unknown flag " + arg);
    }
    if (!ok) {
      return Usage("bad value '" + value + "' for " + arg);
    }
  }
  if (settings[DimensionIndex("--kill-shard")] != 0 && settings[DimensionIndex("--shards")] < 2) {
    return Usage("--kill-shard needs --shards N with N >= 2 to fail over");
  }

  if (!repro_line.empty()) {
    FuzzConfig c;
    const std::string bad = FuzzConfig::FromLine(repro_line, c);
    if (!bad.empty()) {
      return Usage("repro token '" + bad + "' has an unknown key or a bad value");
    }
    return Verify(c, &std::cout).empty() ? 0 : 1;
  }

  int64_t failures = 0;
  for (int64_t i = 0; i < num_seeds; ++i) {
    FuzzConfig c = Draw(base_seed, static_cast<uint64_t>(i), settings);
    const std::string detail = Verify(c, nullptr);
    if (detail.empty()) {
      continue;
    }
    ++failures;
    std::cout << "FAIL draw " << i << ": " << detail << "\n";
    std::string culprit;
    Shrink(c, DimensionTrials);
    Shrink(c, FlagTrials);
    MinimizePasses(c, culprit);
    Shrink(c, ShapeTrials);
    // The shipped reproducer must actually reproduce: re-verify the whole
    // minimized config once, end to end, before printing it.
    if (!Fails(c)) {
      std::cout << "  (warning: minimized config no longer reproduces — "
                   "likely a flaky stochastic rejection)\n";
    }
    std::string survived;
    for (const Dimension& d : kDimensions) {
      survived += On(d, c) ? (survived.empty() ? "" : ",") + std::string(d.name) : "";
    }
    const std::string line = c.ToLine();
    std::cout << "  minimized: " << line << "\n";
    if (!survived.empty()) {
      std::cout << "  surviving dimensions: " << survived << "\n";
    }
    if (!culprit.empty()) {
      std::cout << "  first failing pass prefix ends at: " << culprit << "\n";
    }
    std::cout << "  replay: fuzz_passes --repro '" << line << "'"
              << (survived.empty() ? "" : "  # surviving: " + survived) << "\n";
    if (!out_path.empty()) {
      std::ofstream(out_path, std::ios::app) << line << "\n";
    }
  }
  std::cout << "fuzz_passes: " << (num_seeds - failures) << "/" << num_seeds
            << " draws clean (base seed 0x" << std::hex << base_seed << std::dec
            << ")\n";
  return failures == 0 ? 0 : 1;
}
