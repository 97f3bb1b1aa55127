// gs::jit — JIT compilation of fused IR regions to native code.
//
// The interpreter executes fused operators (Extract-Select sampling and the
// edge-map pipelines) by dispatching on stage descriptors per edge. The JIT
// removes that residual interpretation: for every fused region of a
// CompiledPlan it emits specialized C++ (fanout, reduce axis, and stage
// pipeline baked in as constants), cc-compiles it to a shared object keyed
// by plan digest + region rank, dlopens it, and installs the entry points
// as a core::FusedKernelTable on the plan's sessions. Artifacts persist
// next to the plans, so a warm restart re-attaches compiled kernels without
// invoking the compiler at all.
//
// The demotion ladder: a region runs JIT-compiled only after every rung
// holds — emitter supports the region, toolchain produced an object (the
// injectable failure: fault::Site::kJitCompile), dlopen + key verification
// passed, and the kernel's output matched the interpreter bit-for-bit on a
// self-check probe. Any rung failing demotes that region (and only that
// region) to the interpreter with a counted reason; a demotion is never a
// failed request. At run time the jump table can still decline a call it
// cannot handle (irregular operands) — that falls through to the
// interpreter per call, not per region; the executor interprets
// multi-segment slice-samples without asking.
//
// Bit-identity: the emitted code mirrors the interpreter's kernels
// statement for statement, and every random draw is routed back through the
// session's Rng, so JIT on/off cannot change any sampled result. The
// differential oracle and tools/fuzz_passes --jit enforce this.

#ifndef GSAMPLER_JIT_JIT_H_
#define GSAMPLER_JIT_JIT_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/executor.h"
#include "core/plan.h"
#include "jit/kernel_cache.h"
#include "jit/region.h"

namespace gs::jit {

// Process-wide counters (atomic; aggregated across every engine so serving
// stats see one coherent view regardless of how many plans share kernels).
struct JitStats {
  int64_t regions = 0;        // fused regions seen by TableFor
  int64_t compiled = 0;       // regions running native code
  int64_t artifact_hits = 0;  // of those, reloaded from a persisted .so
  int64_t hits = 0;           // fused-op executions served by native code
  int64_t demotions = 0;      // regions demoted to the interpreter
};

JitStats GlobalJitStats();
void ResetGlobalJitStats();

struct JitEngineOptions {
  // Artifact directory (serving passes plan_dir). Empty = temp directory.
  std::string artifact_dir;
  // Compiler driver override; empty = $GS_JIT_CXX, else "c++".
  std::string compiler;
  // Verify each loaded kernel against the interpreter on a tiny probe input
  // before trusting it; mismatches demote the region.
  bool self_check = true;
};

class JitEngine {
 public:
  explicit JitEngine(JitEngineOptions options = {});

  JitEngine(const JitEngine&) = delete;
  JitEngine& operator=(const JitEngine&) = delete;

  // The jump table for `plan`'s fused regions, memoized by plan digest.
  // Returns nullptr when the plan has no fused regions (or GS_JIT_DISABLE
  // is set); a table whose regions all demoted is still returned and simply
  // declines every call. Never throws on compile failure. Thread-safe.
  std::shared_ptr<const core::FusedKernelTable> TableFor(const core::CompiledPlan& plan);

  const std::string& artifact_dir() const { return cache_.artifact_dir(); }
  KernelCacheCounters cache_counters() const { return cache_.counters(); }

 private:
  JitEngineOptions options_;
  KernelCache cache_;
  std::mutex mutex_;
  std::map<uint64_t, std::shared_ptr<const core::FusedKernelTable>> tables_;
};

}  // namespace gs::jit

#endif  // GSAMPLER_JIT_JIT_H_
