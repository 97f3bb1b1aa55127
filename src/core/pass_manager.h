// PassManager: the optimization pipeline as registered, named, instrumented
// passes.
//
// Every pass has a name and per-pass instrumentation (rewrite counts, node
// deltas, wall time, virtual device time); Program::Verify() runs at every
// pass boundary (always in debug builds, behind an option or the
// GS_VERIFY_PASSES environment variable in release), and an optional
// after-each-pass IR dump helps debug rewrites.

#ifndef GSAMPLER_CORE_PASS_MANAGER_H_
#define GSAMPLER_CORE_PASS_MANAGER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/ir.h"

namespace gs::core {

// What one pass did to the program.
struct PassStats {
  std::string name;
  int rewrites = 0;       // pass-reported count (rewrites, fusions, hoists, ...)
  int nodes_before = 0;
  int nodes_after = 0;
  int64_t wall_ns = 0;    // host wall time spent in the pass
  int64_t virtual_ns = 0; // simulated device time charged (layout calibration)
  bool verified = false;  // Program::Verify() ran after this pass

  std::string ToString() const;
};

struct PassManagerOptions {
  // Verify the program after every pass. Debug builds verify unconditionally;
  // release builds verify when this is set or GS_VERIFY_PASSES is in the
  // environment (see PassVerificationEnabled).
  bool verify = false;
  // Dump the IR after each pass through `dump_sink` (default: GS_LOG(Debug)).
  bool dump_ir = false;
  std::function<void(const PassStats&, const Program&)> dump_sink;
  // Run only the first `pass_limit` registered passes (-1 = all). This is the
  // bisection hook the differential fuzzer (tools/fuzz_passes) uses to find
  // the earliest pass prefix that reproduces a divergence.
  int pass_limit = -1;
};

// True when the named environment toggle is present. Lookups are cached per
// name, so the hooks that consult this on hot paths (pass-boundary
// verification, the JIT's per-region self-check in src/jit) cost one map
// probe after the first call.
bool EnvFlagEnabled(const char* name);

// True when pass-boundary verification should run: always in debug builds;
// in release builds when `flag` is set or GS_VERIFY_PASSES is set in the
// environment.
bool PassVerificationEnabled(bool flag);

class PassManager {
 public:
  // A pass rewrites the program in place and returns how many rewrites it
  // performed (0 for analysis-only passes such as invariant marking).
  using PassFn = std::function<int(Program&)>;

  void Register(std::string name, PassFn fn);

  size_t size() const { return passes_.size(); }
  std::vector<std::string> names() const;

  // Runs every registered pass in order; appends one PassStats per pass to
  // `stats` (when non-null). Throws gs::Error if a verification fails.
  void Run(Program& program, const PassManagerOptions& options,
           std::vector<PassStats>* stats) const;

  // Runs a single pass with the same instrumentation and verification as a
  // registered pipeline. Used for the calibration-time layout pass, which
  // needs runtime bindings a compile-time pipeline cannot carry.
  static PassStats RunOne(const std::string& name, Program& program,
                          const PassManagerOptions& options, const PassFn& fn);

 private:
  struct Entry {
    std::string name;
    PassFn fn;
  };
  std::vector<Entry> passes_;
};

}  // namespace gs::core

#endif  // GSAMPLER_CORE_PASS_MANAGER_H_
