// Request coalescing: executes a group of compatible requests as ONE
// segmented super-batch (Section 4.4's machinery, repurposed for serving).
//
// The group's frontiers are labeled into disjoint id spaces (request b's
// node v becomes b*N + v), the plan runs its kernel sequence once over the
// block-diagonal super-batch, and the outputs are split back per
// request. Because every random draw attributed to segment b comes from
// request b's own RNG stream (SamplerSession::SampleGrouped), each
// request's results are bit-identical to being served alone — coalescing
// changes latency and throughput, never results.

#ifndef GSAMPLER_SERVING_COALESCER_H_
#define GSAMPLER_SERVING_COALESCER_H_

#include <cstdint>
#include <vector>

#include "core/engine.h"
#include "tensor/tensor.h"

namespace gs::serving {

struct GroupResult {
  // outputs[i] belongs to the i-th group member.
  std::vector<std::vector<core::Value>> outputs;
  int64_t execute_ns = 0;  // wall time of the shared execution
};

// Runs `frontiers` through `session` as one coalesced execution; member i's
// outputs are bit-identical to serving it alone. Walk plans coalesce too.
// Two or more frontiers require session.Coalescable(); thread-safe after
// session.Warmup().
GroupResult ExecuteGroup(const core::SamplerSession& session,
                         const std::vector<tensor::IdArray>& frontiers,
                         const std::vector<uint64_t>& seeds);

inline GroupResult ExecuteGroup(const core::CompiledSampler& plan,
                                const std::vector<tensor::IdArray>& frontiers,
                                const std::vector<uint64_t>& seeds) {
  return ExecuteGroup(plan.session(), frontiers, seeds);
}

}  // namespace gs::serving

#endif  // GSAMPLER_SERVING_COALESCER_H_
