#include "serving/coalescer.h"

#include "common/error.h"
#include "common/timer.h"

namespace gs::serving {

GroupResult ExecuteGroup(const core::SamplerSession& session,
                         const std::vector<tensor::IdArray>& frontiers,
                         const std::vector<uint64_t>& seeds) {
  GS_CHECK_EQ(frontiers.size(), seeds.size());
  GS_CHECK(!frontiers.empty());
  GroupResult result;
  result.outputs.resize(frontiers.size());
  Timer timer;
  if (session.Coalescable()) {
    session.SampleGrouped(frontiers, seeds,
                          [&result](int64_t b, std::vector<core::Value>& outputs) {
                            result.outputs[static_cast<size_t>(b)] = std::move(outputs);
                          });
    result.executions = 1;
  } else {
    // Walk-style plans can't share a segmented execution; serve the members
    // back to back instead.
    for (size_t i = 0; i < frontiers.size(); ++i) {
      result.outputs[i] = session.SampleSeeded(frontiers[i], seeds[i]);
    }
    result.executions = static_cast<int64_t>(frontiers.size());
  }
  result.execute_ns = timer.ElapsedNanos();
  return result;
}

}  // namespace gs::serving
