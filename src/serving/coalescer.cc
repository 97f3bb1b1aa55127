#include "serving/coalescer.h"

#include "common/timer.h"

namespace gs::serving {

GroupResult ExecuteGroup(const core::SamplerSession& session,
                         const std::vector<tensor::IdArray>& frontiers,
                         const std::vector<uint64_t>& seeds) {
  GroupResult result;
  result.outputs.resize(frontiers.size());
  Timer timer;
  session.SampleGrouped(frontiers, seeds, [&result](int64_t b, std::vector<core::Value>& outputs) {
    result.outputs[static_cast<size_t>(b)] = std::move(outputs);
  });
  result.execute_ns = timer.ElapsedNanos();
  return result;
}

}  // namespace gs::serving
