#include "ha/health.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace gs::ha {

const char* HealthName(ShardHealth state) {
  switch (state) {
    case ShardHealth::kHealthy:
      return "healthy";
    case ShardHealth::kSuspect:
      return "suspect";
    case ShardHealth::kDead:
      return "dead";
    case ShardHealth::kRecovering:
      return "recovering";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(int num_shards, HealthOptions options)
    : num_shards_(num_shards), options_(options) {
  GS_CHECK_GE(num_shards, 1) << "health monitor needs at least one shard";
  GS_CHECK_GE(options_.suspect_threshold, 1);
  GS_CHECK_GE(options_.dead_threshold, 1);
  GS_CHECK_GE(options_.probe_backoff, 1);
  GS_CHECK_GE(options_.max_probe_backoff, options_.probe_backoff);
  GS_CHECK_GE(options_.recover_successes, 1);
  shards_.resize(static_cast<size_t>(num_shards));
}

HealthMonitor::ShardState& HealthMonitor::Check(int shard) {
  GS_CHECK(shard >= 0 && shard < num_shards_) << "shard " << shard << " out of range";
  return shards_[static_cast<size_t>(shard)];
}

const HealthMonitor::ShardState& HealthMonitor::Check(int shard) const {
  GS_CHECK(shard >= 0 && shard < num_shards_) << "shard " << shard << " out of range";
  return shards_[static_cast<size_t>(shard)];
}

void HealthMonitor::Transition(ShardState& s, int shard, ShardHealth to,
                               const char* cause) {
  if (s.state == to) {
    return;
  }
  log_.push_back({seq_++, shard, s.state, to, cause});
  s.state = to;
  if (to == ShardHealth::kDead) {
    s.gray_signals = 0;
    s.consecutive_ok = 0;
    s.probe_attempts = 0;
    s.backoff = options_.probe_backoff;
    s.next_probe_at = s.backoff;
  } else if (to == ShardHealth::kHealthy) {
    s.gray_signals = 0;
    s.consecutive_ok = 0;
  } else if (to == ShardHealth::kSuspect) {
    s.consecutive_ok = 0;
  } else if (to == ShardHealth::kRecovering) {
    s.gray_signals = 0;
    s.consecutive_ok = 0;
  }
}

void HealthMonitor::ReportDeviceLost(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& s = Check(shard);
  ++s.counters.device_lost;
  if (s.state == ShardHealth::kDead) {
    // The probe found the device still gone: widen the window.
    ++s.counters.probes_failed;
    s.backoff = std::min(s.backoff * 2, options_.max_probe_backoff);
    s.next_probe_at = s.probe_attempts + s.backoff;
    return;
  }
  Transition(s, shard, ShardHealth::kDead, "device-lost");
}

void HealthMonitor::GraySignal(int shard, const char* cause) {
  // Caller holds mu_ via the public sinks below.
  ShardState& s = Check(shard);
  s.consecutive_ok = 0;
  switch (s.state) {
    case ShardHealth::kHealthy:
      if (++s.gray_signals >= options_.suspect_threshold) {
        s.gray_signals = 0;
        Transition(s, shard, ShardHealth::kSuspect, cause);
      }
      break;
    case ShardHealth::kSuspect:
      if (++s.gray_signals >= options_.dead_threshold) {
        Transition(s, shard, ShardHealth::kDead, cause);
      }
      break;
    case ShardHealth::kRecovering:
      Transition(s, shard, ShardHealth::kSuspect, cause);
      break;
    case ShardHealth::kDead:
      ++s.counters.probes_failed;
      s.backoff = std::min(s.backoff * 2, options_.max_probe_backoff);
      s.next_probe_at = s.probe_attempts + s.backoff;
      break;
  }
}

void HealthMonitor::ReportExchangeTimeout(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ++Check(shard).counters.exchange_timeouts;
  GraySignal(shard, "exchange-timeout");
}

void HealthMonitor::ReportSlowShard(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ++Check(shard).counters.slow_signals;
  GraySignal(shard, "slow-shard");
}

void HealthMonitor::ReportTransient(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ++Check(shard).counters.transients;
  GraySignal(shard, "transient");
}

void HealthMonitor::ReportSuccess(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& s = Check(shard);
  ++s.counters.successes;
  switch (s.state) {
    case ShardHealth::kHealthy:
      break;
    case ShardHealth::kSuspect:
    case ShardHealth::kRecovering:
      if (++s.consecutive_ok >= options_.recover_successes) {
        Transition(s, shard, ShardHealth::kHealthy, "recovered");
      }
      break;
    case ShardHealth::kDead:
      // A probe made it through: the device answered, start re-admission.
      Transition(s, shard, ShardHealth::kRecovering, "probe-success");
      s.consecutive_ok = 1;
      if (options_.recover_successes <= 1) {
        Transition(s, shard, ShardHealth::kHealthy, "recovered");
      }
      break;
  }
}

bool HealthMonitor::AdmitWork(int shard) {
  std::lock_guard<std::mutex> lock(mu_);
  ShardState& s = Check(shard);
  if (s.state != ShardHealth::kDead) {
    return true;
  }
  ++s.probe_attempts;
  if (s.probe_attempts >= s.next_probe_at) {
    // Push the next window out now so concurrent callers don't all probe;
    // a success or failure report re-times it.
    s.next_probe_at = s.probe_attempts + s.backoff;
    ++s.counters.probes_admitted;
    return true;
  }
  return false;
}

bool HealthMonitor::Alive(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Check(shard).state != ShardHealth::kDead;
}

ShardHealth HealthMonitor::state(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Check(shard).state;
}

HealthCounters HealthMonitor::counters(int shard) const {
  std::lock_guard<std::mutex> lock(mu_);
  return Check(shard).counters;
}

std::vector<HealthTransition> HealthMonitor::transitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return log_;
}

std::string HealthMonitor::DebugString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "HealthMonitor(";
  for (int i = 0; i < num_shards_; ++i) {
    const ShardState& s = shards_[static_cast<size_t>(i)];
    out << (i == 0 ? "" : ", ") << "s" << i << "=" << HealthName(s.state);
  }
  out << ", transitions=" << log_.size() << ")";
  return out.str();
}

std::vector<int32_t> CoveredIds(const graph::Partition& partition,
                                const HealthMonitor& monitor, const int32_t* ids,
                                int64_t count) {
  // Alive() takes the monitor lock per call; memoize per shard.
  std::vector<int8_t> covered_shard(static_cast<size_t>(partition.num_shards()), -1);
  std::vector<int32_t> out;
  out.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    const int home = partition.OwnerOf(ids[i]);
    int8_t& memo = covered_shard[static_cast<size_t>(home)];
    if (memo < 0) {
      bool alive = false;
      for (int r = 0; r < partition.num_replicas() && !alive; ++r) {
        alive = monitor.Alive(partition.ReplicaDevice(home, r));
      }
      memo = alive ? 1 : 0;
    }
    if (memo == 1) {
      out.push_back(ids[i]);
    }
  }
  return out;
}

}  // namespace gs::ha
