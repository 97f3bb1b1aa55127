// High-availability layer: per-shard health tracking for failover.
//
// Sharded serving places every unit of work on a device hosting a replica
// of the target shard (graph::Partition::ReplicaDevice). The HealthMonitor
// is the shared brain of that placement: signal sinks fed by the fault
// sites (shard.lost, exchange.timeout, shard.slow), failed attempts
// (transient faults and watchdog-cancelled kernels), and ordinary successes
// drive a per-shard state machine
//
//           transient signals              >= dead_threshold signals
//   healthy ----------------> suspect -----------------------------> dead
//      ^                         |  recover_successes successes        |
//      |                         v                                     | probe
//      |                      healthy                                  | succeeds
//      |   recover_successes successes                                 v
//      +----------------------------------------------------------- recovering
//
// device-lost jumps any state straight to dead. Dead shards are probed with
// counter-space exponential backoff (AdmitWork admits one probe attempt per
// backoff window; the window doubles on each failed probe — a device-lost
// or gray signal while dead — up to max_probe_backoff) — backoff counts
// *placement attempts*, not wall-clock, so replays are deterministic. A
// successful probe moves the shard to recovering; recover_successes
// consecutive successes re-admit it as healthy.
//
// Determinism: every transition is a pure function of the signal sequence.
// The monitor holds one mutex for its state; given the same ordered signal
// stream it reproduces the same transition log bit-for-bit, which is what
// tests/test_ha.cc goldens pin down.

#ifndef GSAMPLER_HA_HEALTH_H_
#define GSAMPLER_HA_HEALTH_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "graph/partition.h"

namespace gs::ha {

enum class ShardHealth {
  kHealthy = 0,
  kSuspect,
  kDead,
  kRecovering,
};

const char* HealthName(ShardHealth state);

struct HealthOptions {
  // Gray signals (exchange timeout, slow shard, transient) before a
  // healthy shard becomes suspect.
  int suspect_threshold = 1;
  // Gray signals accumulated while suspect before the shard is declared
  // dead.
  int dead_threshold = 3;
  // Initial probe backoff for dead shards, in placement attempts; doubles
  // on every failed probe.
  int64_t probe_backoff = 2;
  // Backoff ceiling, in placement attempts.
  int64_t max_probe_backoff = 64;
  // Consecutive successes a suspect or recovering shard needs to be
  // re-admitted as healthy.
  int recover_successes = 2;
};

// One edge of the state machine, recorded in order for golden tests and
// postmortems.
struct HealthTransition {
  int64_t seq = 0;
  int shard = 0;
  ShardHealth from = ShardHealth::kHealthy;
  ShardHealth to = ShardHealth::kHealthy;
  const char* cause = "";
};

struct HealthCounters {
  int64_t device_lost = 0;
  int64_t exchange_timeouts = 0;
  int64_t slow_signals = 0;
  int64_t transients = 0;
  int64_t successes = 0;
  int64_t probes_admitted = 0;
  int64_t probes_failed = 0;
};

// Thread-safe per-shard health state machine. One instance is shared by all
// workers of a sharded Server.
class HealthMonitor {
 public:
  explicit HealthMonitor(int num_shards, HealthOptions options = {});

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  int num_shards() const { return num_shards_; }
  const HealthOptions& options() const { return options_; }

  // --- Signal sinks ---------------------------------------------------
  // The device dropped off the interconnect: any state -> dead. On a dead
  // shard it is a failed probe and doubles the backoff window.
  void ReportDeviceLost(int shard);
  // Gray-failure signals: healthy -> suspect; suspect accumulates toward
  // dead; recovering falls back to suspect; dead doubles the backoff
  // window like a failed probe.
  void ReportExchangeTimeout(int shard);
  void ReportSlowShard(int shard);
  void ReportTransient(int shard);
  // A unit of work completed on the shard: suspect/recovering count toward
  // re-admission; dead (a successful probe) -> recovering.
  void ReportSuccess(int shard);

  // --- Placement ------------------------------------------------------
  // Whether the shard may take work right now. Healthy, suspect, and
  // recovering shards always admit; a dead shard admits exactly one probe
  // attempt per backoff window (counting calls, not time — deterministic).
  bool AdmitWork(int shard);

  // State != dead. Read-only (no probe accounting) — used for coverage.
  bool Alive(int shard) const;

  ShardHealth state(int shard) const;
  HealthCounters counters(int shard) const;
  // Full transition log, in the order the edges fired.
  std::vector<HealthTransition> transitions() const;

  std::string DebugString() const;

 private:
  struct ShardState {
    ShardHealth state = ShardHealth::kHealthy;
    int gray_signals = 0;       // accumulated while healthy/suspect
    int consecutive_ok = 0;     // toward re-admission
    int64_t probe_attempts = 0; // placement attempts since declared dead
    int64_t next_probe_at = 0;  // attempt count that admits the next probe
    int64_t backoff = 0;        // current window, in attempts
    HealthCounters counters;
  };

  // All private helpers run under mu_.
  void Transition(ShardState& s, int shard, ShardHealth to, const char* cause);
  void GraySignal(int shard, const char* cause);
  ShardState& Check(int shard);
  const ShardState& Check(int shard) const;

  const int num_shards_;
  const HealthOptions options_;
  mutable std::mutex mu_;
  std::vector<ShardState> shards_;
  std::vector<HealthTransition> log_;
  int64_t seq_ = 0;
};

// The request seeds among `ids` (each in [0, num_nodes)) whose home shard
// still has at least one live replica under `monitor`, in input order.
// Degraded serving samples exactly these.
std::vector<int32_t> CoveredIds(const graph::Partition& partition,
                                const HealthMonitor& monitor, const int32_t* ids,
                                int64_t count);

// CoveredIds' share of the `count` seeds; an empty seed set has coverage
// 1.0 (there is nothing to lose).
double CoverageFraction(const graph::Partition& partition, const HealthMonitor& monitor,
                        const int32_t* ids, int64_t count);

}  // namespace gs::ha

#endif  // GSAMPLER_HA_HEALTH_H_
