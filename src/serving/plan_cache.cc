#include "serving/plan_cache.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/logging.h"
#include "common/timer.h"

namespace gs::serving {

std::string PlanKey::CompileKey() const {
  std::ostringstream out;
  out << algorithm << '|' << dataset << '|' << device << '|' << pass_config << '|';
  for (int64_t f : fanouts) {
    out << f << ',';
  }
  if (shard > 0) {
    out << '|' << 's' << shard;
  }
  return out.str();
}

std::string PlanKey::Canonical() const {
  std::string out = CompileKey();
  if (dynamic) {
    std::ostringstream g;
    g << "|g" << graph_epoch << ':' << std::hex << graph_digest;
    out += g.str();
  }
  return out;
}

PlanKey PlanKey::Parse(const std::string& canonical) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream in(canonical);
  while (std::getline(in, part, '|')) {
    parts.push_back(part);
  }
  // 4 parts: trailing '|' with no fanouts; optional suffixes after the
  // fanouts: "sN" (shard) then "g<epoch>:<digest>" (graph version).
  GS_CHECK(parts.size() >= 4 && parts.size() <= 7)
      << "malformed plan key: '" << canonical << "'";
  PlanKey key;
  key.algorithm = parts[0];
  key.dataset = parts[1];
  key.device = parts[2];
  key.pass_config = parts[3];
  for (size_t p = 5; p < parts.size(); ++p) {
    const std::string& suffix = parts[p];
    GS_CHECK(suffix.size() > 1) << "malformed plan key suffix: '" << canonical << "'";
    if (suffix[0] == 's') {
      char* end = nullptr;
      key.shard = static_cast<int>(std::strtol(suffix.c_str() + 1, &end, 10));
      GS_CHECK(end != nullptr && *end == '\0' && key.shard > 0)
          << "malformed plan key shard: '" << canonical << "'";
    } else if (suffix[0] == 'g') {
      const size_t colon = suffix.find(':');
      GS_CHECK(colon != std::string::npos && colon > 1 && colon + 1 < suffix.size())
          << "malformed plan key graph version: '" << canonical << "'";
      char* end = nullptr;
      key.graph_epoch = std::strtoull(suffix.c_str() + 1, &end, 10);
      GS_CHECK(end != nullptr && *end == ':')
          << "malformed plan key graph version: '" << canonical << "'";
      key.graph_digest = std::strtoull(suffix.c_str() + colon + 1, &end, 16);
      GS_CHECK(end != nullptr && *end == '\0')
          << "malformed plan key graph version: '" << canonical << "'";
      key.dynamic = true;
    } else {
      GS_CHECK(false) << "malformed plan key suffix: '" << canonical << "'";
    }
  }
  if (parts.size() >= 5 && !parts[4].empty()) {
    std::istringstream fin(parts[4]);
    while (std::getline(fin, part, ',')) {
      GS_CHECK(!part.empty()) << "malformed plan key fanouts: '" << canonical << "'";
      char* end = nullptr;
      key.fanouts.push_back(std::strtoll(part.c_str(), &end, 10));
      GS_CHECK(end != nullptr && *end == '\0') << "malformed plan key fanouts: '" << canonical
                                               << "'";
    }
  }
  return key;
}

std::string PassConfigDigest(const core::SamplerOptions& options) {
  // Exhaustive over artifact-affecting fields; verify_passes and
  // dump_ir_after_passes are deliberately excluded (instrumentation only —
  // they add checks/logging but cannot change the compiled plan).
  std::ostringstream out;
  out << "fus" << options.enable_fusion << options.fuse_extract_select << options.fuse_edge_maps
      << options.rewrite_sddmm << "pre" << options.enable_preprocessing << "lay"
      << options.enable_layout_selection << options.greedy_when_layout_disabled << "sb"
      << options.super_batch << "mem" << options.memory_budget_bytes << "cal"
      << options.calibration_batches << "seed" << options.seed;
  return out.str();
}

PlanCache::PlanCache(int64_t budget_bytes, device::CachingAllocator* allocator)
    : budget_bytes_(budget_bytes), allocator_(allocator) {
  GS_CHECK_GT(budget_bytes, 0);
  if (allocator_ != nullptr) {
    // Join the allocator's OOM ladder: under memory pressure the cache gives
    // back plan-resident bytes before an allocation is allowed to fail.
    pressure_handler_id_ = allocator_->RegisterPressureHandler(
        [this](int64_t bytes_needed) { return ReleaseMemory(bytes_needed); });
  }
}

PlanCache::~PlanCache() {
  // Unregister BEFORE taking mutex_: Unregister blocks until any in-flight
  // handler invocation (which takes mutex_ via ReleaseMemory) returns.
  // Locking mutex_ first would deadlock against that invocation.
  if (allocator_ != nullptr && pressure_handler_id_ != 0) {
    allocator_->UnregisterPressureHandler(pressure_handler_id_);
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (allocator_ != nullptr && stats_.resident_bytes > 0) {
    allocator_->AdjustReserved(-stats_.resident_bytes);
  }
}

std::shared_ptr<core::SamplerSession> PlanCache::Find(
    const PlanKey& key, std::shared_ptr<core::CompiledPlan>* resident) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(key.CompileKey());
  if (it == entries_.end()) {
    return nullptr;
  }
  if (it->second.canonical != key.Canonical()) {
    if (resident != nullptr) {
      *resident = it->second.plan;
    }
    return nullptr;
  }
  it->second.last_used = ++tick_;
  ++stats_.hits;
  return it->second.session;
}

std::shared_ptr<core::SamplerSession> PlanCache::GetOrBuild(const PlanKey& key,
                                                            const Factory& factory, bool* hit,
                                                            int64_t* compile_ns) {
  std::shared_ptr<core::SamplerSession> session = Find(key, nullptr);
  bool built = false;
  int64_t elapsed = 0;
  if (session == nullptr) {
    // Build outside the table mutex (lookups stay fast) but under the build
    // mutex (construction touches shared lazily-cached graph structures).
    std::lock_guard<std::mutex> build_lock(build_mutex_);
    std::shared_ptr<core::CompiledPlan> resident;
    // Another thread may have built this plan while we waited.
    session = Find(key, &resident);
    if (session == nullptr) {
      Timer timer;
      session = factory(std::move(resident));
      const std::string canonical = key.Canonical();
      GS_CHECK(session != nullptr) << "plan factory returned null for " << canonical;
      GS_CHECK(session->warmed_up()) << "plan factory must Warmup() the session: " << canonical;
      elapsed = timer.ElapsedNanos();
      built = true;
      Dropped dropped;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.misses;
        PublishLocked(key, session, /*adopt_plan=*/false, dropped);
      }
      GS_LOG(Debug) << "plan cache: built " << canonical << " in " << elapsed / 1000000
                    << " ms";
    }
  }
  if (hit != nullptr) {
    *hit = !built;
  }
  if (compile_ns != nullptr) {
    *compile_ns = elapsed;
  }
  return session;
}

void PlanCache::Insert(const PlanKey& key, std::shared_ptr<core::SamplerSession> session) {
  GS_CHECK(session != nullptr);
  GS_CHECK(session->warmed_up()) << "Insert requires a warmed-up session";
  Dropped dropped;
  std::lock_guard<std::mutex> lock(mutex_);
  PublishLocked(key, std::move(session), /*adopt_plan=*/true, dropped);
}

void PlanCache::PublishLocked(const PlanKey& key, std::shared_ptr<core::SamplerSession> session,
                              bool adopt_plan, Dropped& dropped) {
  const std::string compile = key.CompileKey();
  auto it = entries_.find(compile);
  if (it != entries_.end() && key.graph_epoch < it->second.epoch) {
    if (adopt_plan) {
      it->second.plan = session->plan_ptr();
    }
    dropped.push_back(std::move(session));
    return;
  }
  if (it == entries_.end()) {
    it = entries_.emplace(compile, Entry{}).first;
    stats_.entries += 1;
  }
  Entry& entry = it->second;
  const int64_t bytes = session->ResidentBytes();
  stats_.resident_bytes += bytes - entry.resident_bytes;
  if (allocator_ != nullptr) {
    allocator_->AdjustReserved(bytes - entry.resident_bytes);
  }
  if (entry.session != nullptr) {
    dropped.push_back(std::move(entry.session));
  }
  entry.canonical = key.Canonical();
  entry.epoch = key.graph_epoch;
  entry.plan = session->plan_ptr();
  entry.session = std::move(session);
  entry.resident_bytes = bytes;
  entry.last_used = ++tick_;
  EvictOverBudgetLocked(compile, dropped);
}

int64_t PlanCache::SaveAll(const std::string& dir) {
  // Snapshot under the lock, serialize outside it: Serialize() walks the
  // (frozen, immutable) plan only, so concurrent serving is unaffected.
  std::vector<std::pair<std::string, std::shared_ptr<core::CompiledPlan>>> snapshot;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    snapshot.reserve(entries_.size());
    for (const auto& [compile, entry] : entries_) {
      snapshot.emplace_back(entry.canonical, entry.session->plan_ptr());
    }
  }
  std::filesystem::create_directories(dir);
  std::ostringstream index;
  int64_t saved = 0;
  for (const auto& [canonical, plan] : snapshot) {
    char digest[24];
    std::snprintf(digest, sizeof(digest), "%016llx",
                  static_cast<unsigned long long>(plan->Digest()));
    core::SavePlanFile(*plan, dir + "/" + digest + ".plan");
    index << digest << ' ' << canonical << '\n';
    ++saved;
  }
  std::ofstream index_file(dir + "/index.txt", std::ios::trunc);
  GS_CHECK(index_file.good()) << "cannot write plan index: " << dir << "/index.txt";
  index_file << index.str();
  index_file.flush();
  GS_CHECK(index_file.good()) << "failed writing plan index: " << dir << "/index.txt";
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.plans_saved += saved;
  }
  GS_LOG(Info) << "plan cache: saved " << saved << " plan(s) to " << dir;
  return saved;
}

int64_t PlanCache::LoadFrom(const std::string& dir, const Activator& activate) {
  GS_CHECK(activate != nullptr);
  std::ifstream index(dir + "/index.txt");
  if (!index.good()) {
    GS_LOG(Info) << "plan cache: no plan index at " << dir << " (cold start)";
    return 0;
  }
  int64_t loaded = 0;
  std::string line;
  // Activation executes sampling (Warmup) on shared graph structures —
  // serialize it like any other build.
  std::lock_guard<std::mutex> build_lock(build_mutex_);
  while (std::getline(index, line)) {
    if (line.empty()) {
      continue;
    }
    // Per-artifact fault isolation: one corrupted index line or plan file
    // must cost exactly that plan, never the whole warm start — a thrown
    // Error here would unwind out of Server::Start's warm-start block and
    // abandon every remaining (valid) artifact.
    const size_t space = line.find(' ');
    if (space == std::string::npos || space == 0 || space + 1 >= line.size()) {
      GS_LOG(Warning) << "plan cache: skipping malformed index line: '" << line << "'";
      continue;
    }
    const std::string digest = line.substr(0, space);
    const std::string canonical = line.substr(space + 1);
    try {
      const PlanKey key = PlanKey::Parse(canonical);
      {
        std::lock_guard<std::mutex> lock(mutex_);
        if (entries_.find(key.CompileKey()) != entries_.end()) {
          continue;  // already resident
        }
      }
      std::shared_ptr<core::CompiledPlan> plan =
          core::LoadPlanFile(dir + "/" + digest + ".plan");
      std::shared_ptr<core::SamplerSession> session = activate(key, std::move(plan));
      if (session == nullptr) {
        continue;  // activator declined (unknown endpoint / wrong device)
      }
      GS_CHECK(session->warmed_up()) << "activator must Warmup() the session: " << canonical;
      Dropped dropped;
      std::lock_guard<std::mutex> lock(mutex_);
      PublishLocked(key, std::move(session), /*adopt_plan=*/false, dropped);
      ++stats_.plans_loaded;
      ++loaded;
    } catch (const std::exception& e) {
      // Covers gs::Error (digest mismatch from Deserialize, malformed
      // canonical keys, I/O failures) and any std failure underneath them.
      GS_LOG(Warning) << "plan cache: skipping persisted plan " << canonical << ": " << e.what();
    }
  }
  if (loaded > 0) {
    GS_LOG(Info) << "plan cache: warm-started " << loaded << " plan(s) from " << dir;
  }
  return loaded;
}

void PlanCache::EvictOverBudgetLocked(const std::string& keep_key, Dropped& dropped) {
  while (stats_.resident_bytes > budget_bytes_ && entries_.size() > 1) {
    if (EvictOneLocked(keep_key, dropped) < 0) {
      break;
    }
  }
}

int64_t PlanCache::EvictOneLocked(const std::string& keep_key, Dropped& dropped) {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    // Never evict the plan the caller is about to use.
    if (it->first != keep_key &&
        (victim == entries_.end() || it->second.last_used < victim->second.last_used)) {
      victim = it;
    }
  }
  if (victim == entries_.end()) {
    return -1;
  }
  GS_LOG(Debug) << "plan cache: evicting " << victim->second.canonical << " ("
                << victim->second.resident_bytes << " bytes)";
  const int64_t released = victim->second.resident_bytes;
  stats_.resident_bytes -= released;
  stats_.entries -= 1;
  ++stats_.evictions;
  if (allocator_ != nullptr) {
    allocator_->AdjustReserved(-released);
  }
  // In-flight executions holding the shared_ptr keep the session alive; the
  // memory returns to the allocator pool when the last user drops it.
  dropped.push_back(std::move(victim->second.session));
  entries_.erase(victim);
  return released;
}

int64_t PlanCache::ReleaseMemory(int64_t bytes_needed) {
  // Session teardown frees device memory, which the global lock order
  // (handlers_mutex_ -> plan-cache mutex_ -> allocator mutex_) would allow
  // under mutex_; the victims are still released after unlocking so their
  // teardown does not serialize cache lookups.
  Dropped dropped;
  int64_t released = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.pressure_releases;
    while (released < bytes_needed) {
      const int64_t freed = EvictOneLocked("", dropped);
      if (freed < 0) {
        break;
      }
      released += freed;
    }
  }
  dropped.clear();
  if (released > 0) {
    GS_LOG(Info) << "plan cache: released " << released << " bytes under memory pressure ("
                 << bytes_needed << " needed)";
  }
  return released;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace gs::serving
