#include "serving/stats.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <sstream>

namespace gs::serving {
namespace {

// A JSON string literal. Tenant names come from requests, so quotes,
// backslashes and control characters are escaped.
std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof(escaped), "\\u%04x", static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonString(int shard) { return JsonString(std::to_string(shard)); }

// Appends `,"name":{"key":count,...}`.
template <typename Key>
void JsonMap(std::ostringstream& out, const char* name, const std::map<Key, int64_t>& map) {
  out << ",\"" << name << "\":{";
  const char* sep = "";
  for (const auto& [key, count] : map) {
    out << sep << JsonString(key) << ':' << count;
    sep = ",";
  }
  out << '}';
}

}  // namespace

void LatencyHistogram::Record(int64_t ns) {
  const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 1;
  const int bucket = 63 - std::countl_zero(v);  // floor(log2(v))
  buckets_[static_cast<size_t>(std::min(bucket, 63))] += 1;
  count_ += 1;
  max_ns_ = std::max(max_ns_, ns);
}

int64_t LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const double rank = std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(count_);
  // The last occupied bucket interpolates toward the observed maximum, not
  // its 2^(i+1) edge: the samples in that bucket cannot exceed max_ns_, and
  // extrapolating past it (then clamping) flattens every quantile that
  // lands beyond the maximum's position onto max_ns_ itself — e.g. a
  // handful of 513ns samples under a 520ns majority would read p50 = p99 =
  // 520 instead of interpolating across [512, 520].
  size_t top = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] != 0) {
      top = i;
    }
  }
  int64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    const int64_t lower = int64_t{1} << i;
    const int64_t upper =
        i >= top ? std::max(max_ns_, lower) : int64_t{1} << (i + 1);
    // p = 0 resolves to the lower edge of the first occupied bucket instead
    // of charging a full bucket's width to the minimum.
    if (rank <= static_cast<double>(seen)) {
      return std::min(lower, max_ns_);
    }
    seen += buckets_[i];
    if (static_cast<double>(seen) >= rank) {
      // Interpolate within the bucket: returning the bucket's upper bound
      // would overstate mid-distribution quantiles by up to 2x.
      const double frac = (rank - static_cast<double>(seen - buckets_[i])) /
                          static_cast<double>(buckets_[i]);
      const int64_t value = lower + static_cast<int64_t>(
                                        frac * static_cast<double>(upper - lower));
      return std::min(value, max_ns_);
    }
  }
  return max_ns_;
}

void ServerStats::Add(const ServerStats& other) {
#define GS_SERVER_STAT_ADD(name) name += other.name;
  GS_SERVER_STATS(GS_SERVER_STAT_ADD)
#undef GS_SERVER_STAT_ADD
}

std::string ServerStats::ToString() const {
  std::ostringstream out;
#define GS_SERVER_STAT_TEXT(name) out << #name "=" << name << ' ';
  GS_SERVER_STATS(GS_SERVER_STAT_TEXT)
#undef GS_SERVER_STAT_TEXT
  out << "coalescing_ratio=" << CoalescingRatio() << " feature_hit_rate=" << FeatureHitRate();
  return out.str();
}

std::string ServerStats::ToJson() const {
  std::ostringstream out;
  out << '{';
#define GS_SERVER_STAT_JSON(name) out << "\"" #name "\":" << name << ',';
  GS_SERVER_STATS(GS_SERVER_STAT_JSON)
#undef GS_SERVER_STAT_JSON
  out << "\"coalescing_ratio\":" << CoalescingRatio()
      << ",\"feature_hit_rate\":" << FeatureHitRate();
  JsonMap(out, "per_shard_completed", per_shard_completed);
  JsonMap(out, "per_tenant_completed", per_tenant_completed);
  JsonMap(out, "per_tenant_failed", per_tenant_failed);
  out << '}';
  return out.str();
}

}  // namespace gs::serving
