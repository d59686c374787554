// The benchmark's three traffic mixes and their seed-determined request
// streams.
//
// Every workload serves R1 at d = 2 (200k rows, kd-tree access path) with a
// 1:1 Q1:Q2 mix. Why each exists:
//  - hybrid_uniform: the paper's query distribution under the shipped
//    default RouterConfig (hybrid routing, δ-cache on). The stream holds 16×
//    as many distinct requests per query kind as one cache group keeps, so a
//    repeat never hits by identity; δ-overlap hits and the insert/evict path
//    are what the cache contributes. Model routing and prediction do the work.
//  - hybrid_hotset: same config, 90% of queries from a hot cluster. Cache
//    lookups dominate and the uniform tenth keeps inserts and LRU evictions
//    flowing; service time per hit is a few µs, so the wire path is the
//    largest share.
//  - exact_uniform: hybrid_uniform's traffic on the exact engine alone, cache
//    off — the paper's in-DBMS baseline and the bypass workload for net,
//    cache and model changes.

#ifndef QREG_PERFBENCH_WORKLOAD_H_
#define QREG_PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"
#include "service/query_router.h"

namespace qreg {
namespace perfbench {

/// Dataset name the stack registers and every request targets.
constexpr const char* kDataset = "r1";
constexpr size_t kDimension = 2;
constexpr int64_t kRows = 200000;
/// The dataset and the model's training stream are part of the system under
/// test, so their seeds are fixed; only the traffic follows --seed.
constexpr uint64_t kDataSeed = 42;
constexpr uint64_t kTrainSeed = 43;
constexpr int64_t kTrainMaxPairs = 20000;

/// Distinct requests per stream: 16 × the 512 answers one cache group
/// (dataset × query kind) holds, per kind.
constexpr size_t kDistinctRequests = 2 * 16 * 512;

enum class Traffic { kUniform, kHotset };

struct WorkloadSpec {
  std::string name;
  Traffic traffic = Traffic::kUniform;
  service::RouterConfig router;
  /// Whether set-up trains the model (the exact-only router never reads it).
  bool train = true;

  /// What the workload claims to stress, as ranges its own served counters
  /// must fall in: δ-cache hit rate and the share of answers from the exact
  /// engine. A run outside them fails.
  double min_hit_rate = 0.0, max_hit_rate = 1.0;
  double min_exact_share = 0.0, max_exact_share = 1.0;
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(const std::string& name);

/// All workload names, comma-separated (for usage messages).
std::string WorkloadNames();

/// The request stream for `traffic`: kDistinctRequests requests, Q1 at even
/// and Q2 at odd positions, drawn only from `seed`.
std::vector<net::WireRequest> GenerateStream(Traffic traffic, uint64_t seed);

/// The in-process form of a wire request.
service::Request ToRequest(const net::WireRequest& w);

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_WORKLOAD_H_
