#include "workload.h"

#include "query/workload.h"
#include "util/rng.h"

namespace qreg {
namespace perfbench {

namespace {

// R1's attribute domain is the unit cube; θ ~ N(0.1, 0.1²) is the paper's
// radius distribution for it.
constexpr double kThetaMean = 0.1;
constexpr double kThetaStddev = 0.1;

std::vector<WorkloadSpec> MakeSpecs() {
  WorkloadSpec hybrid_uniform;
  hybrid_uniform.name = "hybrid_uniform";
  hybrid_uniform.traffic = Traffic::kUniform;
  // Measured: δ-cache hit rate ≈ 0.13, exact share ≈ 0.006.
  hybrid_uniform.min_hit_rate = 0.05;
  hybrid_uniform.max_hit_rate = 0.30;
  hybrid_uniform.min_exact_share = 0.001;
  hybrid_uniform.max_exact_share = 0.03;

  WorkloadSpec hybrid_hotset;
  hybrid_hotset.name = "hybrid_hotset";
  hybrid_hotset.traffic = Traffic::kHotset;
  // Measured: δ-cache hit rate ≈ 0.91.
  hybrid_hotset.min_hit_rate = 0.80;
  hybrid_hotset.max_exact_share = 0.01;

  WorkloadSpec exact_uniform;
  exact_uniform.name = "exact_uniform";
  exact_uniform.traffic = Traffic::kUniform;
  exact_uniform.router.policy = service::RoutePolicy::kExactOnly;
  exact_uniform.router.enable_cache = false;
  exact_uniform.train = false;
  // Every answer comes from the exact engine; there is no cache to hit.
  exact_uniform.max_hit_rate = 0.0;
  exact_uniform.min_exact_share = 1.0;

  return {hybrid_uniform, hybrid_hotset, exact_uniform};
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = MakeSpecs();
  return specs;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadSpec& s : Specs()) {
    if (!out.empty()) out += ",";
    out += s.name;
  }
  return out;
}

std::vector<net::WireRequest> GenerateStream(Traffic traffic, uint64_t seed) {
  // Independent sub-streams derived from the one seed: uniform queries, hot
  // queries, and the hot/uniform coin.
  util::Rng seeds(seed);
  query::WorkloadGenerator uniform(query::WorkloadConfig::Cube(
      kDimension, 0.0, 1.0, kThetaMean, kThetaStddev, seeds.NextU64()));
  // The hot cluster: centers in the middle 10% of the domain, σθ / 10.
  query::WorkloadGenerator hot(query::WorkloadConfig::Cube(
      kDimension, 0.45, 0.55, kThetaMean, kThetaStddev / 10.0,
      seeds.NextU64()));
  util::Rng coin(seeds.NextU64());

  std::vector<net::WireRequest> stream;
  stream.reserve(kDistinctRequests);
  for (size_t i = 0; i < kDistinctRequests; ++i) {
    const bool from_hot =
        traffic == Traffic::kHotset && coin.Uniform() < 0.9;
    query::Query q = from_hot ? hot.Next() : uniform.Next();
    stream.push_back(i % 2 == 0 ? net::WireRequest::Q1(kDataset, std::move(q))
                                : net::WireRequest::Q2(kDataset, std::move(q)));
  }
  return stream;
}

service::Request ToRequest(const net::WireRequest& w) {
  return w.kind == service::QueryKind::kQ1MeanValue
             ? service::Request::Q1(w.dataset, w.q)
             : service::Request::Q2(w.dataset, w.q);
}

}  // namespace perfbench
}  // namespace qreg
