// Answer verification: reference outcomes computed in process straight from
// LlmModel and ExactEngine (never through the router), and the check every
// served answer must pass.
//
//  - A model or exact answer must equal the reference bit for bit, and a
//    typed status must carry the reference's code.
//  - A cache answer must carry cache_delta ≥ δ_min and equal, bit for bit,
//    the reference answer of a same-kind request in the stream whose ball
//    overlaps the served one with exactly that degree of overlap.

#ifndef QREG_PERFBENCH_VERIFY_H_
#define QREG_PERFBENCH_VERIFY_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/llm_model.h"
#include "net/wire.h"
#include "query/exact_engine.h"
#include "service/query_router.h"
#include "util/status.h"

namespace qreg {
namespace perfbench {

/// \brief What the router must answer for one request of the stream.
struct Expected {
  util::StatusCode code = util::StatusCode::kOk;
  service::Answer answer;  ///< Valid when code == kOk; source is kModel/kExact.
};

/// \brief Reference outcomes, one per stream position.
struct Reference {
  std::vector<Expected> expected;
  /// Exact Q1 answer of every Q1 request (accuracy ground truth for q1
  /// metrics); exact_ok is false for an empty subspace or a Q2 request.
  std::vector<double> exact_mean;
  std::vector<uint8_t> exact_ok;
};

/// \brief Routing inputs of the reference: the policy and, for kHybrid, the
/// trained model and its vigilance ρ (rho_scale = 1).
struct RoutingModel {
  service::RoutePolicy policy = service::RoutePolicy::kHybrid;
  const core::LlmModel* model = nullptr;
  double vigilance = 0.0;
};

/// \brief Computes the reference on `threads` threads.
Reference ComputeReference(const std::vector<net::WireRequest>& stream,
                           const query::ExactEngine& engine,
                           const RoutingModel& routing, size_t threads);

/// \brief How one served outcome compares with the reference.
enum class Verdict {
  kVerified,  ///< Correct answer or the reference's typed status.
  kShed,      ///< kResourceExhausted: refused under load.
  kRefused,   ///< Another load/lifecycle status (deadline, unavailable, ...).
  kMismatch,  ///< Wrong answer or wrong status: an incorrect output.
};

/// \brief Checks served outcomes against a Reference. Thread-safe (const).
class Verifier {
 public:
  Verifier(const std::vector<net::WireRequest>& stream,
           const Reference& reference, double delta_min);

  Verdict Check(size_t index, const util::Result<service::Answer>& served) const;

  /// Same, for an in-process router result.
  Verdict Check(size_t index, const service::ExecResult& served) const;

  const Reference& reference() const { return reference_; }

 private:
  Verdict CheckAnswer(size_t index, const service::Answer& served) const;
  Verdict CheckStatus(size_t index, util::StatusCode code) const;
  bool CacheAnswerOk(size_t index, const service::Answer& served) const;

  const std::vector<net::WireRequest>& stream_;
  const Reference& reference_;
  double delta_min_;
  /// Payload fingerprint → stream positions whose reference has it.
  std::unordered_map<uint64_t, std::vector<uint32_t>> by_payload_;
};

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_VERIFY_H_
