#include "verify.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "host.h"
#include "query/query.h"

namespace qreg {
namespace perfbench {

namespace {

uint64_t Bits(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

uint64_t Mix(uint64_t h, uint64_t v) {
  v += 0x9e3779b97f4a7c15ULL + h;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ULL;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebULL;
  return v ^ (v >> 31);
}

uint64_t Fingerprint(const service::Answer& a) {
  uint64_t h = Mix(0, static_cast<uint64_t>(a.kind));
  h = Mix(h, Bits(a.mean));
  for (const core::LocalLinearModel& m : a.pieces) {
    h = Mix(h, Bits(m.intercept));
    for (double s : m.slope) h = Mix(h, Bits(s));
    h = Mix(h, static_cast<uint64_t>(static_cast<int64_t>(m.prototype_id)));
    h = Mix(h, Bits(m.weight));
  }
  return h;
}

// Bit-for-bit equality of two answers' kind and payload (mean and the list
// S of local linear models).
bool SamePayload(const service::Answer& a, const service::Answer& b) {
  if (a.kind != b.kind || Bits(a.mean) != Bits(b.mean) ||
      a.pieces.size() != b.pieces.size()) {
    return false;
  }
  for (size_t k = 0; k < a.pieces.size(); ++k) {
    const core::LocalLinearModel& x = a.pieces[k];
    const core::LocalLinearModel& y = b.pieces[k];
    if (Bits(x.intercept) != Bits(y.intercept) ||
        x.prototype_id != y.prototype_id || Bits(x.weight) != Bits(y.weight) ||
        x.slope.size() != y.slope.size()) {
      return false;
    }
    for (size_t j = 0; j < x.slope.size(); ++j) {
      if (Bits(x.slope[j]) != Bits(y.slope[j])) return false;
    }
  }
  return true;
}

// The router's exact path, restated on the engine's public API.
Expected ExactOutcome(const net::WireRequest& w,
                      const query::ExactEngine& engine) {
  Expected e;
  e.answer.kind = w.kind;
  e.answer.source = service::AnswerSource::kExact;
  if (w.kind == service::QueryKind::kQ1MeanValue) {
    auto r = engine.MeanValue(w.q);
    if (!r.ok()) {
      e.code = r.status().code();
      return e;
    }
    e.answer.mean = r->mean;
  } else {
    auto fit = engine.Regression(w.q);
    if (!fit.ok()) {
      e.code = fit.status().code();
      return e;
    }
    core::LocalLinearModel m;
    m.intercept = fit->intercept;
    m.slope = std::move(fit->slope);
    m.prototype_id = -1;
    m.weight = 1.0;
    e.answer.pieces.push_back(std::move(m));
  }
  return e;
}

Expected ModelOutcome(const net::WireRequest& w, const core::LlmModel& model) {
  Expected e;
  e.answer.kind = w.kind;
  e.answer.source = service::AnswerSource::kModel;
  if (w.kind == service::QueryKind::kQ1MeanValue) {
    auto r = model.PredictMean(w.q);
    if (!r.ok()) {
      e.code = r.status().code();
      return e;
    }
    e.answer.mean = *r;
  } else {
    auto r = model.RegressionQuery(w.q);
    if (!r.ok()) {
      e.code = r.status().code();
      return e;
    }
    e.answer.pieces = std::move(r).value();
  }
  return e;
}

bool UsesModel(const RoutingModel& routing, const query::Query& q) {
  if (routing.policy == service::RoutePolicy::kExactOnly) return false;
  if (routing.model == nullptr || routing.model->num_prototypes() == 0) {
    return false;
  }
  if (routing.policy == service::RoutePolicy::kModelOnly) return true;
  return routing.vigilance <= 0.0 ||
         routing.model->NearestPrototypeDistance(q) <= routing.vigilance;
}

}  // namespace

Reference ComputeReference(const std::vector<net::WireRequest>& stream,
                           const query::ExactEngine& engine,
                           const RoutingModel& routing, size_t threads) {
  Reference ref;
  ref.expected.resize(stream.size());
  ref.exact_mean.assign(stream.size(), 0.0);
  ref.exact_ok.assign(stream.size(), 0);
  auto work = [&](size_t first, size_t stride) {
    AllowAllCpus();
    for (size_t i = first; i < stream.size(); i += stride) {
      const net::WireRequest& w = stream[i];
      const bool model = UsesModel(routing, w.q);
      Expected e = model ? ModelOutcome(w, *routing.model)
                         : ExactOutcome(w, engine);
      if (w.kind == service::QueryKind::kQ1MeanValue) {
        const Expected exact = model ? ExactOutcome(w, engine) : e;
        ref.exact_ok[i] = exact.code == util::StatusCode::kOk;
        ref.exact_mean[i] = exact.answer.mean;
      }
      ref.expected[i] = std::move(e);
    }
  };
  threads = std::max<size_t>(1, threads);
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(work, t, threads);
  for (std::thread& t : pool) t.join();
  return ref;
}

Verifier::Verifier(const std::vector<net::WireRequest>& stream,
                   const Reference& reference, double delta_min)
    : stream_(stream), reference_(reference), delta_min_(delta_min) {
  for (size_t i = 0; i < reference.expected.size(); ++i) {
    const Expected& e = reference.expected[i];
    if (e.code == util::StatusCode::kOk) {
      by_payload_[Fingerprint(e.answer)].push_back(static_cast<uint32_t>(i));
    }
  }
}

Verdict Verifier::Check(size_t index,
                        const util::Result<service::Answer>& served) const {
  return served.ok() ? CheckAnswer(index, *served)
                     : CheckStatus(index, served.status().code());
}

Verdict Verifier::Check(size_t index, const service::ExecResult& served) const {
  return served.ok() ? CheckAnswer(index, *served)
                     : CheckStatus(index, served.status().code());
}

Verdict Verifier::CheckStatus(size_t index, util::StatusCode code) const {
  if (code == reference_.expected[index].code) return Verdict::kVerified;
  switch (code) {
    case util::StatusCode::kResourceExhausted:
      return Verdict::kShed;
    case util::StatusCode::kDeadlineExceeded:
    case util::StatusCode::kUnavailable:
    case util::StatusCode::kCancelled:
    case util::StatusCode::kIoError:
      return Verdict::kRefused;
    default:
      return Verdict::kMismatch;
  }
}

Verdict Verifier::CheckAnswer(size_t index,
                              const service::Answer& served) const {
  const Expected& e = reference_.expected[index];
  if (served.kind != stream_[index].kind) return Verdict::kMismatch;
  if (served.source == service::AnswerSource::kCache) {
    return CacheAnswerOk(index, served) ? Verdict::kVerified
                                        : Verdict::kMismatch;
  }
  if (e.code != util::StatusCode::kOk || served.source != e.answer.source ||
      served.used_fallback || !SamePayload(served, e.answer)) {
    return Verdict::kMismatch;
  }
  return Verdict::kVerified;
}

bool Verifier::CacheAnswerOk(size_t index,
                             const service::Answer& served) const {
  if (!(served.cache_delta >= delta_min_) || served.cache_delta > 1.0) {
    return false;
  }
  const auto it = by_payload_.find(Fingerprint(served));
  if (it == by_payload_.end()) return false;
  const query::Query& q = stream_[index].q;
  for (uint32_t j : it->second) {
    const net::WireRequest& other = stream_[j];
    if (other.kind != stream_[index].kind ||
        !SamePayload(served, reference_.expected[j].answer)) {
      continue;
    }
    if (other.q == q) {
      if (served.cache_delta == 1.0) return true;
      continue;
    }
    if (query::Overlaps(q, other.q) &&
        query::DegreeOfOverlap(q, other.q) == served.cache_delta) {
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
}  // namespace qreg
