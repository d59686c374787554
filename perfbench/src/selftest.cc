#include "selftest.h"

#include <cmath>
#include <cstring>

#include "query/query.h"
#include "stats.h"
#include "trace.h"
#include "workload.h"

namespace qreg {
namespace perfbench {

namespace {

void Expect(bool ok, const std::string& what,
            std::vector<std::string>* failures) {
  if (!ok) failures->push_back(what);
}

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

double FlipLowBit(double v) {
  uint64_t b = 0;
  std::memcpy(&b, &v, sizeof(b));
  b ^= 1;
  std::memcpy(&v, &b, sizeof(v));
  return v;
}

const char* VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kVerified: return "verified";
    case Verdict::kShed: return "shed";
    case Verdict::kRefused: return "refused";
    case Verdict::kMismatch: return "mismatch";
  }
  return "?";
}

}  // namespace

void TestPercentile(std::vector<std::string>* failures) {
  Expect(Percentile({}, 0.5) == 0.0, "percentile of empty", failures);
  Expect(Percentile({5.0}, 0.99) == 5.0, "percentile of one value", failures);
  const std::vector<double> four = {4.0, 1.0, 3.0, 2.0};
  Expect(Near(Percentile(four, 0.0), 1.0), "p0 of 1..4", failures);
  Expect(Near(Percentile(four, 0.25), 1.75), "p25 of 1..4", failures);
  Expect(Near(Percentile(four, 0.5), 2.5), "p50 of 1..4", failures);
  Expect(Near(Percentile(four, 1.0), 4.0), "p100 of 1..4", failures);
  std::vector<double> hundred_one;
  for (int i = 101; i >= 1; --i) hundred_one.push_back(i);
  Expect(Near(Percentile(hundred_one, 0.5), 51.0), "p50 of 1..101", failures);
  Expect(Near(Percentile(hundred_one, 0.99), 100.0), "p99 of 1..101",
         failures);
  Expect(Near(Percentile(hundred_one, 0.995), 100.5), "p99.5 of 1..101",
         failures);
  Expect(Near(Median({3.0, 1.0, 2.0}), 2.0), "median of {3,1,2}", failures);
}

void TestSelfTime(std::vector<std::string>* failures) {
  // root [0,100] with children A [10,40] (holding a1 [20,25]), B [30,60]
  // overlapping A, and C [90,120] overhanging the root's end.
  SpanLog log;
  const int32_t root = log.Add("root", 0, 100, -1, 1);
  const int32_t a = log.Add("A", 10, 40, root, 1);
  log.Add("B", 30, 60, root, 1);
  log.Add("a1", 20, 25, a, 1);
  log.Add("C", 90, 120, root, 1);
  const std::vector<int64_t> self = SelfTimes(log.spans());
  const std::vector<int64_t> want = {40, 25, 30, 5, 30};
  Expect(self == want, "span self times of the nested example", failures);

  // Append() re-bases parents.
  SpanLog merged;
  merged.Add("x", 0, 10, -1, 7);
  merged.Append(std::move(log));
  Expect(merged.size() == 6 && merged.spans()[2].parent == 1 &&
             merged.spans()[4].parent == 2,
         "span log append re-bases parents", failures);
}

void TestStreamDeterminism(uint64_t seed, std::vector<std::string>* failures) {
  for (Traffic t : {Traffic::kUniform, Traffic::kHotset}) {
    const std::vector<net::WireRequest> a = GenerateStream(t, seed);
    const std::vector<net::WireRequest> b = GenerateStream(t, seed);
    const std::vector<net::WireRequest> c = GenerateStream(t, seed + 1);
    bool same = a.size() == b.size();
    for (size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].kind == b[i].kind && a[i].q == b[i].q;
    }
    Expect(same && a.size() == kDistinctRequests,
           "same seed yields the same stream", failures);
    size_t differ = 0;
    for (size_t i = 0; i < a.size() && i < c.size(); ++i) {
      differ += a[i].q != c[i].q;
    }
    Expect(differ > a.size() / 2, "another seed yields another stream",
           failures);
  }
}

void TestVerifier(const std::vector<net::WireRequest>& stream,
                  const Verifier& verifier, double delta_min,
                  std::vector<std::string>* failures) {
  const Reference& ref = verifier.reference();
  auto expect_verdict = [&](size_t i, const util::Result<service::Answer>& r,
                            Verdict want, const char* what) {
    const Verdict got = verifier.Check(i, r);
    if (got != want) {
      failures->push_back(std::string("verifier: ") + what + ": got " +
                          VerdictName(got) + ", want " + VerdictName(want));
    }
  };

  // One answered request of each kind, and one typed-status request.
  for (service::QueryKind kind : {service::QueryKind::kQ1MeanValue,
                                  service::QueryKind::kQ2Regression}) {
    size_t i = stream.size();
    for (size_t k = 0; k < stream.size(); ++k) {
      if (stream[k].kind == kind &&
          ref.expected[k].code == util::StatusCode::kOk) {
        i = k;
        break;
      }
    }
    if (i == stream.size()) {
      failures->push_back("verifier: stream has no answered request");
      return;
    }
    const service::Answer good = ref.expected[i].answer;
    expect_verdict(i, good, Verdict::kVerified, "reference answer");

    service::Answer corrupt = good;
    if (kind == service::QueryKind::kQ1MeanValue) {
      corrupt.mean = FlipLowBit(corrupt.mean);
    } else {
      corrupt.pieces[0].slope[0] = FlipLowBit(corrupt.pieces[0].slope[0]);
    }
    expect_verdict(i, corrupt, Verdict::kMismatch, "one flipped payload bit");

    service::Answer wrong_source = good;
    wrong_source.source = good.source == service::AnswerSource::kModel
                              ? service::AnswerSource::kExact
                              : service::AnswerSource::kModel;
    expect_verdict(i, wrong_source, Verdict::kMismatch, "wrong source");

    service::Answer cached = good;
    cached.source = service::AnswerSource::kCache;
    cached.cache_delta = 1.0;
    expect_verdict(i, cached, Verdict::kVerified, "cache hit by identity");
    cached.cache_delta = delta_min - 0.01;
    expect_verdict(i, cached, Verdict::kMismatch, "cache hit below delta_min");
    service::Answer cached_corrupt = corrupt;
    cached_corrupt.source = service::AnswerSource::kCache;
    cached_corrupt.cache_delta = 1.0;
    expect_verdict(i, cached_corrupt, Verdict::kMismatch,
                   "cache hit with a flipped payload bit");

    // Another request's answer whose ball does not overlap this one.
    for (size_t j = 0; j < stream.size(); ++j) {
      if (stream[j].kind == kind &&
          ref.expected[j].code == util::StatusCode::kOk &&
          !query::Overlaps(stream[i].q, stream[j].q)) {
        service::Answer far = ref.expected[j].answer;
        far.source = service::AnswerSource::kCache;
        far.cache_delta = 1.0;
        expect_verdict(i, far, Verdict::kMismatch,
                       "cache hit from a non-overlapping request");
        break;
      }
    }

    expect_verdict(i, util::Status::NotFound("corrupt"), Verdict::kMismatch,
                   "status instead of an answer");
    expect_verdict(i, util::Status::ResourceExhausted("shed"), Verdict::kShed,
                   "shed");
  }
  for (size_t k = 0; k < stream.size(); ++k) {
    if (ref.expected[k].code != util::StatusCode::kOk) {
      expect_verdict(k, util::Status(ref.expected[k].code, "typed"),
                     Verdict::kVerified, "reference typed status");
      service::Answer made_up;
      made_up.kind = stream[k].kind;
      made_up.source = service::AnswerSource::kExact;
      expect_verdict(k, made_up, Verdict::kMismatch,
                     "answer where the reference is a typed status");
      break;
    }
  }
}

}  // namespace perfbench
}  // namespace qreg
