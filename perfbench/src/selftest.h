// Self-tests the benchmark runs before it measures: a benchmark whose own
// arithmetic or checks are broken must not report numbers.

#ifndef QREG_PERFBENCH_SELFTEST_H_
#define QREG_PERFBENCH_SELFTEST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/wire.h"
#include "verify.h"

namespace qreg {
namespace perfbench {

/// Percentile() against vectors with known quantiles. Appends failures.
void TestPercentile(std::vector<std::string>* failures);

/// SelfTimes() against nested spans whose self times are known.
void TestSelfTime(std::vector<std::string>* failures);

/// The same seed yields the same request stream; another seed does not.
void TestStreamDeterminism(uint64_t seed, std::vector<std::string>* failures);

/// Feeds the verifier correct answers and corrupted ones (a flipped payload
/// bit, a wrong source, a wrong status, a cache answer below δ_min or from
/// no overlapping request) and checks that only the correct ones pass.
void TestVerifier(const std::vector<net::WireRequest>& stream,
                  const Verifier& verifier, double delta_min,
                  std::vector<std::string>* failures);

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_SELFTEST_H_
