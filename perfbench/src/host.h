// The benchmark's view of the host: which CPU it runs on, and how fast that
// CPU is running right now.
//
// The benchmark shares a host with other tenants, whose load changes the
// speed of the benchmark's CPU by up to 2× over tens of seconds. Two things
// keep that out of the figures:
//  - Everything the run times shares one CPU (PinToOneCpu), so handing work
//    between threads never waits on a wake-up of another CPU.
//  - A fixed probe (HostProbe) is timed between set-ups and between measured
//    slices. Timings are reported at the reference host speed: a measured
//    duration is divided, and a measured rate multiplied, by HostFactor of
//    the run's median probe time. The probe is the benchmark's own code, so
//    a change to the program moves the reported figures in full, and a
//    change of host load moves them much less than it moves raw timings.

#ifndef QREG_PERFBENCH_HOST_H_
#define QREG_PERFBENCH_HOST_H_

#include <thread>

namespace qreg {
namespace perfbench {

/// Confines the calling thread, and so every thread it starts afterwards, to
/// the last CPU it may run on. Returns that CPU, or -1 if affinity cannot be
/// read or set.
int PinToOneCpu();

/// Lets the calling thread run on every CPU the process could use before
/// PinToOneCpu (for untimed helper work).
void AllowAllCpus();

/// Probe round trip on the reference host (a quiet 4-vCPU x86-64 VM), µs.
constexpr double kReferenceRoundTripUs = 3.0;

/// How many times slower than the reference host the probe ran.
inline double HostFactor(double round_trip_us) {
  return round_trip_us / kReferenceRoundTripUs;
}

/// \brief Times round trips of one 64-byte message between the calling
/// thread and an echo thread on the same CPU, through a pair of pipes: two
/// system calls and two context switches each way. On a shared 4-vCPU VM its
/// time followed the exact engine's speed (r ≈ −0.95 over 10-s windows)
/// more closely than a compute loop or random memory reads did (r ≈ −0.55
/// to −0.74).
class HostProbe {
 public:
  /// Starts the echo thread; it inherits the caller's CPU affinity.
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Round trip in µs: the median, over kBursts bursts, of the mean round
  /// trip of a burst of kBurstRoundTrips. The median keeps a burst that the
  /// host preempted from moving the reading. -1 on a pipe error.
  double RoundTripUs();

  static constexpr int kBursts = 16;
  static constexpr int kBurstRoundTrips = 250;

 private:
  int to_echo_[2] = {-1, -1};
  int from_echo_[2] = {-1, -1};
  std::thread echo_;
};

}  // namespace perfbench
}  // namespace qreg

#endif  // QREG_PERFBENCH_HOST_H_
