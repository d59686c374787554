#include "host.h"

#include <sched.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace qreg {
namespace perfbench {
namespace {

constexpr size_t kMessageBytes = 64;

cpu_set_t g_all_cpus;
bool g_have_all_cpus = false;

bool ReadAll(int fd, char* buf) {
  size_t got = 0;
  while (got < kMessageBytes) {
    const ssize_t n = read(fd, buf + got, kMessageBytes - got);
    if (n <= 0) return false;
    got += static_cast<size_t>(n);
  }
  return true;
}

bool WriteAll(int fd, const char* buf) {
  return write(fd, buf, kMessageBytes) == static_cast<ssize_t>(kMessageBytes);
}

}  // namespace

int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) return -1;
  g_all_cpus = allowed;
  g_have_all_cpus = true;
  return cpu;
}

void AllowAllCpus() {
  if (g_have_all_cpus) sched_setaffinity(0, sizeof(g_all_cpus), &g_all_cpus);
}

HostProbe::HostProbe() {
  if (pipe(to_echo_) != 0 || pipe(from_echo_) != 0) return;
  const int in = to_echo_[0], out = from_echo_[1];
  // Echoes each message until the write end of its input closes.
  echo_ = std::thread([in, out] {
    char buf[kMessageBytes];
    while (ReadAll(in, buf) && WriteAll(out, buf)) {
    }
  });
}

HostProbe::~HostProbe() {
  if (to_echo_[1] >= 0) close(to_echo_[1]);
  if (echo_.joinable()) echo_.join();
  for (int fd : {to_echo_[0], from_echo_[0], from_echo_[1]}) {
    if (fd >= 0) close(fd);
  }
}

double HostProbe::RoundTripUs() {
  if (!echo_.joinable()) return -1.0;
  char buf[kMessageBytes];
  std::memset(buf, 0x5a, sizeof(buf));
  std::vector<double> bursts;
  for (int b = 0; b < kBursts; ++b) {
    const int64_t start = NowNs();
    for (int i = 0; i < kBurstRoundTrips; ++i) {
      if (!WriteAll(to_echo_[1], buf) || !ReadAll(from_echo_[0], buf)) {
        return -1.0;
      }
    }
    bursts.push_back(static_cast<double>(NowNs() - start) / 1e3 /
                     kBurstRoundTrips);
  }
  return Median(std::move(bursts));
}

}  // namespace perfbench
}  // namespace qreg
