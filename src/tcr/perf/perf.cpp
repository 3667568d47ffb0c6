#include "tcr/perf/perf.hpp"

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>

#include "tcr/util/stopwatch.hpp"

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif
#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace tcr::perf {

namespace {

// ---------------------------------------------------------------------------
// perf_event backend: four user-space counters opened individually (not as a
// PERF_FORMAT_GROUP) so each can fail independently — VMs without a vPMU
// reject PERF_TYPE_HARDWARE with ENOENT while others may only miss
// cache/branch counters — and so inherit=1 works on every kernel (inherited
// events historically refuse group reads). inherit covers threads spawned
// after start(), which is why benches start the sampler before building
// their ThreadPool.
// ---------------------------------------------------------------------------

constexpr int kNumHw = 4;  // cycles, instructions, cache-misses, branch-misses

struct Backend {
  bool perf_event = false;  // at least the cycles counter is live
  int fd[kNumHw] = {-1, -1, -1, -1};
  double inject_scale = 1.0;
};

// All mutable backend state behind one mutex; the hot path never takes it
// (collecting() is one load of the obs sink mask).
std::mutex g_mu;
Backend g_backend;

#if defined(__linux__)
int open_hw_counter(std::uint64_t config_id) {
  perf_event_attr attr{};
  attr.size = sizeof(attr);
  attr.type = PERF_TYPE_HARDWARE;
  attr.config = config_id;
  attr.disabled = 0;
  attr.inherit = 1;  // count threads spawned after the open
  attr.exclude_kernel = 1;
  attr.exclude_hv = 1;
  return static_cast<int>(
      syscall(SYS_perf_event_open, &attr, /*pid=*/0, /*cpu=*/-1, /*group_fd=*/-1, /*flags=*/0));
}
#endif

void close_backend(Backend* b) {
#if defined(__linux__)
  for (int& fd : b->fd) {
    if (fd >= 0) close(fd);
    fd = -1;
  }
#endif
  b->perf_event = false;
}

void open_backend(Backend* b, const PerfConfig& config) {
  close_backend(b);
  b->inject_scale = config.inject_scale > 0.0 ? config.inject_scale : 1.0;
  if (config.force_rusage) return;
#if defined(__linux__)
  static constexpr std::uint64_t kConfigs[kNumHw] = {
      PERF_COUNT_HW_CPU_CYCLES, PERF_COUNT_HW_INSTRUCTIONS, PERF_COUNT_HW_CACHE_MISSES,
      PERF_COUNT_HW_BRANCH_MISSES};
  for (int i = 0; i < kNumHw; ++i) b->fd[i] = open_hw_counter(kConfigs[i]);
  // The backend counts as perf_event only when the cycles counter opened;
  // anything less and the rusage numbers are the trustworthy story.
  if (b->fd[0] < 0) {
    close_backend(b);
    return;
  }
  b->perf_event = true;
#endif
}

/// Current value of one hardware counter fd; 0 on any read failure (the
/// delta then stays non-negative garbage-free because both ends read 0).
std::int64_t read_hw(int fd) {
#if defined(__linux__)
  if (fd < 0) return 0;
  std::uint64_t v = 0;
  if (read(fd, &v, sizeof(v)) != static_cast<ssize_t>(sizeof(v))) return 0;
  return static_cast<std::int64_t>(v);
#else
  (void)fd;
  return 0;
#endif
}

struct RusageReading {
  double cpu_s = 0.0;
  std::int64_t minor_faults = 0;
  std::int64_t major_faults = 0;
  std::int64_t vol_ctx = 0;
  std::int64_t invol_ctx = 0;
  std::int64_t max_rss_kb = 0;
};

RusageReading read_rusage() {
  RusageReading r;
#if defined(__unix__) || defined(__APPLE__)
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    const auto tv_seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    r.cpu_s = tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
    r.minor_faults = ru.ru_minflt;
    r.major_faults = ru.ru_majflt;
    r.vol_ctx = ru.ru_nvcsw;
    r.invol_ctx = ru.ru_nivcsw;
    r.max_rss_kb = ru.ru_maxrss;  // Linux reports KB
  }
#endif
  return r;
}

/// Peak RSS in KB from /proc/self/status (VmHWM), falling back to the
/// getrusage value when procfs is unavailable (non-Linux, hidepid mounts).
std::int64_t peak_rss_kb(std::int64_t rusage_fallback_kb) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::int64_t kb = 0;
      if (fields >> kb) return kb;
    }
  }
  return rusage_fallback_kb;
}

std::int64_t wall_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::int64_t process_peak_rss_kb() {
  return peak_rss_kb(read_rusage().max_rss_kb);
}

Sample scale_sample(Sample s, double factor) {
  const auto scale = [factor](std::int64_t v) {
    return v < 0 ? v : static_cast<std::int64_t>(static_cast<double>(v) * factor);
  };
  s.wall_ns = scale(s.wall_ns);
  s.cpu_ns = scale(s.cpu_ns);
  s.cycles = scale(s.cycles);
  s.instructions = scale(s.instructions);
  s.cache_misses = scale(s.cache_misses);
  s.branch_misses = scale(s.branch_misses);
  return s;
}

void start(const PerfConfig& config) {
  PerfConfig cfg = config;
  if (const char* env = std::getenv("TCR_PERF_FORCE_RUSAGE");
      env != nullptr && env[0] != '\0' && env[0] != '0') {
    cfg.force_rusage = true;
  }
  if (const char* env = std::getenv("TCR_PERF_INJECT_SCALE"); env != nullptr) {
    const double scale = std::atof(env);
    if (scale > 0.0) cfg.inject_scale = scale;
  }
  std::lock_guard<std::mutex> lock(g_mu);
  open_backend(&g_backend, cfg);
  obs::set_sink(obs::kPerf, true);
}

void stop() {
  std::lock_guard<std::mutex> lock(g_mu);
  obs::set_sink(obs::kPerf, false);
  close_backend(&g_backend);
}

std::string source() {
  if (!collecting()) return "off";
  std::lock_guard<std::mutex> lock(g_mu);
  return g_backend.perf_event ? "perf_event" : "rusage";
}

PhaseSampler::PhaseSampler() { reset(); }

void PhaseSampler::reset() {
  active_ = collecting();
  if (!active_) return;
  const RusageReading ru = read_rusage();
  base_.wall_ns = wall_now_ns();
  base_.cpu_s = ru.cpu_s;
  base_.minor_faults = ru.minor_faults;
  base_.major_faults = ru.major_faults;
  base_.vol_ctx = ru.vol_ctx;
  base_.invol_ctx = ru.invol_ctx;
  base_.alloc_count = detail::g_alloc_count.load(std::memory_order_relaxed);
  base_.alloc_bytes = detail::g_alloc_bytes.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_mu);
  for (int i = 0; i < kNumHw; ++i) base_.hw[i] = read_hw(g_backend.fd[i]);
}

Sample PhaseSampler::sample() const {
  Sample s;
  if (!active_ || !collecting()) {
    s.source = "off";
    return s;
  }
  const RusageReading ru = read_rusage();
  s.wall_ns = wall_now_ns() - base_.wall_ns;
  s.cpu_ns = static_cast<std::int64_t>((ru.cpu_s - base_.cpu_s) * 1e9);
  s.minor_faults = ru.minor_faults - base_.minor_faults;
  s.major_faults = ru.major_faults - base_.major_faults;
  s.vol_ctx_switches = ru.vol_ctx - base_.vol_ctx;
  s.invol_ctx_switches = ru.invol_ctx - base_.invol_ctx;
  s.max_rss_kb = peak_rss_kb(ru.max_rss_kb);
  s.alloc_count = detail::g_alloc_count.load(std::memory_order_relaxed) - base_.alloc_count;
  s.alloc_bytes = detail::g_alloc_bytes.load(std::memory_order_relaxed) - base_.alloc_bytes;
  double inject = 1.0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    s.source = g_backend.perf_event ? "perf_event" : "rusage";
    if (g_backend.perf_event) {
      const std::int64_t cyc = read_hw(g_backend.fd[0]) - base_.hw[0];
      s.cycles = cyc >= 0 ? cyc : 0;
      const auto optional_hw = [this](int i, int fd) {
        return fd >= 0 ? read_hw(fd) - base_.hw[i] : -1;
      };
      s.instructions = optional_hw(1, g_backend.fd[1]);
      s.cache_misses = optional_hw(2, g_backend.fd[2]);
      s.branch_misses = optional_hw(3, g_backend.fd[3]);
    }
    inject = g_backend.inject_scale;
  }
  if (inject != 1.0) return scale_sample(std::move(s), inject);
  return s;
}

obs::Json Sample::to_json() const {
  auto j = obs::Json::object();
  j.set("source", source).set("wall_ns", wall_ns).set("cpu_ns", cpu_ns);
  if (cycles >= 0) j.set("cycles", cycles);
  if (instructions >= 0) j.set("instructions", instructions);
  if (cache_misses >= 0) j.set("cache_misses", cache_misses);
  if (branch_misses >= 0) j.set("branch_misses", branch_misses);
  j.set("max_rss_kb", max_rss_kb)
      .set("minor_faults", minor_faults)
      .set("major_faults", major_faults)
      .set("vol_ctx_switches", vol_ctx_switches)
      .set("invol_ctx_switches", invol_ctx_switches)
      .set("alloc_count", alloc_count)
      .set("alloc_bytes", alloc_bytes);
  return j;
}

}  // namespace tcr::perf
