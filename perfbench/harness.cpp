#include "harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <queue>

namespace perfbench {

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

double calibration_loop() {
  struct Event {
    std::uint64_t when;
    std::uint32_t cpu;
    bool operator>(const Event& o) const { return when > o.when; }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue;
  std::vector<std::uint64_t> state(256 * 64, 1);
  std::vector<std::function<std::uint64_t(std::uint64_t)>> handlers;
  for (std::uint64_t i = 0; i < 8; ++i) {
    handlers.push_back(
        [i](std::uint64_t x) { return x * 6364136223846793005ULL + i; });
  }
  for (std::uint32_t cpu = 0; cpu < 256; ++cpu) queue.push({cpu * 7ULL, cpu});
  std::uint64_t x = 88172645463325252ULL;  // xorshift state
  std::uint64_t acc = 0;
  const double t0 = now_s();
  for (int n = 0; n < 600000; ++n) {
    const Event e = queue.top();
    queue.pop();
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t* s = &state[e.cpu * 64];
    for (int k = 0; k < 8; ++k) {
      s[(x >> (k * 6)) & 63] += handlers[(x >> 3) & 7](s[k]);
    }
    acc += s[x & 63];
    if ((x & 3) == 0) state[((x >> 8) & 255) * 64] ^= acc;
    queue.push({e.when + 1 + (x & 1023), e.cpu});
  }
  const double dt = now_s() - t0;
  // Keep the loop observable so it cannot be optimized away.
  volatile std::uint64_t sink = acc;
  (void)sink;
  return dt;
}

double proc_status_mb(const char* key) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  const std::size_t klen = std::strlen(key);
  double mb = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, klen) == 0 && line[klen] == ':') {
      mb = std::strtod(line + klen + 1, nullptr) / 1024.0;  // kB -> MB
      break;
    }
  }
  std::fclose(f);
  return mb;
}

Counters snapshot(hrt::System* sys, bool rss) {
  Counters c;
  if (rss) c.rss_mb = proc_status_mb("VmRSS");
  if (sys == nullptr) return c;
  auto& v = c.v;
  v[kEvents] = sys->engine().events_executed();
  v[kPending] = sys->engine().pending_count();
  v[kTraceRecords] = sys->machine().trace().records().size();
  // Executors and schedulers exist only once the kernel has booted.
  const std::uint32_t n = sys->kernel().booted() ? sys->kernel().num_cpus() : 0;
  for (std::uint32_t cpu = 0; cpu < n; ++cpu) {
    const hrt::nk::CpuExecutor& ex = sys->kernel().executor(cpu);
    v[kNkPasses] += ex.overheads().passes;
    v[kNkSwitches] += ex.overheads().switches;
    v[kNkPreemptions] += ex.preemptions();
    const hrt::rt::LocalScheduler::Stats& st = sys->sched(cpu).stats();
    v[kPasses] += st.passes;
    v[kTimerPasses] += st.timer_passes;
    v[kKickPasses] += st.kick_passes;
    v[kZeroDelayArms] += st.zero_delay_arms;
    v[kRrRotations] += st.rr_rotations;
    v[kAdmitsOk] += st.admissions_ok;
    v[kAdmitsRejected] += st.admissions_rejected;
    v[kFastAdmits] += st.fast_admits;
    v[kFastFallbacks] += st.fast_fallbacks;
    v[kBatchReserves] += st.batch_reserves;
  }
  const auto& gs = sys->placement().stats();
  v[kFallbackPlacements] = gs.fallback_placements;
  v[kSplitChunks] = gs.split_chunks;
  v[kAdmitGiveUps] = gs.admit_give_ups;
  const auto& rb = sys->placement().rebalancer().stats();
  v[kRebalances] = rb.exit_rebalances + rb.make_room_calls;
  v[kRecWritten] = sys->telemetry().recorder().written();
  v[kRecDropped] = sys->telemetry().recorder().dropped();
  v[kViolations] = sys->auditor().total_violations();
  return c;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].t1 - spans[i].t0;
  }
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
    }
  }
  return self;
}

namespace {

void put_counters(std::FILE* f, const Counters& c) {
  std::fprintf(f, "{");
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    std::fprintf(f, "\"%s\": %llu, ", kCounterNames[i],
                 static_cast<unsigned long long>(c.v[i]));
  }
  std::fprintf(f, "\"rss_mb\": %.3f}", c.rss_mb);
}

}  // namespace

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"run\": %u, \"start_s\": %.9f, \"end_s\": %.9f, "
                 "\"begin\": ",
                 i, s.name, s.parent, s.run, s.t0, s.t1);
    put_counters(f, s.c0);
    std::fprintf(f, ", \"end\": ");
    put_counters(f, s.c1);
    std::fprintf(f, "}\n");
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
