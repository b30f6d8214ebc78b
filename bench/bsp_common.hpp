// Shared BSP setup for Figures 13-16.
//
// Two granularity presets, chosen so the cost ratio between one iteration's
// work and the 255-way barrier matches the paper's regimes:
//   * coarsest: per-iteration work >> barrier cost, so barrier removal buys
//     little (Figure 15) and resource control is clean (Figure 13).
//   * finest: barrier cost is comparable to (or above) an iteration's work,
//     so Amdahl's law makes barrier removal pay 20%-300% (Figure 16) and
//     throttling shows more spread (Figure 14).
#pragma once

#include <vector>

#include "bsp/bsp.hpp"
#include "common.hpp"

namespace bench {

inline hrt::bsp::BspConfig coarse_cfg(std::uint32_t p, bool full) {
  hrt::bsp::BspConfig c;
  c.P = p;
  c.NE = 4096;
  c.NC = 8;
  c.NW = 16;
  c.N = full ? 60 : 16;
  return c;  // per-iteration compute ~150 us @1.3 GHz
}

inline hrt::bsp::BspConfig fine_cfg(std::uint32_t p, bool full) {
  hrt::bsp::BspConfig c;
  c.P = p;
  c.NE = 512;
  c.NC = 8;
  c.NW = 16;
  c.N = full ? 400 : 120;
  return c;  // per-iteration compute ~19 us @1.3 GHz
}

struct BspPoint {
  hrt::sim::Nanos period;
  int slice_pct;
  double util;
  hrt::sim::Nanos time;  // makespan
  bool ok;
};

inline BspPoint run_rt_point(const hrt::bsp::BspConfig& base,
                             hrt::sim::Nanos period, int slice_pct,
                             std::uint64_t seed, bool barrier) {
  using namespace hrt;
  System::Options o;
  o.spec = hw::MachineSpec::phi();
  o.seed = seed;
  // The paper's sweep reaches 90% utilization; shrink the reservations so
  // the admission test has that much to give (the BSP node runs nothing
  // else).
  o.sched.sporadic_reservation = 0.04;
  o.sched.aperiodic_reservation = 0.05;
  System sys(std::move(o));
  sys.boot();

  bsp::BspConfig cfg = base;
  cfg.mode = bsp::Mode::kGroupRt;
  cfg.barrier = barrier;
  cfg.period = period;
  cfg.slice = period * slice_pct / 100;
  // Group admission for P threads takes ~P * collective costs; leave room.
  cfg.phase = sim::millis(3) + cfg.P * sim::micros(80);
  auto res = bsp::run_bsp(sys, cfg);

  BspPoint pt{};
  pt.period = period;
  pt.slice_pct = slice_pct;
  pt.util = static_cast<double>(slice_pct) / 100.0;
  pt.time = res.makespan;
  pt.ok = res.all_done && res.admission_ok;
  return pt;
}

inline BspPoint run_aperiodic_point(const hrt::bsp::BspConfig& base,
                                    std::uint64_t seed, bool barrier) {
  using namespace hrt;
  System::Options o;
  o.spec = hw::MachineSpec::phi();
  o.seed = seed;
  System sys(std::move(o));
  sys.boot();

  bsp::BspConfig cfg = base;
  cfg.mode = bsp::Mode::kAperiodic;
  cfg.barrier = barrier;
  auto res = bsp::run_bsp(sys, cfg);
  BspPoint pt{};
  pt.util = 1.0;
  pt.time = res.makespan;
  pt.ok = res.all_done;
  return pt;
}

inline std::vector<hrt::sim::Nanos> throttle_periods(bool full) {
  using hrt::sim::micros;
  if (full) {
    std::vector<hrt::sim::Nanos> ps;
    for (int i = 0; i < 100; ++i) {
      ps.push_back(micros(200) + i * micros(48));  // 200us .. ~5ms
    }
    return ps;
  }
  return {micros(250), micros(500), micros(1000), micros(2000), micros(4000)};
}

/// One (period, slice%) cell of a Figure 13-16 sweep.
struct BspJob {
  hrt::sim::Nanos period;
  int pct;
};

inline std::vector<BspJob> sweep_jobs(
    const std::vector<hrt::sim::Nanos>& periods, int pct_lo, int pct_hi,
    int pct_step) {
  std::vector<BspJob> jobs;
  for (hrt::sim::Nanos period : periods) {
    for (int pct = pct_lo; pct <= pct_hi; pct += pct_step) {
      jobs.push_back({period, pct});
    }
  }
  return jobs;
}

/// Run every sweep cell through the shared --threads-controlled helper
/// (bench::parallel_for_index, plain host threads).  Each cell
/// is an independent simulation with its own seed-derived System, and
/// results land in job order, so output is identical to a serial sweep.
inline std::vector<BspPoint> run_rt_sweep(const hrt::bsp::BspConfig& base,
                                          const std::vector<BspJob>& jobs,
                                          std::uint64_t seed, bool barrier,
                                          unsigned threads) {
  std::vector<BspPoint> out(jobs.size());
  parallel_for_index(jobs.size(), threads, [&](std::size_t i) {
    out[i] = run_rt_point(base, jobs[i].period, jobs[i].pct, seed, barrier);
  });
  return out;
}

}  // namespace bench
