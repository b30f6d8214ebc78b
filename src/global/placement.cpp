#include "global/placement.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "global/ledger.hpp"

namespace hrt::global {

namespace {

// Fit slack of the ledger test.  Admission scales its slack with the terms
// it sums (rt::utilization_fits in rt/admission.hpp, called by
// rt::edf_admissible), so this flat slack is looser by up to 1e-9:
// placement can pick a CPU whose admission then rejects, which costs a
// retry, never a deadline.  Tightening it would
// change placement decisions: a fit test on the ceil-rounded word alone
// refuses exactly-full specs (a 0.79 spec on an empty 0.79 CPU) that
// admission's exact fallback admits (Placement.ExactlyFullSpecsStayPlaceable).
constexpr double kEps = 1e-9;

bool room_for(double headroom, double util) { return headroom + kEps >= util; }

}  // namespace

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kFirstFit: return "first-fit";
    case Policy::kBestFit: return "best-fit";
    case Policy::kWorstFit: return "worst-fit";
    case Policy::kTopology: return "topology";
  }
  return "?";
}

bool PlacementEngine::steers_rt() const {
  return cfg_.interrupt_laden_cpus < ledger_.num_cpus();
}

bool PlacementEngine::fits(std::uint32_t cpu, double util) const {
  return room_for(ledger_.headroom(cpu), util);
}

bool PlacementEngine::storm_hit(std::uint32_t cpu) const {
  return ledger_.storm_hit(cpu);
}

std::vector<std::uint32_t> PlacementEngine::rt_cpu_order() const {
  const std::uint32_t n = ledger_.num_cpus();
  const std::uint32_t laden = steers_rt() ? cfg_.interrupt_laden_cpus : 0;
  // Read each CPU's sort inputs once; the comparator only compares keys.
  struct Key {
    bool storm;
    bool laden;
    double headroom;
    std::uint32_t cpu;
  };
  std::vector<Key> keys(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    keys[c] = Key{storm_hit(c), c < laden, ledger_.headroom(c), c};
  }
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.storm != b.storm) return !a.storm;  // quiet CPUs first
    if (a.laden != b.laden) return !a.laden;  // interrupt-free first
    return a.headroom > b.headroom;
  });
  std::vector<std::uint32_t> order(n);
  for (std::uint32_t i = 0; i < n; ++i) order[i] = keys[i].cpu;
  return order;
}

std::vector<std::uint32_t> PlacementEngine::place_batch(
    const std::vector<rt::Constraints>& specs) const {
  const std::uint32_t n = ledger_.num_cpus();
  std::vector<std::uint32_t> out(specs.size(), kInvalidCpu);
  if (n == 0 || specs.empty()) return out;

  // ONE ledger snapshot for the whole batch; every placement debits the
  // scratch copy so later specs see earlier ones.  The copy is a heap on
  // (headroom descending, CPU index): every scan below takes the first CPU
  // in that order that passes its filters, which is the roomiest passing
  // CPU, lowest index on ties.
  struct Slot {
    double head;
    std::uint32_t cpu;
  };
  auto later = [](const Slot& a, const Slot& b) {
    if (a.head != b.head) return a.head < b.head;
    return a.cpu > b.cpu;
  };
  std::vector<Slot> heap(n);
  for (std::uint32_t c = 0; c < n; ++c) {
    heap[c] = Slot{ledger_.headroom(c), c};
  }
  std::make_heap(heap.begin(), heap.end(), later);
  // The entries popped for the current spec, in heap order.
  std::vector<Slot> popped;

  // Worst-fit DECREASING: placing the big specs first is what makes the
  // single-pass packing competitive with per-spec placement against a live
  // ledger (classic bin-packing; also how pack_decreasing orders work).
  std::vector<std::size_t> order(specs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return specs[a].utilization() > specs[b].utilization();
                   });

  const bool steer = steers_rt();
  constexpr std::size_t kNone = ~std::size_t{0};
  for (std::size_t i : order) {
    const double util = specs[i].utilization();
    const bool realtime = specs[i].is_realtime();
    auto passes = [&](const Slot& s, bool want_free, bool avoid_storm,
                      bool need_fit) {
      if (avoid_storm && storm_hit(s.cpu)) return false;
      if (steer && ((s.cpu >= cfg_.interrupt_laden_cpus) != want_free)) {
        return false;
      }
      return !need_fit || room_for(s.head, util);
    };
    // Index into `popped` of the first passing CPU.  A later scan of the
    // same spec re-walks the popped prefix before popping further.
    auto scan = [&](bool want_free, bool avoid_storm, bool need_fit) {
      for (std::size_t k = 0; k < popped.size(); ++k) {
        if (passes(popped[k], want_free, avoid_storm, need_fit)) return k;
      }
      while (!heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), later);
        popped.push_back(heap.back());
        heap.pop_back();
        if (passes(popped.back(), want_free, avoid_storm, need_fit)) {
          return popped.size() - 1;
        }
      }
      return kNone;
    };
    std::size_t k = kNone;
    // The ranking's classes: quiet before stormy, then the spec's own
    // partition before the other; the first class holding a fitting CPU
    // wins, and with no fit anywhere the first CPU of the ranking does.
    const bool free_first = !steer || realtime;
    for (const bool need_fit : {true, false}) {
      k = scan(free_first, true, need_fit);
      if (k == kNone) k = scan(!free_first, true, need_fit);
      if (k == kNone) k = scan(free_first, false, need_fit);
      if (k == kNone) k = scan(!free_first, false, need_fit);
      if (k != kNone) break;
    }
    if (k != kNone) {
      Slot& s = popped[k];
      out[i] = s.cpu;
      s.head -= util;
      if (s.head < 0.0) s.head = 0.0;
    }
    for (const Slot& s : popped) {
      heap.push_back(s);
      std::push_heap(heap.begin(), heap.end(), later);
    }
    popped.clear();
  }
  return out;
}

std::vector<std::uint32_t> PlacementEngine::choose_group(
    std::uint32_t n, const rt::Constraints& c) const {
  const double util = c.utilization();
  std::vector<std::uint32_t> out;
  for (std::uint32_t cpu : rt_cpu_order()) {
    if (!fits(cpu, util)) continue;
    out.push_back(cpu);
    if (out.size() == n) return out;
  }
  return {};  // not enough distinct CPUs with headroom
}

SplitPlan split_task(const rt::PeriodicTask& task,
                     const std::vector<double>& headroom,
                     sim::Nanos min_slice, std::uint32_t max_chunks) {
  SplitPlan plan;
  if (task.period <= 0 || task.slice <= 0 || min_slice <= 0 ||
      max_chunks == 0) {
    return plan;
  }
  std::vector<std::uint32_t> order(headroom.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return headroom[a] > headroom[b];
                   });

  sim::Nanos remaining = task.slice;
  const double period = static_cast<double>(task.period);
  for (std::uint32_t cpu : order) {
    if (remaining == 0 || plan.chunks.size() == max_chunks) break;
    // Floor to whole nanoseconds so chunk/period <= headroom exactly.
    sim::Nanos chunk = static_cast<sim::Nanos>(
        std::floor(std::max(0.0, headroom[cpu]) * period));
    chunk = std::min(chunk, remaining);
    // Never strand a tail smaller than the minimum admissible slice.
    if (chunk < remaining && remaining - chunk < min_slice) {
      chunk = remaining - min_slice;
    }
    if (chunk < min_slice) continue;  // this CPU can't hold a real chunk
    SplitChunk sc;
    sc.cpu = cpu;
    const auto i = static_cast<sim::Nanos>(plan.chunks.size());
    sc.constraints =
        rt::Constraints::periodic(task.phase + i * task.period, task.period,
                                  chunk);
    plan.chunks.push_back(sc);
    remaining -= chunk;
  }
  plan.ok = remaining == 0 && !plan.chunks.empty();
  if (!plan.ok) plan.chunks.clear();
  return plan;
}

namespace {

double task_util(const rt::PeriodicTask& t) {
  return t.period > 0
             ? static_cast<double>(t.slice) / static_cast<double>(t.period)
             : 0.0;
}

/// Indices of `tasks` in decreasing-utilization order (stable).
std::vector<std::size_t> decreasing_order(
    const std::vector<rt::PeriodicTask>& tasks) {
  std::vector<std::size_t> order(tasks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return task_util(tasks[a]) > task_util(tasks[b]);
                   });
  return order;
}

}  // namespace

PackResult pack_decreasing(const std::vector<rt::PeriodicTask>& tasks,
                           std::uint32_t num_cpus, double capacity,
                           Policy policy,
                           std::uint32_t interrupt_laden_cpus) {
  PackResult r;
  r.assignment.assign(tasks.size(), kInvalidCpu);
  r.per_cpu.assign(num_cpus, 0.0);
  std::vector<std::vector<rt::PeriodicTask>> sets(num_cpus);

  auto candidates = [&]() {
    std::vector<std::uint32_t> order(num_cpus);
    std::iota(order.begin(), order.end(), 0u);
    switch (policy) {
      case Policy::kFirstFit:
        break;  // index order
      case Policy::kBestFit:
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return r.per_cpu[a] > r.per_cpu[b];
                         });
        break;
      case Policy::kWorstFit:
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           return r.per_cpu[a] < r.per_cpu[b];
                         });
        break;
      case Policy::kTopology:
        std::stable_sort(order.begin(), order.end(),
                         [&](std::uint32_t a, std::uint32_t b) {
                           const bool fa = a >= interrupt_laden_cpus;
                           const bool fb = b >= interrupt_laden_cpus;
                           if (fa != fb) return fa;  // interrupt-free first
                           return r.per_cpu[a] < r.per_cpu[b];
                         });
        break;
    }
    return order;
  };

  for (std::size_t i : decreasing_order(tasks)) {
    for (std::uint32_t cpu : candidates()) {
      sets[cpu].push_back(tasks[i]);
      if (rt::edf_admissible(sets[cpu], capacity)) {
        r.assignment[i] = cpu;
        r.per_cpu[cpu] += task_util(tasks[i]);
        r.admitted_util += task_util(tasks[i]);
        ++r.placed;
        break;
      }
      sets[cpu].pop_back();
    }
  }
  return r;
}

SemiPartitionedResult pack_semi_partitioned(
    const std::vector<rt::PeriodicTask>& tasks, std::uint32_t num_cpus,
    double capacity, sim::Nanos min_slice, std::uint32_t max_chunks) {
  SemiPartitionedResult r;
  for (Policy p : {Policy::kFirstFit, Policy::kBestFit, Policy::kWorstFit}) {
    PackResult pr = pack_decreasing(tasks, num_cpus, capacity, p);
    if (pr.admitted_util > r.base.admitted_util ||
        r.base.assignment.empty()) {
      r.base = std::move(pr);
      r.base_policy = p;
    }
  }
  r.per_cpu = r.base.per_cpu;
  r.admitted_util = r.base.admitted_util;
  r.placed = r.base.placed;

  // Rebuild the per-CPU sets the base packing committed, so split chunks
  // are validated by the same admission test that will run at spawn time.
  std::vector<std::vector<rt::PeriodicTask>> sets(num_cpus);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (r.base.assignment[i] != kInvalidCpu) {
      sets[r.base.assignment[i]].push_back(tasks[i]);
    }
  }

  for (std::size_t i : decreasing_order(tasks)) {
    if (r.base.assignment[i] != kInvalidCpu) continue;
    std::vector<double> headroom(num_cpus);
    for (std::uint32_t c = 0; c < num_cpus; ++c) {
      headroom[c] = capacity - r.per_cpu[c];
    }
    SplitPlan plan = split_task(tasks[i], headroom, min_slice, max_chunks);
    if (!plan.ok) continue;
    bool admitted = true;
    std::size_t pushed = 0;
    for (const SplitChunk& sc : plan.chunks) {
      sets[sc.cpu].push_back(rt::PeriodicTask{sc.constraints.period,
                                              sc.constraints.slice,
                                              sc.constraints.phase});
      ++pushed;
      if (!rt::edf_admissible(sets[sc.cpu], capacity)) {
        admitted = false;
        break;
      }
    }
    if (!admitted) {
      for (std::size_t j = 0; j < pushed; ++j) {
        sets[plan.chunks[j].cpu].pop_back();
      }
      continue;
    }
    for (const SplitChunk& sc : plan.chunks) {
      r.per_cpu[sc.cpu] += sc.constraints.utilization();
    }
    r.admitted_util += task_util(tasks[i]);
    ++r.placed;
    r.splits.push_back({i, std::move(plan)});
  }
  return r;
}

}  // namespace hrt::global
