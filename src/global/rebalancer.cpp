#include "global/rebalancer.hpp"

#include <cmath>
#include <vector>

#include "global/ledger.hpp"
#include "group/group.hpp"
#include "nautilus/kernel.hpp"
#include "nautilus/thread.hpp"
#include "rt/local_scheduler.hpp"

namespace hrt::global {

namespace {

// The first CPU of `order` other than `skip` whose headroom takes `util`
// within `slack`.  The rebalancer keeps its own slacks, 0 and 1e-12, not
// placement's 1e-9: make_room's early exit needs one below a Q32.32 ulp.
std::uint32_t first_with_room(const std::vector<std::uint32_t>& order,
                              const UtilizationLedger& ledger,
                              std::uint32_t skip, double util, double slack) {
  for (std::uint32_t c : order) {
    if (c != skip && ledger.headroom(c) + slack >= util) return c;
  }
  return kInvalidCpu;
}

}  // namespace

bool Rebalancer::movable(const nk::Thread* t) const {
  if (t == nullptr || t->is_idle) return false;
  if (t->state == nk::Thread::State::kExited ||
      t->state == nk::Thread::State::kPooled) {
    return false;
  }
  if (t->migrate_to != nk::kNoMigrateTarget) return false;
  if (groups_ != nullptr && groups_->group_of(t) != nullptr) return false;
  return true;
}

bool Rebalancer::rebalance_once() {
  if (kernel_ == nullptr) return false;
  const std::uint32_t n = ledger_.num_cpus();
  if (n < 2) return false;

  // No destination sits further below the most-committed CPU `hi` than
  // the least-committed CPU, so give up in O(CPUs) unless their gap passes
  // the threshold; only then are the CPUs ranked.
  std::uint32_t hi = 0;
  double most = ledger_.committed(0);
  double least = most;
  for (std::uint32_t c = 1; c < n; ++c) {
    const double u = ledger_.committed(c);
    if (u > most) {
      hi = c;
      most = u;
    }
    if (u < least) least = u;
  }
  if (most - least < cfg_.rebalance_threshold) return false;

  // Largest movable periodic thread on `hi` whose destination, the first
  // CPU of rt_cpu_order() other than `hi` with room for it, sits further
  // below `hi` than the thread's demand (moving it must not just flip the
  // imbalance).  The does-it-flip test compares in the ledger's own Q32.32
  // quantization: the candidate's demand quantum is exactly what its admit
  // added to `hi`'s word, so the boundary case (u == true gap) resolves
  // identically to exact real arithmetic instead of inheriting the ulp the
  // per-admit ceil rounding adds to the committed words.
  const std::vector<std::uint32_t> order = engine_.rt_cpu_order();
  nk::Thread* victim = nullptr;
  double victim_util = 0.0;
  std::uint32_t lo = kInvalidCpu;
  for (nk::Thread* t : kernel_->live_threads()) {
    if (t->cpu != hi || !movable(t)) continue;
    if (t->constraints.cls != rt::ConstraintClass::kPeriodic) continue;
    const double u = t->constraints.utilization();
    if (victim != nullptr && u <= victim_util) continue;
    const std::uint32_t dest = first_with_room(order, ledger_, hi, u, 0.0);
    if (dest == kInvalidCpu ||
        rt::fp::from_double_ceil(u) >=
            ledger_.committed_raw(hi) - ledger_.committed_raw(dest)) {
      continue;
    }
    victim = t;
    victim_util = u;
    lo = dest;
  }
  if (victim == nullptr) return false;

  rt::LocalScheduler* src = kernel_->local_scheduler(hi);
  if (src == nullptr || !src->request_migration(*victim, lo)) return false;
  ++stats_.migrations_proposed;
  return true;
}

void Rebalancer::schedule_rebalance(std::uint32_t cpu) {
  if (kernel_ == nullptr) return;
  kernel_->submit_task(
      cpu, nk::Task{[this]() { rebalance_once(); }, cfg_.rebalance_task_size});
}

void Rebalancer::on_thread_exit(std::uint32_t cpu) {
  // Deferred: the exiting thread still holds its utilization until the
  // scheduler's exit handling finishes, so re-level in a later pass.
  ++stats_.exit_rebalances;
  schedule_rebalance(cpu);
}

std::uint32_t Rebalancer::make_room(const rt::Constraints& c,
                                    const nk::Thread* for_thread) {
  ++stats_.make_room_calls;
  if (kernel_ == nullptr) return kInvalidCpu;
  const double util = c.utilization();
  const std::uint32_t n = ledger_.num_cpus();

  // Give up before ordering the CPUs when the spec's demand quantum exceeds
  // every CPU's capacity word by more than one ulp, so util > capacity +
  // 2^-32 on every CPU.  No single migration can then seat it:
  //  * on a CPU at or under capacity, the deficit util - headroom exceeds
  //    the CPU's whole committed word by more than 2^-32; each victim's
  //    quantum is inside that word, so none covers the deficit, even with
  //    the 1e-12 slack below;
  //  * on a CPU over capacity, the deficit is util, so a covering victim
  //    needs a destination with headroom >= util - 2e-12, and no CPU's
  //    headroom exceeds its capacity, which is below util - 2^-32.
  const rt::fp::Raw need = rt::fp::from_double_ceil(util);
  bool seatable = false;
  for (std::uint32_t x = 0; x < n && !seatable; ++x) {
    seatable = need <= rt::fp::sat_add(ledger_.capacity_raw(x), 1);
  }
  if (!seatable) return kInvalidCpu;

  // Live threads bucketed by CPU, built once the first candidate does not
  // already fit.  Each bucket keeps live_threads() order, so victim ties
  // resolve exactly as a scan of the whole list would.
  std::vector<std::vector<nk::Thread*>> on_cpu;
  const std::vector<std::uint32_t> order = engine_.rt_cpu_order();
  for (std::uint32_t x : order) {
    const double deficit = util - ledger_.headroom(x);
    if (deficit <= 0) return x;  // already fits; caller just retries here
    if (on_cpu.empty()) {
      on_cpu.resize(n);
      for (nk::Thread* t : kernel_->live_threads()) {
        if (t->cpu < n) on_cpu[t->cpu].push_back(t);
      }
    }

    // Smallest movable periodic thread on x whose departure covers the
    // deficit, moved to the first CPU of the ranking that can absorb it.
    nk::Thread* victim = nullptr;
    double victim_util = 0.0;
    for (nk::Thread* t : on_cpu[x]) {
      if (t == for_thread || !movable(t)) continue;
      if (t->constraints.cls != rt::ConstraintClass::kPeriodic) continue;
      const double u = t->constraints.utilization();
      if (u + 1e-12 < deficit) continue;
      if (victim == nullptr || u < victim_util) {
        victim = t;
        victim_util = u;
      }
    }
    if (victim == nullptr) continue;
    const std::uint32_t dest =
        first_with_room(order, ledger_, x, victim_util, 1e-12);
    if (dest == kInvalidCpu) continue;
    rt::LocalScheduler* src = kernel_->local_scheduler(x);
    if (src == nullptr || !src->request_migration(*victim, dest)) continue;
    ++stats_.make_room_migrations;
    ++stats_.migrations_proposed;
    return x;
  }
  return kInvalidCpu;
}

void Rebalancer::relocate_when_parked(nk::Thread* t, std::uint32_t to) {
  if (kernel_ == nullptr || t == nullptr) return;
  const nk::Thread::Id id = t->id;
  nk::Kernel* kernel = kernel_;
  // Deferred sized task on the thread's own CPU: by the time the task runs
  // the thread has been descheduled (tasks run inside a scheduler pass), so
  // the parked-only migrate_aperiodic can succeed.  The id re-check guards
  // against the thread exiting and its object being recycled meanwhile.
  kernel_->submit_task(t->cpu, nk::Task{[this, kernel, t, id, to]() {
                                          if (t->id != id) return;
                                          if (kernel->migrate_aperiodic(t, to)) {
                                            ++stats_.relocations;
                                          }
                                        },
                                        cfg_.rebalance_task_size});
}

}  // namespace hrt::global
