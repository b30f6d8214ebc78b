// Per-CPU utilization ledger: the one published record of each CPU that
// every layer above the local scheduler reads.
//
// Each entry holds three fields, on its own cache line:
//   * committed — a Q32.32 fixed-point rt::fp::AdmissionWord, updated by CAS
//     with release-publication and read with acquire loads.  The CPU's local
//     scheduler is its only writer: it publishes the ceil-rounded quantum of
//     every admission commit, detach/exit and sporadic tail release
//     (LocalScheduler::ledger_admit / ledger_release), and reads the word
//     back for its admission fast path and admitted_utilization().
//   * capacity — the utilization available to RT admission, rounded down;
//     written at boot and by the resilience controller's degraded
//     publication.
//   * storm_hit — the resilience controller's storm classification,
//     published in the same sample as the degraded capacity.
// The placement engine, the rebalancer, the storm controller and the cluster
// controller read these without locking, even when admissions run on other
// host threads (batch spawn).  The kUtilization audit invariant
// (docs/AUDIT.md) recomputes each committed word from the scheduler's
// admitted threads after every scheduling pass and requires exact equality.
//
// Reservations (two-phase group admission, migration holds) are deliberately
// *not* in the ledger: they are transient and already protect admission on
// the owning CPU; the ledger reflects only committed demand.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "rt/fixed_point.hpp"

namespace hrt::global {

class UtilizationLedger {
 public:
  /// `capacity` is the per-CPU utilization available to RT admission
  /// (utilization_limit minus the sporadic and aperiodic reservations).
  UtilizationLedger(std::uint32_t num_cpus, double capacity)
      : entries_(num_cpus) {
    for (std::uint32_t c = 0; c < num_cpus; ++c) set_capacity(c, capacity);
  }

  /// Raw fixed-point feed: the scheduler converts its double delta once
  /// (demand rounds up) and publishes that quantum here.
  void on_admit_raw(std::uint32_t cpu, rt::fp::Raw q) {
    entries_[cpu].committed.add(q);
  }
  void on_release_raw(std::uint32_t cpu, rt::fp::Raw q) {
    entries_[cpu].committed.release(q);
  }

  [[nodiscard]] std::uint32_t num_cpus() const {
    return static_cast<std::uint32_t>(entries_.size());
  }
  [[nodiscard]] double committed(std::uint32_t cpu) const {
    return entries_[cpu].committed.value();
  }
  [[nodiscard]] rt::fp::Raw committed_raw(std::uint32_t cpu) const {
    return entries_[cpu].committed.raw();
  }
  [[nodiscard]] double capacity(std::uint32_t cpu) const {
    return rt::fp::to_double(capacity_raw(cpu));
  }
  [[nodiscard]] rt::fp::Raw capacity_raw(std::uint32_t cpu) const {
    return entries_[cpu].capacity.load(std::memory_order_acquire);
  }
  [[nodiscard]] double headroom(std::uint32_t cpu) const {
    const rt::fp::Raw cap = capacity_raw(cpu);
    const rt::fp::Raw com = committed_raw(cpu);
    return cap > com ? rt::fp::to_double(cap - com) : 0.0;
  }
  /// Capacity rounds DOWN (never overstate what a CPU can take); used by
  /// boot sizing and by the resilience controller's degraded publication.
  void set_capacity(std::uint32_t cpu, double cap) {
    entries_[cpu].capacity.store(rt::fp::from_double_floor(cap),
                                 std::memory_order_release);
  }
  /// Storm flag (docs/RESILIENCE.md): raised while the resilience controller
  /// classifies `cpu` as storm-hit.  Placement ranks flagged CPUs last, and
  /// the cluster tier ranks a node with any flagged CPU last.
  [[nodiscard]] bool storm_hit(std::uint32_t cpu) const {
    return entries_[cpu].storm_hit.load(std::memory_order_acquire);
  }
  void set_storm_hit(std::uint32_t cpu, bool hit) {
    entries_[cpu].storm_hit.store(hit, std::memory_order_release);
  }

 private:
  // One cache line per CPU: the word is CAS-hammered from the owning
  // scheduler while the placement engine scans all of them; padding keeps a
  // hot admit loop from invalidating its neighbors' lines.
  struct alignas(64) Entry {
    rt::fp::AdmissionWord committed;
    std::atomic<rt::fp::Raw> capacity{0};
    std::atomic<bool> storm_hit{false};
  };

  std::vector<Entry> entries_;
};

}  // namespace hrt::global
