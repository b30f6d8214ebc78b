#include "global/ledger.hpp"

namespace hrt::global {

UtilizationLedger::UtilizationLedger(std::uint32_t num_cpus, double capacity)
    : entries_(num_cpus) {
  for (std::uint32_t c = 0; c < num_cpus; ++c) set_capacity(c, capacity);
}

void UtilizationLedger::on_admit_raw(std::uint32_t cpu, rt::fp::Raw q) {
  entries_[cpu].committed.add(q);
  admits_.fetch_add(1, std::memory_order_relaxed);
}

void UtilizationLedger::on_release_raw(std::uint32_t cpu, rt::fp::Raw q) {
  entries_[cpu].committed.release(q);
  releases_.fetch_add(1, std::memory_order_relaxed);
}

double UtilizationLedger::total_committed() const {
  double total = 0.0;
  for (const Entry& e : entries_) total += e.committed.value();
  return total;
}

}  // namespace hrt::global
