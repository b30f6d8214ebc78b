#include "sim/trace.hpp"

#include <limits>
#include <stdexcept>

namespace hrt::sim {

void Trace::append(Nanos t, std::uint32_t cpu, TraceKind kind,
                   std::int64_t value) {
  // Positions are 32-bit (half the memory of size_t ones); 2^32 records
  // would be 96 GiB of trace.
  if (records_.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("sim::Trace: more than 2^32 records");
  }
  if (cpu >= by_cpu_.size()) by_cpu_.resize(std::size_t{cpu} + 1);
  by_cpu_[cpu].push_back(static_cast<std::uint32_t>(records_.size()));
  records_.push_back(TraceRecord{t, cpu, kind, value});
}

std::vector<TraceRecord> Trace::filter(TraceKind kind,
                                       std::uint32_t cpu) const {
  std::vector<TraceRecord> out;
  if (cpu == ~0u) {
    for (const TraceRecord& r : records_) {
      if (r.kind == kind) out.push_back(r);
    }
    return out;
  }
  for (const std::uint32_t i : positions(cpu)) {
    if (records_[i].kind == kind) out.push_back(records_[i]);
  }
  return out;
}

}  // namespace hrt::sim
