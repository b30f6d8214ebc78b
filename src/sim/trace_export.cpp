#include "sim/trace_export.hpp"

#include <array>

namespace hrt::sim {

const char* trace_kind_name(TraceKind kind) {
  switch (kind) {
    case TraceKind::kPin:
      return "pin";
    case TraceKind::kThreadActive:
      return "thread_active";
    case TraceKind::kThreadInactive:
      return "thread_inactive";
    case TraceKind::kIrqEnter:
      return "irq_enter";
    case TraceKind::kIrqExit:
      return "irq_exit";
    case TraceKind::kSchedPass:
      return "sched_pass";
    case TraceKind::kSwitch:
      return "switch";
    case TraceKind::kCustom:
      return "custom";
  }
  return "unknown";
}

void export_csv(const Trace& trace, std::ostream& os) {
  os << "time_ns,cpu,kind,value\n";
  for (const TraceRecord& r : trace.records()) {
    os << r.time << ',' << r.cpu << ',' << trace_kind_name(r.kind) << ','
       << r.value << '\n';
  }
}

void export_pins_vcd(const Trace& trace, std::uint32_t cpu, std::ostream& os,
                     const std::string& module_name) {
  os << "$timescale 1ns $end\n";
  os << "$scope module " << module_name << " $end\n";
  std::array<char, 8> ids{};
  for (int pin = 0; pin < 8; ++pin) {
    ids[static_cast<std::size_t>(pin)] = static_cast<char>('!' + pin);
    os << "$var wire 1 " << ids[static_cast<std::size_t>(pin)] << " pin"
       << pin << " $end\n";
  }
  os << "$upscope $end\n$enddefinitions $end\n";
  os << "$dumpvars\n";
  for (int pin = 0; pin < 8; ++pin) {
    os << '0' << ids[static_cast<std::size_t>(pin)] << '\n';
  }
  os << "$end\n";

  Nanos last_time = -1;
  for (const std::uint32_t i : trace.positions(cpu)) {
    const TraceRecord& r = trace.records()[i];
    if (r.kind != TraceKind::kPin) continue;
    const int pin = static_cast<int>(r.value >> 1);
    const int level = static_cast<int>(r.value & 1);
    if (pin < 0 || pin >= 8) continue;
    if (r.time != last_time) {
      os << '#' << r.time << '\n';
      last_time = r.time;
    }
    os << level << ids[static_cast<std::size_t>(pin)] << '\n';
  }
}

}  // namespace hrt::sim
