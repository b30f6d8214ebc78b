#include "rt/report.hpp"

#include <iomanip>
#include <vector>

namespace hrt::rt {

namespace {

const char* class_name(ConstraintClass cls) {
  switch (cls) {
    case ConstraintClass::kAperiodic:
      return "aperiodic";
    case ConstraintClass::kPeriodic:
      return "periodic";
    case ConstraintClass::kSporadic:
      return "sporadic";
  }
  return "?";
}

const char* state_name(nk::Thread::State s) {
  switch (s) {
    case nk::Thread::State::kReady:
      return "ready";
    case nk::Thread::State::kRunning:
      return "running";
    case nk::Thread::State::kSleeping:
      return "sleeping";
    case nk::Thread::State::kExited:
      return "exited";
    case nk::Thread::State::kPooled:
      return "pooled";
  }
  return "?";
}

}  // namespace

void print_cpu_report(System& sys, std::ostream& os,
                      const ReportOptions& opt) {
  // Per-CPU deadline misses, aggregated from the live thread table (cheap,
  // and available whether or not telemetry is enabled).
  std::vector<std::uint64_t> misses(sys.kernel().num_cpus(), 0);
  for (const nk::Thread* t : sys.kernel().live_threads()) {
    if (t->cpu < misses.size()) misses[t->cpu] += t->rt.misses;
  }
  os << "cpu   passes  timer   kick  switch  adm-ok adm-rej  util eff-cap "
        "  miss   pend rtq  apq  pass-cyc\n";
  for (std::uint32_t c = 0; c < sys.kernel().num_cpus(); ++c) {
    auto& sched = sys.sched(c);
    const auto& st = sched.stats();
    const auto& oh = sys.kernel().executor(c).overheads();
    if (opt.skip_quiet_cpus && st.passes < 2) continue;
    os << std::setw(3) << c << std::setw(9) << st.passes << std::setw(7)
       << st.timer_passes << std::setw(7) << st.kick_passes << std::setw(8)
       << oh.switches << std::setw(8) << st.admissions_ok << std::setw(8)
       << st.admissions_rejected << std::setw(7) << std::fixed
       << std::setprecision(2) << sched.admitted_utilization() << std::setw(8)
       << sched.effective_rt_availability() << std::setw(7) << misses[c]
       << std::setw(6) << sched.pending_count() << std::setw(5)
       << sched.rt_run_count() << std::setw(5) << sched.nonrt_count()
       << std::setw(10) << std::setprecision(0) << oh.pass.mean() << "\n";
  }
}

void print_thread_report(System& sys, std::ostream& os,
                         const ReportOptions& opt) {
  const bool tel_on = sys.telemetry().enabled();
  os << "id    name           cpu class      state     arriv   compl  "
        "miss     cpu-ms  disp";
  if (tel_on) os << "  slo-burn";
  os << "\n";
  sys.sync_accounting();
  for (const nk::Thread* t : sys.kernel().live_threads()) {
    if (t->is_idle && !opt.include_idle_threads) continue;
    if (t->state == nk::Thread::State::kPooled &&
        !opt.include_pooled_threads) {
      continue;
    }
    os << std::setw(4) << t->id << "  " << std::setw(13) << std::left
       << t->name << std::right << std::setw(4) << t->cpu << " "
       << std::setw(10) << std::left << class_name(t->constraints.cls)
       << std::setw(9) << state_name(t->state) << std::right << std::setw(8)
       << t->rt.arrivals << std::setw(8) << t->rt.completions << std::setw(6)
       << t->rt.misses << std::setw(11) << std::fixed << std::setprecision(3)
       << static_cast<double>(t->total_cpu_ns) / 1e6 << std::setw(6)
       << t->dispatches;
    if (tel_on) {
      const auto burn =
          sys.telemetry().slo().burn_rate_for(t->name, sys.engine().now());
      if (burn.has_value()) {
        os << std::setw(10) << std::fixed << std::setprecision(2) << *burn;
      } else {
        os << std::setw(10) << "-";
      }
    }
    os << "\n";
  }
}

void print_audit_report(System& sys, std::ostream& os) {
  const audit::Auditor& aud = sys.auditor();
  if (!aud.enabled()) return;
  os << "audit: " << aud.checks_run() << " checks, "
     << aud.total_violations() << " violations\n";
  for (const audit::Violation& v : aud.violations()) {
    os << "  [" << audit::invariant_name(v.invariant) << "] cpu " << v.cpu
       << " t=" << v.time << "ns: " << v.detail << "\n";
  }
  const std::uint64_t dropped =
      aud.total_violations() - aud.violations().size();
  if (dropped > 0) os << "  (+" << dropped << " more not recorded)\n";
}

void print_telemetry_report(System& sys, std::ostream& os) {
  telemetry::Telemetry& tel = sys.telemetry();
  if (!tel.enabled()) return;
  const telemetry::FlightRecorder& rec = tel.recorder();
  os << "telemetry: " << rec.written() << " events recorded, " << rec.dropped()
     << " dropped";
  if (rec.sampled_cost_ns().count() > 0) {
    os << ", ~" << std::fixed << std::setprecision(0)
       << rec.sampled_cost_ns().mean() << " host-ns/record";
  }
  os << "\n";
  os << "cpu   passes switch   kick  tm-arm  compl  miss mig-in mig-out "
        "shed  span-ns eff-cap\n";
  using telemetry::EventKind;
  for (std::uint32_t c = 0; c < tel.metrics().num_cpus(); ++c) {
    const telemetry::CpuMetrics& m = tel.metrics().cpu(c);
    const auto n = [&](EventKind k) { return rec.count(c, k); };
    if (n(EventKind::kPass) == 0 && m.completions == 0) continue;
    os << std::setw(3) << c << std::setw(9) << n(EventKind::kPass)
       << std::setw(7) << n(EventKind::kSwitch) << std::setw(7)
       << n(EventKind::kKick) << std::setw(8) << n(EventKind::kTimerArm)
       << std::setw(7) << m.completions << std::setw(6) << m.misses
       << std::setw(7) << rec.moved_in(c) << std::setw(8)
       << n(EventKind::kMigrateOut) << std::setw(5) << n(EventKind::kShed)
       << std::setw(9) << std::fixed
       << std::setprecision(0) << m.pass_span_ns.mean() << std::setw(8)
       << std::setprecision(2) << m.effective_capacity << "\n";
  }
  if (tel.slo().size() > 0) {
    os << "slo            compl   miss  burn  state  alerts\n";
    for (const telemetry::SloStatus& st : tel.slo().status(sys.engine().now())) {
      os << std::setw(13) << std::left << st.spec->name << std::right
         << std::setw(8) << st.completions << std::setw(7) << st.misses
         << std::setw(6) << std::fixed << std::setprecision(2) << st.burn_rate
         << std::setw(7) << (st.alerting ? "ALERT" : "ok") << std::setw(8)
         << st.alerts << "\n";
    }
  }
}

void print_report(System& sys, std::ostream& os, const ReportOptions& opt) {
  os << "=== machine: " << sys.machine().spec().name << ", "
     << sys.machine().num_cpus() << " CPUs @ " << std::fixed
     << std::setprecision(1) << sys.machine().spec().freq.ghz()
     << " GHz ===\n";
  const hw::SmiStats smi = sys.machine().smi().stats();
  os << "now=" << sys.engine().now() << " ns  events="
     << sys.engine().events_executed() << "  smis=" << smi.count << " (stole "
     << smi.total_stolen_ns / 1000 << " us)\n\n";
  print_cpu_report(sys, os, opt);
  os << "\n";
  print_thread_report(sys, os, opt);
  if (sys.auditor().enabled()) {
    os << "\n";
    print_audit_report(sys, os);
  }
  if (sys.telemetry().enabled()) {
    os << "\n";
    print_telemetry_report(sys, os);
  }
}

}  // namespace hrt::rt
