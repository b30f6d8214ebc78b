#include "telemetry/export.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <string>

#include "sim/trace.hpp"
#include "telemetry/telemetry.hpp"

namespace hrt::telemetry {

namespace {

/// Chrome ts is in microseconds; keep 3 decimals so distinct ns timestamps
/// stay distinct (exact value rides in args.t).
void write_ts_us(std::ostream& os, sim::Nanos t) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(t / 1000),
                static_cast<long long>(t % 1000));
  os << buf;
}

void write_instant(std::ostream& os, const Record& r, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"(    {"name":")" << event_kind_name(r.kind) << R"(","ph":"i","ts":)";
  write_ts_us(os, r.time);
  os << R"(,"pid":)" << (r.cpu + 1) << R"(,"tid":)" << r.tid
     << R"(,"s":"t","args":{"t":)" << r.time << R"(,"arg":)" << r.arg
     << R"(,"gen":)" << static_cast<int>(r.gen) << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const std::vector<Record>& events,
                        const Telemetry* tel) {
  os << "{\n  \"traceEvents\": [\n";
  bool first = true;
  for (const Record& r : events) write_instant(os, r, first);

  // Derive "X" run spans per CPU from consecutive switch records: thread T
  // runs from its dispatch until the next dispatch on that CPU.
  const std::uint32_t max_cpu = [&] {
    std::uint32_t m = 0;
    for (const Record& r : events) m = std::max<std::uint32_t>(m, r.cpu);
    return m;
  }();
  for (std::uint32_t cpu = 0; cpu <= max_cpu; ++cpu) {
    const Record* open = nullptr;
    for (const Record& r : events) {
      if (r.cpu != cpu || r.kind != EventKind::kSwitch) continue;
      if (open != nullptr && open->tid != 0) {
        if (!first) os << ",\n";
        first = false;
        os << R"(    {"name":"run t)" << open->tid << R"(","ph":"X","ts":)";
        write_ts_us(os, open->time);
        os << R"(,"dur":)";
        write_ts_us(os, r.time - open->time);
        os << R"(,"pid":)" << (cpu + 1) << R"(,"tid":)" << open->tid
           << R"(,"args":{"t":)" << open->time << "}}";
      }
      open = &r;
    }
  }

  if (tel != nullptr) {
    const MetricsRegistry& m = tel->metrics();
    sim::Nanos last = 0;
    for (const Record& r : events) last = std::max(last, r.time);
    for (std::uint32_t cpu = 0; cpu < m.num_cpus(); ++cpu) {
      if (!first) os << ",\n";
      first = false;
      os << R"(    {"name":"effective-capacity","ph":"C","ts":)";
      write_ts_us(os, last);
      os << R"(,"pid":)" << (cpu + 1) << R"(,"tid":0,"args":{"cap":)"
         << m.cpu(cpu).effective_capacity << "}}";
    }
  }

  os << "\n  ],\n  \"displayTimeUnit\": \"ns\"\n}\n";
}

void write_chrome_trace(std::ostream& os, const Telemetry& tel) {
  write_chrome_trace(os, tel.recorder().snapshot_all(), &tel);
}

namespace {

/// Append the recorder analogue of `r`, if it has one.
void adapt(const sim::TraceRecord& r, std::vector<Record>& out) {
  Record rec;
  rec.time = r.time;
  rec.cpu = static_cast<std::uint16_t>(r.cpu);
  switch (r.kind) {
    case sim::TraceKind::kSwitch:
      rec.kind = EventKind::kSwitch;
      rec.tid = static_cast<std::uint32_t>(r.value);
      break;
    case sim::TraceKind::kSchedPass:
      rec.kind = EventKind::kPass;
      rec.arg = r.value;
      break;
    case sim::TraceKind::kIrqEnter:
      rec.kind = EventKind::kKick;
      rec.arg = r.value;  // vector
      break;
    default:
      return;  // pin / active / inactive / exit: no recorder analogue
  }
  out.push_back(rec);
}

}  // namespace

std::vector<Record> from_sim_trace(const sim::Trace& trace,
                                   std::uint32_t cpu) {
  std::vector<Record> out;
  if (cpu == ~0u) {
    for (const sim::TraceRecord& r : trace.records()) adapt(r, out);
    return out;
  }
  for (const std::uint32_t i : trace.positions(cpu)) {
    adapt(trace.records()[i], out);
  }
  return out;
}

namespace {

/// Find `"key":` in `obj` and return the character index just past the
/// colon, or npos.
std::size_t find_key(std::string_view obj, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t p = obj.find(pat);
  return p == std::string_view::npos ? p : p + pat.size();
}

std::string get_string(std::string_view obj, std::string_view key) {
  std::size_t p = find_key(obj, key);
  if (p == std::string_view::npos) return {};
  while (p < obj.size() && (obj[p] == ' ' || obj[p] == '\t')) ++p;
  if (p >= obj.size() || obj[p] != '"') return {};
  ++p;
  const std::size_t e = obj.find('"', p);
  if (e == std::string_view::npos) return {};
  return std::string(obj.substr(p, e - p));
}

double get_number(std::string_view obj, std::string_view key, double def) {
  std::size_t p = find_key(obj, key);
  if (p == std::string_view::npos) return def;
  while (p < obj.size() && (obj[p] == ' ' || obj[p] == '\t')) ++p;
  std::size_t e = p;
  while (e < obj.size() &&
         (std::isdigit(static_cast<unsigned char>(obj[e])) || obj[e] == '-' ||
          obj[e] == '+' || obj[e] == '.' || obj[e] == 'e' || obj[e] == 'E')) {
    ++e;
  }
  double v = def;
  std::from_chars(obj.data() + p, obj.data() + e, v);
  return v;
}

}  // namespace

ParsedTrace parse_chrome_trace(std::string_view json) {
  ParsedTrace out;
  const std::size_t key = json.find("\"traceEvents\"");
  if (key == std::string_view::npos) {
    out.error = "no traceEvents key";
    return out;
  }
  const std::size_t open = json.find('[', key);
  if (open == std::string_view::npos) {
    out.error = "no traceEvents array";
    return out;
  }
  std::size_t i = open + 1;
  int array_depth = 1;
  while (i < json.size() && array_depth > 0) {
    const char c = json[i];
    if (c == ']') {
      --array_depth;
      ++i;
    } else if (c == '[') {
      ++array_depth;
      ++i;
    } else if (c == '{') {
      // Balanced-brace scan of one event object (no nested strings with
      // braces in our exporter's output).
      int depth = 0;
      std::size_t j = i;
      for (; j < json.size(); ++j) {
        if (json[j] == '{') ++depth;
        if (json[j] == '}' && --depth == 0) break;
      }
      if (j >= json.size()) {
        out.error = "unbalanced object";
        return out;
      }
      const std::string_view obj = json.substr(i, j - i + 1);
      ParsedEvent ev;
      ev.name = get_string(obj, "name");
      ev.phase = get_string(obj, "ph");
      ev.ts_us = get_number(obj, "ts", 0.0);
      ev.pid = static_cast<std::int64_t>(get_number(obj, "pid", 0.0));
      ev.tid = static_cast<std::int64_t>(get_number(obj, "tid", 0.0));
      ev.dur_us = get_number(obj, "dur", 0.0);
      ev.t_ns = static_cast<std::int64_t>(get_number(obj, "t", 0.0));
      if (ev.name.empty() || ev.phase.empty()) {
        out.error = "event missing name/ph";
        return out;
      }
      out.events.push_back(std::move(ev));
      i = j + 1;
    } else {
      ++i;
    }
  }
  if (array_depth != 0) {
    out.error = "unterminated traceEvents array";
    return out;
  }
  out.ok = true;
  return out;
}

namespace {

/// The metrics document is built in one string and written once.  Numbers
/// print exactly as a default-formatted std::ostream prints them: integers
/// in decimal, doubles as %.6g (std::to_chars with the general format and
/// precision 6 is specified as printf's %.6g).
class JsonText {
 public:
  JsonText& operator<<(std::string_view s) {
    out_.append(s);
    return *this;
  }
  JsonText& operator<<(double v) {
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, v,
                                 std::chars_format::general, 6);
    out_.append(buf, r.ptr);
    return *this;
  }
  template <std::integral T>
  JsonText& operator<<(T v) {
    static_assert(sizeof(T) > 1,
                  "std::ostream prints one-byte integers as characters");
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, r.ptr);
    return *this;
  }

  /// The body of a JSON string: quotes, backslashes and control characters
  /// escaped.
  JsonText& escaped(std::string_view s) {
    for (const char c : s) {
      switch (c) {
        case '"':
          out_ += "\\\"";
          break;
        case '\\':
          out_ += "\\\\";
          break;
        case '\n':
          out_ += "\\n";
          break;
        case '\t':
          out_ += "\\t";
          break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            constexpr char kHex[] = "0123456789abcdef";
            out_ += "\\u00";
            out_ += kHex[(c >> 4) & 0xF];
            out_ += kHex[c & 0xF];
          } else {
            out_ += c;
          }
      }
    }
    return *this;
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  std::string out_;
};

void write_log_hist(JsonText& js, const LogHistogram& h) {
  js << "{\"count\": " << h.total() << ", \"min\": " << h.min()
     << ", \"mean\": " << h.mean() << ", \"p50\": " << h.quantile(0.50)
     << ", \"p90\": " << h.quantile(0.90) << ", \"p99\": " << h.quantile(0.99)
     << ", \"max\": " << h.max() << "}";
}

}  // namespace

void write_metrics_json(std::ostream& out, const Telemetry& tel,
                        sim::Nanos now) {
  JsonText js;
  const MetricsRegistry& m = tel.metrics();
  const FlightRecorder& rec = tel.recorder();
  js << "{\n  \"schema\": \"hrt-metrics-v1\",\n";
  js << "  \"now_ns\": " << now << ",\n";
  js << "  \"cpus\": [\n";
  for (std::uint32_t c = 0; c < m.num_cpus(); ++c) {
    const CpuMetrics& cm = m.cpu(c);
    const auto n = [&](EventKind k) { return rec.count(c, k); };
    js << "    {\"cpu\": " << c << ", \"passes\": " << n(EventKind::kPass)
       << ", \"switches\": " << n(EventKind::kSwitch)
       << ", \"kicks\": " << n(EventKind::kKick)
       << ", \"timer_arms\": " << n(EventKind::kTimerArm)
       << ", \"admits_ok\": " << n(EventKind::kAdmitOk)
       << ", \"admits_rejected\": " << n(EventKind::kAdmitReject)
       << ", \"completions\": " << cm.completions
       << ", \"misses\": " << cm.misses
       << ", \"migrations_in\": " << rec.moved_in(c)
       << ", \"migrations_out\": " << n(EventKind::kMigrateOut)
       << ", \"sheds\": " << n(EventKind::kShed)
       << ", \"restores\": " << n(EventKind::kRestore)
       << ", \"pass_span_ns\": {\"count\": " << cm.pass_span_ns.count()
       << ", \"mean\": " << cm.pass_span_ns.mean()
       << ", \"max\": " << cm.pass_span_ns.max() << "}"
       << ", \"effective_capacity\": " << cm.effective_capacity << "}"
       << (c + 1 < m.num_cpus() ? ",\n" : "\n");
  }
  js << "  ],\n";

  js << "  \"threads\": [\n";
  const auto threads = m.threads_sorted();
  for (std::size_t i = 0; i < threads.size(); ++i) {
    const ThreadMetrics& tm = *threads[i];
    js << "    {\"tid\": " << tm.tid << ", \"name\": \"";
    js.escaped(tm.name)
        << "\", \"completions\": " << tm.completions
        << ", \"misses\": " << tm.misses << ", \"slack_ns\": ";
    write_log_hist(js, tm.slack_ns);
    js << ", \"lateness_ns\": ";
    write_log_hist(js, tm.lateness_ns);
    js << "}" << (i + 1 < threads.size() ? ",\n" : "\n");
  }
  js << "  ],\n";
  js << "  \"threads_dropped\": " << m.threads_dropped() << ",\n";

  js << "  \"slos\": [\n";
  const auto slos = tel.slo().status(now);
  for (std::size_t i = 0; i < slos.size(); ++i) {
    const SloStatus& s = slos[i];
    js << "    {\"name\": \"";
    js.escaped(s.spec->name) << "\", \"thread_match\": \"";
    js.escaped(s.spec->thread_match)
        << "\", \"miss_budget\": " << s.spec->miss_budget
        << ", \"window_ns\": " << s.spec->window_ns
        << ", \"completions\": " << s.completions
        << ", \"misses\": " << s.misses << ", \"burn_rate\": " << s.burn_rate
        << ", \"alerting\": " << (s.alerting ? "true" : "false")
        << ", \"alerts\": " << s.alerts << "}"
        << (i + 1 < slos.size() ? ",\n" : "\n");
  }
  js << "  ],\n";

  js << "  \"recorder\": {\"written\": " << rec.written()
     << ", \"dropped\": " << rec.dropped()
     << ", \"ring_capacity\": "
     << (rec.num_cpus() > 0 ? rec.ring(0).capacity() : 0)
     << ", \"sampled_cost_ns\": {\"samples\": "
     << rec.sampled_cost_ns().count()
     << ", \"mean\": " << rec.sampled_cost_ns().mean() << "}}\n";
  js << "}\n";
  out.write(js.str().data(), static_cast<std::streamsize>(js.str().size()));
}

}  // namespace hrt::telemetry
