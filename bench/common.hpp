// Shared helpers for the figure-regeneration benchmarks.
//
// Every bench binary is self-contained: it prints the paper figure it
// regenerates, the rows/series of that figure, and a short "shape check"
// comparing the qualitative result with the paper's claim.  Pass --full for
// paper-scale sweeps; the default is a quick mode suitable for CI.
//
// Parallel sweeps: parameter points in a figure sweep are independent
// simulations, so `parallel_for_index` spreads them across plain host
// threads with dynamic index claiming.  Each point runs with the same seed
// it would get serially and results land in an order-preserving array, so
// output is bit-identical to a `--threads=1` run.
//
// Machine-readable output: pass --json=PATH to binaries that support it to
// get a JSON record of the run (see docs/PERFORMANCE.md for the schema and
// bench/run_perf.sh for the single command that regenerates the committed
// perf snapshots).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "rt/system.hpp"

namespace bench {

struct Args {
  bool full = false;
  std::uint64_t seed = 42;
  unsigned threads = 0;     // 0 = one worker per host core
  std::string json;         // --json=PATH: machine-readable results
};

inline Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) a.full = true;
    if (std::strncmp(argv[i], "--seed=", 7) == 0) {
      a.seed = std::strtoull(argv[i] + 7, nullptr, 10);
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      a.threads = static_cast<unsigned>(
          std::strtoul(argv[i] + 10, nullptr, 10));
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) a.json = argv[i] + 7;
  }
  if (a.threads == 0) {
    a.threads = std::max(1u, std::thread::hardware_concurrency());
  }
  return a;
}

inline void header(const char* fig, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", fig);
  std::printf("paper: %s\n", claim);
  std::printf("==============================================================\n");
}

inline double to_cycles(const hrt::hw::MachineSpec& spec, hrt::sim::Nanos ns) {
  return static_cast<double>(spec.freq.ns_to_cycles(ns));
}

/// PASS/FAIL line for the qualitative shape check.
inline void shape_check(const char* what, bool ok) {
  std::printf("[shape %s] %s\n", ok ? "PASS" : "FAIL", what);
}

/// Monotonic wall-clock stopwatch.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Run fn(0) .. fn(n-1) on up to `threads` host threads (the caller is one
/// of them), each claiming the next unclaimed index.  Blocks until every
/// helper has joined.  A worker whose fn throws stops claiming; the first
/// exception is rethrown on the caller's thread after the join.
template <typename Fn>
void parallel_for_index(std::size_t n, unsigned threads, Fn&& fn) {
  if (threads <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr error;
  auto work = [&] {
    try {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    } catch (...) {
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!error) error = std::current_exception();
    }
  };
  {
    // jthreads join on destruction, also if starting a later one throws.
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < std::min<std::size_t>(threads, n); ++t) {
      helpers.emplace_back(work);
    }
    work();
  }
  if (error) std::rethrow_exception(error);
}

/// Provenance object stamped into every BENCH_*.json by
/// JsonObject::write_file: host core count, compiler, the effective build
/// flags (HRT_BUILD_FLAGS, injected by bench/CMakeLists.txt), and the git
/// SHA that bench/run_perf.sh exports as HRT_GIT_SHA.  Snapshots from
/// different machines or builds are then self-describing
/// (docs/PERFORMANCE.md).
inline std::string env_json() {
  std::string out = "{\"host_cores\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"compiler\": \"";
#if defined(__clang__)
  out += __VERSION__;  // clang's __VERSION__ already names the compiler
#elif defined(__GNUC__)
  out += "gcc ";
  out += __VERSION__;
#else
  out += "unknown";
#endif
  out += "\", \"build_flags\": \"";
#ifdef HRT_BUILD_FLAGS
  out += HRT_BUILD_FLAGS;
#endif
  out += "\", \"git_sha\": \"";
  const char* sha = std::getenv("HRT_GIT_SHA");
  out += (sha != nullptr && *sha != '\0') ? sha : "unknown";
  out += "\"}";
  return out;
}

/// Minimal JSON object writer: flat string/number fields plus raw nested
/// values.  Enough for the bench snapshot schema; not a general serializer.
class JsonObject {
 public:
  void field(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    raw(key, buf);
  }
  void field(const std::string& key, std::uint64_t value) {
    raw(key, std::to_string(value));
  }
  void field(const std::string& key, const std::string& value) {
    raw(key, "\"" + value + "\"");
  }
  /// `value` must already be valid JSON (e.g. a nested object).
  void raw(const std::string& key, const std::string& value) {
    parts_.push_back("\"" + key + "\": " + value);
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (i > 0) out += ", ";
      out += parts_[i];
    }
    out += "}";
    return out;
  }

  /// Writes the object with an "env" provenance field appended (see
  /// env_json()); every committed BENCH_*.json records where it came from.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::string s = str();
    s.pop_back();  // drop the closing '}'
    if (!parts_.empty()) s += ", ";
    s += "\"env\": " + env_json() + "}\n";
    std::fwrite(s.data(), 1, s.size(), f);
    std::fclose(f);
    return true;
  }

 private:
  std::vector<std::string> parts_;
};

}  // namespace bench
