// newtop_e2e: one workload of the end-to-end benchmark.
//
//   newtop_e2e --workload W [--seed N] [--seconds S] [--trace 0|1]
//              [--trace-out PATH]
//   newtop_e2e --defect NAME [--seed N] [--seconds S]
//
// Runs the product run (product_run.cpp) and, with --trace 1, the traced
// replay (trace_harness.cpp). --defect runs one of the defect repros
// listed in README.md instead of a benchmark workload. Prints every
// metric with its unit and sample count, then one machine-readable line:
//   RESULT {"correct":..,"attempted":..,"failed":..,"violations":[..],
//           "metrics":{"name":{"value":..,"unit":"..","samples":..}}}
// Exit status: 0 when the oracle passed, 1 when it did not, 2 on bad
// arguments, 3 when the watchdog fired.
#include <malloc.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"

namespace e2e {
namespace {

std::atomic<const char*> g_phase{"start"};

void put(const char* s) {
  std::size_t n = 0;
  while (s[n] != '\0') ++n;
  (void)!::write(STDERR_FILENO, s, n);
}

extern "C" void on_alarm(int) {
  put("newtop_e2e: watchdog: stuck in phase ");
  put(g_phase.load());
  put("\n");
  ::_exit(3);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--workload W | --defect NAME) [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH]\nworkloads:",
               argv0);
  for (const auto& w : kWorkloads) {
    std::fprintf(stderr, " %.*s", static_cast<int>(w.name.size()),
                 w.name.data());
  }
  std::fprintf(stderr, "\ndefects:");
  for (const auto& d : kDefects) {
    std::fprintf(stderr, " %.*s", static_cast<int>(d.name.size()),
                 d.name.data());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

void watchdog_phase(const char* phase, unsigned budget_seconds) {
  g_phase.store(phase);
  ::alarm(budget_seconds);
}

}  // namespace e2e

int main(int argc, char** argv) {
  using namespace e2e;
  std::string workload, trace_out;
  Defect defect = Defect::kNone;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = val == "1";
    } else if (arg == "--trace-out") {
      trace_out = val;
    } else if (arg == "--defect") {
      for (const auto& d : kDefects) {
        if (d.name == val) {
          defect = d.defect;
          workload = d.workload;
        }
      }
      if (defect == Defect::kNone) return usage(argv[0]);
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* base = find_workload(workload);
  // The crash (at kCrashAt of the phase) needs 2s of service after it.
  if (base == nullptr || !(seconds >= 7 && seconds <= 60)) {
    return usage(argv[0]);
  }
  const Workload workload_run = with_defect(*base, defect);
  const Workload* w = &workload_run;

  // One malloc arena, set before any thread exists. With glibc's
  // per-thread arenas, how much freed memory a run keeps depends on which
  // thread freed it, and the same seed's peak RSS moved by +-10 MB; with
  // one arena it follows what the program allocates and keeps.
  mallopt(M_ARENA_MAX, 1);
  ::signal(SIGALRM, on_alarm);
  std::printf("workload %.*s  seed %llu  seconds %g  trace %d\n",
              static_cast<int>(w->name.size()), w->name.data(),
              static_cast<unsigned long long>(seed), seconds, trace ? 1 : 0);
  std::fflush(stdout);
  RunOutput out = run_product(*w, seed, seconds, defect);
  if (trace && out.correct) {
    RunOutput traced = run_traced(*w, seed, trace_out);
    out.correct = out.correct && traced.correct;
    for (auto& v : traced.violations) out.violations.push_back(std::move(v));
    for (auto& m : traced.metrics) out.metrics.push_back(std::move(m));
  }
  ::alarm(0);

  for (const auto& m : out.metrics) {
    std::printf("  %-42s %14.4f %-8s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" (n=%zu)", m.samples);
    std::printf("\n");
  }
  std::printf("  oracle: %s  attempted %llu  failed %llu\n",
              out.correct ? "pass" : "FAIL",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (const auto& v : out.violations) {
    std::printf("  violation: %s\n", v.c_str());
  }

  std::string json = "{\"correct\":";
  json += out.correct ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"violations\":[";
  for (std::size_t i = 0; i < out.violations.size(); ++i) {
    json += (i > 0 ? "," : "") + json_string(out.violations[i]);
  }
  json += "],\"metrics\":{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const auto& m = out.metrics[i];
    json += (i > 0 ? "," : "") + json_string(m.name) + ":{\"value\":" +
            json_number(m.value) + ",\"unit\":" + json_string(m.unit) +
            ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  json += "}}";
  std::printf("RESULT %s\n", json.c_str());
  return out.correct ? 0 : 1;
}
