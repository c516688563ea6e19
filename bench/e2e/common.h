// Shared pieces of the end-to-end benchmark program: the workload table,
// the seeded open-loop schedule, the payload format, the metric record
// and the per-phase watchdog.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/types.h"
#include "util/codec.h"
#include "util/rng.h"

namespace e2e {

inline std::int64_t clock_ns(clockid_t clock) {
  timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Steady (CLOCK_MONOTONIC) nanoseconds; payload due times use it too.
inline std::int64_t now_ns() { return clock_ns(CLOCK_MONOTONIC); }

inline void sleep_until_ns(std::int64_t t) {
  timespec ts;
  ts.tv_sec = t / 1'000'000'000;
  ts.tv_nsec = t % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

struct Workload {
  std::string_view name;
  std::size_t members;
  std::size_t transports;  // shared UdpTransports (one loop thread each)
  newtop::OrderMode mode;
  newtop::DisseminationStrategy dissemination;
  std::size_t payload_bytes;
  double rate;       // fixed-phase arrivals per second (whole group)
  bool ladder;       // a rate ladder follows the fixed phase
  int crash_member;  // stopped (no Leave) at kCrashAt; -1 = none
  // The generator shares the (single) loop thread's CPU and yield-spins
  // there instead of sleeping on a CPU of its own.
  bool shared_cpu;

  // Members are spread over the transports in blocks; a crashed member
  // sits alone on the last transport so stopping it crashes only it.
  std::size_t transport_of(std::size_t member) const {
    if (crash_member >= 0) {
      if (member == static_cast<std::size_t>(crash_member)) {
        return transports - 1;
      }
      return member * (transports - 1) / (members - 1);
    }
    return member * transports / members;
  }
};

// Why each workload exists is recorded in README.md. asym4_1k runs on one
// transport with the generator on the loop's CPU: the forward and echo
// go round one loop without a sleep, and the CPU never idles, so its
// latency is the sequencer path's CPU. Woken across CPUs instead, it
// paid a virtual machine's vCPU wakeups, which moved its p50 between
// 34 and 73us with the host's load. tree32 offers 500 msgs/s: at 1,000
// about one run in ten on 4 vCPUs collapsed into send-backlog drops and
// retransmissions and passed 2 GB of RSS.
inline constexpr Workload kWorkloads[] = {
    {"sym4_mesh", 4, 2, newtop::OrderMode::kSymmetric,
     newtop::DisseminationStrategy::kFullMesh, 64, 8000.0, true, -1, false},
    {"asym4_1k", 4, 1, newtop::OrderMode::kAsymmetric,
     newtop::DisseminationStrategy::kFullMesh, 1024, 2000.0, false, -1, true},
    {"tree32", 32, 3, newtop::OrderMode::kSymmetric,
     newtop::DisseminationStrategy::kTree, 256, 500.0, false, -1, false},
    {"crash5", 5, 3, newtop::OrderMode::kSymmetric,
     newtop::DisseminationStrategy::kFullMesh, 64, 2000.0, false, 4, false},
};

inline const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// Repros of the defects found while sizing the workloads (README.md):
// one workload with one setting changed. Not part of the benchmark.
enum class Defect {
  kNone,
  kZeroCopyLog,  // asym4_1k at 100 msgs/s, zero-copy deliveries
  kDetachHang,   // sym4_mesh, nodes stopped before their busy transports
  kAsym4k,       // asym4_1k with 4 KiB payloads, on 2 transports
  kMesh32,       // tree32 with mesh dissemination at 1,000 msgs/s
  kTree1k,       // tree32 at 1,000 msgs/s
};

struct DefectRepro {
  std::string_view name;
  Defect defect;
  std::string_view workload;
};

inline constexpr DefectRepro kDefects[] = {
    {"zero-copy-log", Defect::kZeroCopyLog, "asym4_1k"},
    {"detach-hang", Defect::kDetachHang, "sym4_mesh"},
    {"asym-4k", Defect::kAsym4k, "asym4_1k"},
    {"mesh32", Defect::kMesh32, "tree32"},
    {"tree32-1k", Defect::kTree1k, "tree32"},
};

inline Workload with_defect(Workload w, Defect d) {
  if (d == Defect::kZeroCopyLog) w.rate = 100;
  if (d == Defect::kAsym4k) {
    w.payload_bytes = 4096;
    w.transports = 2;
    w.shared_cpu = false;
  }
  if (d == Defect::kMesh32) {
    w.dissemination = newtop::DisseminationStrategy::kFullMesh;
    w.rate = 1000;
  }
  if (d == Defect::kTree1k) w.rate = 1000;
  return w;
}

// Rate ladder (sym4_mesh): starts at the fixed rate and multiplies it by
// kLadderFactor every kLadderStepNs, for at most kLadderSteps steps.
inline constexpr int kLadderSteps = 16;
inline constexpr double kLadderFactor = 1.1;
inline constexpr std::int64_t kLadderStepNs = 1'500'000'000;

// The crash comes late in the phase so that most 1s windows, whose
// median is reported, see the five-member group: the four survivors
// send at a higher rate each, which shortens the min-D wait, and a
// median over windows split evenly between the two regimes swings with
// the seed.
inline constexpr double kCrashAt = 0.7;

struct Arrival {
  std::int64_t due_ns;  // relative to the start of the fixed phase
  std::uint32_t sender;
};

// The seeded inputs of one run: Poisson arrival times, the member that
// sends each message (survivors only once a crash is due) and, through
// the message id, the payload bytes. Message ids are arrival indices.
struct Schedule {
  std::vector<Arrival> arrivals;
  std::size_t fixed_count = 0;
  // Ladder step k covers arrivals [step_begin[k], step_begin[k + 1]).
  std::vector<std::size_t> step_begin;
  std::int64_t crash_ns = -1;  // relative; -1 = no crash
};

inline Schedule make_schedule(const Workload& w, std::uint64_t seed,
                              double seconds, bool with_ladder) {
  Schedule s;
  newtop::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x51ed27);
  const auto fixed_ns = static_cast<std::int64_t>(seconds * 1e9);
  if (w.crash_member >= 0) {
    s.crash_ns = static_cast<std::int64_t>(kCrashAt * static_cast<double>(
                                                          fixed_ns));
  }
  const auto draw_sender = [&](std::int64_t due) {
    if (s.crash_ns >= 0 && due >= s.crash_ns) {
      auto p = static_cast<std::uint32_t>(rng.next_below(w.members - 1));
      return p >= static_cast<std::uint32_t>(w.crash_member) ? p + 1 : p;
    }
    return static_cast<std::uint32_t>(rng.next_below(w.members));
  };
  const auto fill = [&](std::int64_t begin, std::int64_t end, double rate) {
    double t = static_cast<double>(begin);
    for (;;) {
      t += rng.next_exponential(1e9 / rate);
      const auto due = static_cast<std::int64_t>(t);
      if (due >= end) break;
      s.arrivals.push_back({due, draw_sender(due)});
    }
  };
  fill(0, fixed_ns, w.rate);
  s.fixed_count = s.arrivals.size();
  if (with_ladder && w.ladder) {
    double rate = w.rate;
    for (int k = 0; k < kLadderSteps; ++k) {
      s.step_begin.push_back(s.arrivals.size());
      const std::int64_t begin = fixed_ns + k * kLadderStepNs;
      fill(begin, begin + kLadderStepNs, rate);
      rate *= kLadderFactor;
    }
    s.step_begin.push_back(s.arrivals.size());
  }
  return s;
}

inline double ladder_rate(const Workload& w, int step) {
  return w.rate * std::pow(kLadderFactor, step);
}

// Payload: [kind u8][3 pad][id u32le][due_ns i64le][filler]. The filler
// is a SplitMix64 stream keyed by (seed, id), so any delivered payload
// can be checked byte for byte without keeping the sent copy.
inline constexpr std::uint8_t kKindMessage = 1;
inline constexpr std::uint8_t kKindProbe = 2;
inline constexpr std::size_t kHeaderBytes = 16;

struct Header {
  std::uint8_t kind = 0;
  std::uint32_t id = 0;
  std::int64_t due_ns = 0;
};

inline std::uint64_t filler_key(std::uint64_t seed, std::uint32_t id) {
  return seed * 0xbf58476d1ce4e5b9ULL ^ (std::uint64_t{id} << 1);
}

inline newtop::util::Bytes make_payload(std::size_t size, std::uint64_t seed,
                                        const Header& h) {
  newtop::util::Bytes b(std::max(size, kHeaderBytes));
  b[0] = h.kind;
  std::memcpy(b.data() + 4, &h.id, 4);
  std::memcpy(b.data() + 8, &h.due_ns, 8);
  newtop::util::SplitMix64 sm(filler_key(seed, h.id));
  for (std::size_t i = kHeaderBytes; i < b.size(); i += 8) {
    const std::uint64_t v = sm.next();
    std::memcpy(b.data() + i, &v, std::min<std::size_t>(8, b.size() - i));
  }
  return b;
}

inline std::optional<Header> parse_header(const std::uint8_t* p,
                                          std::size_t n) {
  if (n < kHeaderBytes) return std::nullopt;
  Header h;
  h.kind = p[0];
  std::memcpy(&h.id, p + 4, 4);
  std::memcpy(&h.due_ns, p + 8, 8);
  return h;
}

inline bool payload_matches(const std::uint8_t* p, std::size_t n,
                            std::size_t size, std::uint64_t seed,
                            const Header& h) {
  const newtop::util::Bytes want = make_payload(size, seed, h);
  return n == want.size() && std::memcmp(p, want.data(), n) == 0;
}

// q in [0, 1]; nearest-rank on a copy. NaN when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  const auto k = static_cast<std::size_t>(
      std::min<double>(static_cast<double>(v.size()) - 1,
                       std::ceil(q * static_cast<double>(v.size())) - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t samples = 0;  // timings: how many samples back the value
};

struct RunOutput {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> violations;

  void add(std::string name, double value, std::string unit,
           std::size_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void violation(std::string what) {
    correct = false;
    violations.push_back(std::move(what));
  }
};

// The product run: UdpNodes over loopback sockets, open-loop generator,
// oracle. Produces every end-to-end metric and the product-side layer
// counters (product_run.cpp).
RunOutput run_product(const Workload& w, std::uint64_t seed, double seconds,
                      Defect defect);

// The traced replay: the workload's fixed phase through one thread of
// Routers and Endpoints with spans around every layer call, run once
// with spans off and once on (trace_harness.cpp). Writes the Chrome
// trace to trace_path when it is not empty.
RunOutput run_traced(const Workload& w, std::uint64_t seed,
                     const std::string& trace_path);

// Per-phase watchdog: SIGALRM fires if a phase outlives its budget,
// prints the phase name and exits with status 3 (a failed run). It runs
// in the signal handler, so the process needs no extra thread.
void watchdog_phase(const char* phase, unsigned budget_seconds);

}  // namespace e2e
