// Experiment E7 (§4.1): symmetric total-order delivery latency.
//
// The symmetric protocol's delivery latency is governed by how fast D
// advances: under load every member's traffic advances it; under silence
// the time-silence interval ω sets the floor (a message waits ~ω for the
// quietest member's null). Series:
//   - latency vs group size n (busy senders)
//   - latency vs ω (single busy sender, quiet others)
//   - throughput-style batch delivery vs n
//   - open-loop latency and null cost under round-robin load (gated)
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"

namespace {

using namespace newtop;
using namespace newtop::benchutil;

// Latency vs group size with all members periodically chattering.
void BM_SymLatencyVsGroupSize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Samples agg;
  for (auto _ : state) {
    SimWorld w(default_world(n));
    const auto members = all_members(n);
    w.create_group(1, members);
    w.run_for(200 * kMillisecond);
    auto s = measure_delivery_latency(w, 1, members, 20,
                                      /*gap=*/5 * kMillisecond);
    for (std::uint64_t i = 0; i < s.count(); ++i) {
    }
    agg.add(s.mean());
  }
  state.counters["lat_ms_mean"] = agg.mean();
}
BENCHMARK(BM_SymLatencyVsGroupSize)->Arg(3)->Arg(5)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

// Latency vs the time-silence interval ω: one busy sender, quiet peers.
// The paper's design predicts latency ~ network + O(ω).
void BM_SymLatencyVsOmega(benchmark::State& state) {
  const auto omega_ms = static_cast<sim::Duration>(state.range(0));
  util::Samples agg;
  for (auto _ : state) {
    WorldConfig cfg = default_world(5);
    cfg.host.endpoint.omega = omega_ms * kMillisecond;
    cfg.host.endpoint.omega_big = 20 * omega_ms * kMillisecond;
    SimWorld w(cfg);
    const auto members = all_members(5);
    w.create_group(1, members);
    w.run_for(200 * kMillisecond);
    // Only P0 sends; everyone else stays quiet between nulls.
    util::Samples lat;
    for (int i = 0; i < 15; ++i) {
      const std::string payload = "o" + std::to_string(i);
      const sim::Time t0 = w.now();
      w.multicast(0, 1, payload);
      const bool ok = w.run_until_pred(
          [&] {
            const auto d = w.process(4).delivered_strings(1);
            return !d.empty() && d.back() == payload;
          },
          w.now() + 60 * kSecond);
      if (ok) lat.add(static_cast<double>(w.now() - t0) / kMillisecond);
      w.run_for(3 * omega_ms * kMillisecond);  // let the group go quiet
    }
    agg.add(lat.mean());
  }
  state.counters["lat_ms_mean"] = agg.mean();
  state.counters["omega_ms"] = static_cast<double>(omega_ms);
}
BENCHMARK(BM_SymLatencyVsOmega)->Arg(10)->Arg(25)->Arg(50)->Arg(100)->Arg(200)
    ->Unit(benchmark::kMillisecond);

// Batch completion: time for a burst of B messages from every member to be
// delivered everywhere, per group size (throughput proxy).
void BM_SymBatchCompletion(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const int kBurst = 10;
  util::Samples agg;
  for (auto _ : state) {
    SimWorld w(default_world(n));
    const auto members = all_members(n);
    w.create_group(1, members);
    w.run_for(200 * kMillisecond);
    const sim::Time t0 = w.now();
    for (int b = 0; b < kBurst; ++b) {
      for (ProcessId p : members) {
        w.multicast(p, 1, "b" + std::to_string(b) + "p" + std::to_string(p));
      }
    }
    const std::size_t expect = kBurst * members.size();
    const bool ok = w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            if (w.process(p).delivered_strings(1).size() < expect)
              return false;
          }
          return true;
        },
        w.now() + 120 * kSecond);
    if (ok) {
      agg.add(static_cast<double>(w.now() - t0) / kMillisecond);
    }
  }
  state.counters["batch_ms"] = agg.mean();
  state.counters["msgs"] = static_cast<double>(kBurst) * static_cast<double>(n);
}
BENCHMARK(BM_SymBatchCompletion)->Arg(3)->Arg(5)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMillisecond);

// Null-message overhead: protocol traffic with zero application load, per
// ω — the cost of the time-silence mechanism (§4.1 discussion).
void BM_SymNullOverheadVsOmega(benchmark::State& state) {
  const auto omega_ms = static_cast<sim::Duration>(state.range(0));
  double nulls_per_proc_per_sec = 0;
  for (auto _ : state) {
    WorldConfig cfg = default_world(5);
    cfg.host.endpoint.omega = omega_ms * kMillisecond;
    cfg.host.endpoint.omega_big = 20 * omega_ms * kMillisecond;
    SimWorld w(cfg);
    w.create_group(1, all_members(5));
    const auto before = w.ep(0).stats().nulls_sent;
    w.run_for(10 * kSecond);
    const auto after = w.ep(0).stats().nulls_sent;
    nulls_per_proc_per_sec = static_cast<double>(after - before) / 10.0;
  }
  state.counters["nulls_per_proc_per_s"] = nulls_per_proc_per_sec;
  state.counters["omega_ms"] = static_cast<double>(omega_ms);
}
BENCHMARK(BM_SymNullOverheadVsOmega)->Arg(10)->Arg(25)->Arg(50)->Arg(100)
    ->Arg(200)->Unit(benchmark::kMillisecond);

// Open-loop load: 4 members multicast round-robin, one message every
// 500 µs of virtual time, over 20-100 µs links. Each member's own sends
// come 2 ms apart, so without owed nulls a message waits for the other
// three members' next sends (~1.5 ms); with them, the last member it
// waits on answers at once. Reports send-to-last-delivery latency and
// the nulls the whole group sent per message, from the first send until
// every member delivered the last one. Virtual time is deterministic, so
// the BENCH_JSON line is identical on every run.
void BM_SymLoadedRoundRobin(benchmark::State& state) {
  constexpr std::size_t kMembers = 4;
  constexpr int kMessages = 2000;
  constexpr sim::Duration kGap = 500 * sim::kMicrosecond;
  util::Samples lat_ms;
  double nulls_per_msg = 0;
  for (auto _ : state) {
    WorldConfig cfg = default_world(kMembers);
    cfg.network.latency =
        sim::LatencyModel::uniform(20 * sim::kMicrosecond,
                                   100 * sim::kMicrosecond);
    SimWorld w(cfg);
    const auto members = all_members(kMembers);
    w.create_group(1, members);
    w.run_for(200 * kMillisecond);
    auto total_nulls = [&] {
      std::uint64_t n = 0;
      for (ProcessId p : members) n += w.ep(p).stats().nulls_sent;
      return n;
    };
    const std::uint64_t nulls_before = total_nulls();
    std::vector<sim::Time> sent_at(kMessages);
    for (int i = 0; i < kMessages; ++i) {
      sent_at[i] = w.now();
      w.multicast(members[i % kMembers], 1, std::to_string(i));
      w.run_for(kGap);
    }
    w.run_until_pred(
        [&] {
          for (ProcessId p : members) {
            if (w.process(p).deliveries.size() < kMessages) return false;
          }
          return true;
        },
        w.now() + 10 * kSecond);
    nulls_per_msg = static_cast<double>(total_nulls() - nulls_before) /
                    static_cast<double>(kMessages);
    std::vector<sim::Time> last(kMessages, 0);
    for (ProcessId p : members) {
      for (const auto& r : w.process(p).deliveries) {
        const auto i = static_cast<std::size_t>(
            std::stoi(simhost::to_string(r.delivery.payload)));
        last[i] = std::max(last[i], r.at);
      }
    }
    lat_ms = util::Samples();
    for (int i = 0; i < kMessages; ++i) {
      lat_ms.add(static_cast<double>(last[i] - sent_at[i]) / kMillisecond);
    }
  }
  report_latency(state, lat_ms);
  state.counters["nulls_per_msg"] = nulls_per_msg;
  emit_bench_json("sym_loaded/rr4",
                  {{"lat_ms_p50", lat_ms.percentile(50)},
                   {"lat_ms_p99", lat_ms.percentile(99)},
                   {"nulls_per_msg", nulls_per_msg}});
}
BENCHMARK(BM_SymLoadedRoundRobin)->Unit(benchmark::kMillisecond);

}  // namespace
