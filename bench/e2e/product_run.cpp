// The product run: UdpNodes over loopback sockets, fed by an open-loop
// Poisson generator on the main thread.
//
// Threads: one event loop per shared UdpTransport (at most 3) plus the
// main thread, which generates load and samples counters. Latency runs
// from a message's due time (carried in its payload) to the
// DeliveryEvent at each member, stamped in the UdpNodeConfig::on_event
// sink. Every workload delivers with GroupOptions::delivery = kCopyOut:
// UdpNode logs every Delivery, and a zero-copy slice in that log pins
// its 64 KiB receive slab for the life of the node.
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "transport/udp_transport.h"

namespace e2e {
namespace {

using newtop::GroupId;
using newtop::ProcessId;
using newtop::transport::UdpNode;
using newtop::transport::UdpNodeConfig;
using newtop::transport::UdpTransport;

constexpr GroupId kGroup = 1;
constexpr int kSetupTrials = 5;
constexpr std::int64_t kSecondNs = 1'000'000'000;
// Ladder step limit: window p99 and generator lateness p99.
constexpr double kSloP99Us = 10'000;
constexpr double kSloLateUs = 1'000;
constexpr std::int64_t kStepGraceNs = kSecondNs;
constexpr std::int64_t kDrainNs = 10 * kSecondNs;
constexpr std::int64_t kSpinNs = 200'000;
constexpr double kRssCapMb = 1024;

// What the event sinks record. Sinks run on the transport loop threads;
// a member's delivery slots are written only by its own node's loop.
class Recorder {
 public:
  Recorder(std::size_t members, std::size_t messages)
      : n_(members),
        msgs_(messages),
        at_(members * messages),
        probes_(members) {}

  void on_event(std::size_t member, const newtop::Event& ev) {
    const std::int64_t t = now_ns();
    if (const auto* d = std::get_if<newtop::DeliveryEvent>(&ev)) {
      const auto& p = d->delivery.payload;
      const auto h = parse_header(p.data(), p.size());
      if (h && h->kind == kKindProbe) {
        probes_[member].fetch_add(1, std::memory_order_relaxed);
        std::int64_t prev = last_probe_.load();
        while (prev < t && !last_probe_.compare_exchange_weak(prev, t)) {
        }
        return;
      }
      if (!h || h->kind != kKindMessage || h->id >= msgs_) {
        malformed_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      auto& slot = at_[h->id * n_ + member];
      if (slot.load(std::memory_order_relaxed) != 0) {
        duplicates_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      slot.store(t, std::memory_order_relaxed);
    } else if (const auto* v = std::get_if<newtop::ViewChangeEvent>(&ev)) {
      std::lock_guard<std::mutex> lock(views_mutex_);
      views_.push_back({member, t, v->view.members});
    } else if (const auto* f = std::get_if<newtop::FormationEvent>(&ev)) {
      (f->outcome == newtop::FormationOutcome::kFormed ? formed_
                                                       : formation_failed_)
          .fetch_add(1);
    }
  }

  // Delivery instant of message `id` at `member`; 0 = not delivered.
  std::int64_t at(std::size_t id, std::size_t member) const {
    return at_[id * n_ + member].load(std::memory_order_relaxed);
  }
  std::size_t formed() const { return formed_.load(); }
  std::size_t formation_failed() const { return formation_failed_.load(); }
  bool all_probes(std::size_t expected) const {
    for (const auto& p : probes_) {
      if (p.load(std::memory_order_relaxed) < expected) return false;
    }
    return true;
  }
  // When the latest probe delivery was stamped (set-up ends there, not
  // when the polling main thread notices).
  std::int64_t last_probe() const { return last_probe_.load(); }
  std::uint64_t duplicates() const { return duplicates_.load(); }
  std::uint64_t malformed() const { return malformed_.load(); }

  struct ViewRecord {
    std::size_t member;
    std::int64_t at;
    std::vector<ProcessId> members;
  };
  std::vector<ViewRecord> views() const {
    std::lock_guard<std::mutex> lock(views_mutex_);
    return views_;
  }

 private:
  std::size_t n_;
  std::size_t msgs_;
  std::vector<std::atomic<std::int64_t>> at_;
  std::vector<std::atomic<std::uint64_t>> probes_;
  std::atomic<std::size_t> formed_{0};
  std::atomic<std::size_t> formation_failed_{0};
  std::atomic<std::int64_t> last_probe_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> malformed_{0};
  mutable std::mutex views_mutex_;
  std::vector<ViewRecord> views_;
};

// Pins the calling thread to the k-th CPU the process may use (the set
// is read once, before any pinning narrows it).
void pin_to(std::size_t k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> v;
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) v.push_back(c);
    }
    return v;
  }();
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

// The workload's nodes on their shared transports. Each transport's loop
// thread has a CPU of its own and the generator (the main thread) the
// next one, or the loop's with Workload::shared_cpu: unpinned, where the
// scheduler happened to place the threads moved a whole run's latency
// and CPU by a third or more. (All loops on one CPU is steadier for the
// small groups, but tree32 then runs its CPU near saturation and
// sometimes collapses.) A thread inherits its creator's affinity, so the
// main thread pins itself before starting the first node of each
// transport, which spawns that transport's loop.
//
// Teardown stops the transports before the nodes: UdpNode::stop() on a
// shared transport whose loop is still running can wait in detach() for
// a long time, as the loop re-enters dispatch before the waiter takes
// the lock.
class Instance {
 public:
  Instance(const Workload& w, Recorder& rec) {
    for (std::size_t t = 0; t < w.transports; ++t) {
      transports_.push_back(std::make_shared<UdpTransport>(0));
    }
    for (std::size_t m = 0; m < w.members; ++m) {
      UdpNodeConfig cfg;
      cfg.on_event = [&rec, m](const newtop::Event& ev) {
        rec.on_event(m, ev);
      };
      nodes_.push_back(std::make_unique<UdpNode>(
          static_cast<ProcessId>(m), transports_[w.transport_of(m)],
          std::move(cfg)));
    }
    for (const auto& t : transports_) {
      for (std::size_t m = 0; m < w.members; ++m) {
        t->add_route(static_cast<ProcessId>(m),
                     transports_[w.transport_of(m)]->port());
      }
    }
    for (std::size_t t = 0; t < w.transports; ++t) {
      pin_to(t);
      for (std::size_t m = 0; m < w.members; ++m) {
        if (w.transport_of(m) == t) nodes_[m]->start();
      }
    }
    pin_to(w.shared_cpu ? 0 : w.transports);
  }
  ~Instance() { stop(); }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  void stop() {
    for (auto& t : transports_) t->stop();
    for (auto& n : nodes_) n->stop();
  }

  UdpNode& node(std::size_t m) { return *nodes_[m]; }
  UdpTransport& transport(std::size_t t) { return *transports_[t]; }
  std::size_t transport_count() const { return transports_.size(); }

 private:
  std::vector<std::shared_ptr<UdpTransport>> transports_;
  std::vector<std::unique_ptr<UdpNode>> nodes_;
};

newtop::GroupOptions group_options(const Workload& w, Defect defect) {
  newtop::GroupOptions o;
  o.mode = w.mode;
  o.dissemination = w.dissemination;
  o.delivery = defect == Defect::kZeroCopyLog
                   ? newtop::DeliveryMode::kZeroCopySlice
                   : newtop::DeliveryMode::kCopyOut;
  return o;
}

std::vector<ProcessId> member_ids(const Workload& w) {
  std::vector<ProcessId> ids;
  for (std::size_t m = 0; m < w.members; ++m) {
    ids.push_back(static_cast<ProcessId>(m));
  }
  return ids;
}

bool wait_for(const std::function<bool()>& done, std::int64_t budget_ns) {
  const std::int64_t deadline = now_ns() + budget_ns;
  while (!done()) {
    if (now_ns() > deadline) return false;
    sleep_until_ns(now_ns() + 200'000);
  }
  return true;
}

void send_probe(Instance& inst, const Workload& w, std::uint64_t seed,
                std::size_t m) {
  inst.node(m).multicast(
      kGroup, make_payload(w.payload_bytes, seed,
                           {kKindProbe, static_cast<std::uint32_t>(m),
                            now_ns()}));
}

// One set-up as a user pays it: transports and nodes built and started,
// the group formed through initiate_group (§5.3), and a first message
// from the initiator delivered everywhere. In a symmetric group that
// first delivery waits for an ω null from every other member; one probe
// per member would instead finish early or late depending on whether
// the probes' Lamport counters happen to tie. Returns seconds, or -1 on
// failure. Invitees of a formation deliver zero-copy slices (the invite
// does not carry the local delivery mode), which is why the measured
// instance is built separately with create_group.
double setup_trial(const Workload& w, std::uint64_t seed, RunOutput& out) {
  const std::int64_t t0 = now_ns();
  Recorder rec(w.members, 0);
  Instance inst(w, rec);
  inst.node(0).initiate_group(kGroup, member_ids(w),
                              group_options(w, Defect::kNone));
  if (!wait_for([&] { return rec.formed() + rec.formation_failed() ==
                             w.members; },
                10 * kSecondNs) ||
      rec.formation_failed() > 0) {
    out.violation("setup: formation did not complete at every member");
    return -1;
  }
  send_probe(inst, w, seed, 0);
  if (!wait_for([&] { return rec.all_probes(1); }, 10 * kSecondNs)) {
    out.violation("setup: the first message was not delivered everywhere");
    return -1;
  }
  const double secs = static_cast<double>(rec.last_probe() - t0) / 1e9;
  watchdog_phase("setup.teardown", 30);
  inst.stop();
  return secs;
}

struct Counters {
  newtop::transport::TransportIoStats io;
  newtop::util::BufferPoolStats pool;
  newtop::transport::ChannelStats channel;
  newtop::EndpointStats endpoint;
};

// Product counters summed over transports and over the live nodes (a
// crashed node's loop no longer runs, so it cannot be asked).
Counters sample(Instance& inst, const Workload& w) {
  Counters c;
  for (std::size_t m = 0; m < w.members; ++m) {
    if (static_cast<int>(m) == w.crash_member) continue;
    const auto ch = inst.node(m).transport_stats();
    c.channel.packets_sent += ch.packets_sent;
    c.channel.retransmissions += ch.retransmissions;
    c.channel.acks_sent += ch.acks_sent;
    c.channel.batches_sent += ch.batches_sent;
    c.channel.batched_payloads += ch.batched_payloads;
    c.channel.spurious_rexmit += ch.spurious_rexmit;
    const auto es = inst.node(m).endpoint_stats();
    c.endpoint.nulls_sent += es.nulls_sent;
    c.endpoint.suspects_sent += es.suspects_sent;
    c.endpoint.refutes_sent += es.refutes_sent;
    c.endpoint.views_installed += es.views_installed;
    c.endpoint.messages_recovered += es.messages_recovered;
    c.endpoint.fwds_sent += es.fwds_sent;
    c.endpoint.echoes_sequenced += es.echoes_sequenced;
    c.endpoint.relays_forwarded += es.relays_forwarded;
    c.endpoint.relay_gap_stashed += es.relay_gap_stashed;
    c.endpoint.relay_repairs_requested += es.relay_repairs_requested;
  }
  for (std::size_t t = 0; t < inst.transport_count(); ++t) {
    const auto io = inst.transport(t).io_stats();
    c.io.tx_syscalls += io.tx_syscalls;
    c.io.rx_syscalls += io.rx_syscalls;
    c.io.tx_datagrams += io.tx_datagrams;
    c.io.rx_datagrams += io.rx_datagrams;
    c.io.rx_truncated += io.rx_truncated;
    c.io.tx_dropped += io.tx_dropped;
    c.io.wakeups += io.wakeups;
    const auto ps = inst.transport(t).pool()->stats();
    c.pool.acquires += ps.acquires;
    c.pool.acquire_hits += ps.acquire_hits;
    c.pool.dropped += ps.dropped;
  }
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// A run that collapses (send-backlog drops, retransmissions) can grow by
// hundreds of MB a second; stop it before it starves the machine. Exits
// like the watchdog: a failed run.
void memory_guard() {
  if (peak_rss_mb() > kRssCapMb) {
    std::fprintf(stderr, "newtop_e2e: memory guard: peak RSS above %.0f MB\n",
                 kRssCapMb);
    std::_Exit(3);
  }
}

}  // namespace

RunOutput run_product(const Workload& w, std::uint64_t seed, double seconds,
                      Defect defect) {
  RunOutput out;
  const std::size_t n = w.members;
  const bool crash = w.crash_member >= 0;
  const auto required = [&](std::size_t m) {
    return static_cast<int>(m) != w.crash_member;
  };

  // ---- Set-up, several times: the median is setup_s.
  std::vector<double> setups;
  for (int i = 0; i < kSetupTrials; ++i) {
    watchdog_phase("setup", 60);
    const double s = setup_trial(w, seed, out);
    if (s < 0) return out;
    setups.push_back(s);
  }
  std::printf("  set-up trials (s):");
  for (const double s : setups) std::printf(" %.4f", s);
  std::printf("\n");

  // ---- The measured instance.
  watchdog_phase("bootstrap", 60);
  const Schedule sched = make_schedule(w, seed, seconds, true);
  const std::size_t total = sched.arrivals.size();
  Recorder rec(n, total);
  Instance inst(w, rec);
  for (std::size_t m = 0; m < n; ++m) {
    inst.node(m).create_group(kGroup, member_ids(w),
                              group_options(w, defect));
  }
  for (std::size_t m = 0; m < n; ++m) {
    if (!inst.node(m).group(kGroup).view()) {
      out.violation("bootstrap: create_group did not install a view");
      return out;
    }
  }
  for (std::size_t m = 0; m < n; ++m) send_probe(inst, w, seed, m);
  if (!wait_for([&] { return rec.all_probes(n); }, 10 * kSecondNs)) {
    out.violation("bootstrap: probes were not delivered everywhere");
    return out;
  }

  // The generator sleeps until kSpinNs before each due time and spins the
  // rest, so sends leave within a few microseconds of their due time
  // instead of paying its own vCPU's wakeup; a 1ns timer slack keeps the
  // sleeps tight. Set here, after the loop threads exist, so they keep
  // the default slack they inherited. On a CPU shared with the loop it
  // spins with sched_yield throughout, so the loop runs whenever it is
  // runnable and the CPU never idles.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);

  std::vector<std::int64_t> late(total, -1);
  std::size_t sent = 0;
  std::int64_t crash_at = -1;
  const Counters before = sample(inst, w);
  const std::int64_t t0 = now_ns() + 20'000'000;
  const auto due_of = [&](std::size_t i) {
    return t0 + sched.arrivals[i].due_ns;
  };
  const auto send = [&](std::size_t i) {
    const std::int64_t due = due_of(i);
    newtop::util::Bytes payload = make_payload(
        w.payload_bytes, seed,
        {kKindMessage, static_cast<std::uint32_t>(i), due});
    std::int64_t now = now_ns();
    if (w.shared_cpu) {
      while ((now = now_ns()) < due) sched_yield();
    } else {
      if (now < due - kSpinNs) sleep_until_ns(due - kSpinNs);
      while ((now = now_ns()) < due) __builtin_ia32_pause();
    }
    late[i] = now - due;
    inst.node(sched.arrivals[i].sender).multicast(kGroup, std::move(payload));
    sent = i + 1;
  };

  // ---- Fixed phase.
  watchdog_phase("fixed", static_cast<unsigned>(seconds) + 30);
  const std::int64_t fixed_end = t0 + static_cast<std::int64_t>(seconds * 1e9);
  // Process minus generator CPU at every 1s window boundary of the phase.
  std::vector<std::int64_t> window_cpu;
  const auto boundary = [&] {
    return t0 + static_cast<std::int64_t>(window_cpu.size()) * kSecondNs;
  };
  const auto sample_cpu_at = [&](std::int64_t t) {
    sleep_until_ns(t);
    memory_guard();
    window_cpu.push_back(clock_ns(CLOCK_PROCESS_CPUTIME_ID) -
                         clock_ns(CLOCK_THREAD_CPUTIME_ID));
  };
  for (std::size_t i = 0; i < sched.fixed_count; ++i) {
    while (boundary() <= due_of(i)) sample_cpu_at(boundary());
    if (crash && crash_at < 0 && due_of(i) >= t0 + sched.crash_ns) {
      sleep_until_ns(t0 + sched.crash_ns);
      inst.transport(w.transport_of(w.crash_member)).stop();
      crash_at = now_ns();
    }
    send(i);
  }
  while (boundary() < fixed_end) sample_cpu_at(boundary());
  sample_cpu_at(fixed_end);
  const double rss_mb = peak_rss_mb();
  const Counters after = sample(inst, w);

  // ---- Rate ladder: each step is judged kStepGraceNs after it ends,
  // while the next one runs; the first step that misses ends it.
  int passed = -1;
  const auto step_ok = [&](int k) {
    memory_guard();
    std::vector<double> lat, gen_late;
    std::size_t missing = 0;
    for (std::size_t i = sched.step_begin[k]; i < sched.step_begin[k + 1];
         ++i) {
      gen_late.push_back(static_cast<double>(late[i]) / 1e3);
      for (std::size_t m = 0; m < n; ++m) {
        const std::int64_t at = rec.at(i, m);
        if (at == 0) {
          ++missing;
        } else {
          lat.push_back(static_cast<double>(at - due_of(i)) / 1e3);
        }
      }
    }
    const double p50 = quantile(lat, 0.5);
    const double p99 = quantile(lat, 0.99);
    const double late99 = quantile(gen_late, 0.99);
    const bool ok = missing == 0 && p99 <= kSloP99Us && late99 < kSloLateUs;
    std::printf("  ladder step %2d  %8.0f msgs/s  p50 %9.1f us  p99 %9.1f us"
                "  late p99 %7.1f us  undelivered %zu  %s\n",
                k, ladder_rate(w, k), p50, p99, late99, missing,
                ok ? "meets" : "misses");
    return ok;
  };
  if (!sched.step_begin.empty()) {
    watchdog_phase("ladder", kLadderSteps * 2 + 30);
    int judged = 0;
    const auto judge_time = [&](int k) {
      return fixed_end + (k + 1) * kLadderStepNs + kStepGraceNs;
    };
    bool stopped = false;
    for (int k = 0; k < kLadderSteps && !stopped; ++k) {
      for (std::size_t i = sched.step_begin[k];
           i < sched.step_begin[k + 1] && !stopped; ++i) {
        while (judged < k && judge_time(judged) <= due_of(i)) {
          sleep_until_ns(judge_time(judged));
          if (!step_ok(judged)) {
            stopped = true;
            break;
          }
          passed = judged++;
        }
        if (!stopped) send(i);
      }
    }
    while (!stopped && judged < kLadderSteps) {
      sleep_until_ns(judge_time(judged));
      if (!step_ok(judged)) break;
      passed = judged++;
    }
  }

  if (defect == Defect::kDetachHang) {
    // Nodes first, while the loops are still busy with the ladder's
    // backlog: UdpNode::stop() waits in UdpTransport::detach().
    watchdog_phase("teardown.nodes_first", 30);
    const std::int64_t t = now_ns();
    for (std::size_t m = 0; m < n; ++m) inst.node(m).stop();
    const double secs = static_cast<double>(now_ns() - t) / 1e9;
    std::printf("  nodes stopped before their transports in %.3f s\n", secs);
    if (secs > 5) out.violation("UdpNode::stop() on a busy shared transport");
    return out;
  }

  // ---- Drain: every message from a live sender reaches every member
  // that stays in the view. A crashed sender's messages are all-or-none,
  // which the oracle checks below.
  watchdog_phase("drain", kDrainNs / kSecondNs + 30);
  std::size_t cursor = 0;
  wait_for(
      [&] {
        memory_guard();
        for (; cursor < sent; ++cursor) {
          if (static_cast<int>(sched.arrivals[cursor].sender) ==
              w.crash_member) {
            continue;
          }
          for (std::size_t m = 0; m < n; ++m) {
            if (required(m) && rec.at(cursor, m) == 0) return false;
          }
        }
        return true;
      },
      kDrainNs);

  watchdog_phase("teardown", 60);
  inst.stop();

  // ---- Oracle.
  watchdog_phase("oracle", 120);
  std::uint64_t refused = 0;
  std::vector<std::vector<std::uint32_t>> seqs(n);
  std::uint64_t bad_payloads = 0;
  for (std::size_t m = 0; m < n; ++m) {
    refused += inst.node(m).send_counts().rejected();
    if (!required(m)) continue;
    for (const auto& d : inst.node(m).deliveries()) {
      const auto h = parse_header(d.payload.data(), d.payload.size());
      if (h && h->kind == kKindProbe) continue;
      if (!h || h->kind != kKindMessage || h->id >= sent ||
          d.sender != sched.arrivals[h->id].sender ||
          h->due_ns != due_of(h->id) ||
          !payload_matches(d.payload.data(), d.payload.size(),
                           w.payload_bytes, seed, *h)) {
        ++bad_payloads;
        continue;
      }
      seqs[m].push_back(h->id);
    }
  }
  std::uint64_t failed = refused + bad_payloads + rec.duplicates() +
                         rec.malformed();
  if (refused > 0) {
    out.violation(std::to_string(refused) + " multicasts refused");
  }
  if (bad_payloads + rec.malformed() > 0) {
    out.violation(std::to_string(bad_payloads + rec.malformed()) +
                  " deliveries with a wrong sender, id or payload");
  }
  if (rec.duplicates() > 0) {
    out.violation(std::to_string(rec.duplicates()) + " duplicate deliveries");
  }
  // Identical sequences at every member that stays in the view.
  const std::vector<std::uint32_t>* ref = nullptr;
  for (std::size_t m = 0; m < n; ++m) {
    if (!required(m)) continue;
    if (ref == nullptr) {
      ref = &seqs[m];
      continue;
    }
    const std::size_t common = std::min(ref->size(), seqs[m].size());
    std::size_t i = 0;
    while (i < common && (*ref)[i] == seqs[m][i]) ++i;
    if (i < common || ref->size() != seqs[m].size()) {
      failed += std::max(ref->size(), seqs[m].size()) - i;
      out.violation("member " + std::to_string(m) +
                    " delivery sequence diverges from member 0's at " +
                    std::to_string(i));
    }
  }
  // No loss; a crashed sender's messages reach every survivor or none.
  std::uint64_t undelivered = 0, partial = 0, lost_from_crashed = 0;
  const std::size_t survivors = crash ? n - 1 : n;
  for (std::size_t i = 0; i < sent; ++i) {
    std::size_t got = 0;
    for (std::size_t m = 0; m < n; ++m) {
      if (required(m) && rec.at(i, m) != 0) ++got;
    }
    if (got == survivors) continue;
    if (static_cast<int>(sched.arrivals[i].sender) == w.crash_member) {
      if (got == 0) {
        ++lost_from_crashed;
      } else {
        ++partial;
      }
    } else {
      ++undelivered;
    }
  }
  failed += undelivered + partial;
  if (undelivered > 0) {
    out.violation(std::to_string(undelivered) +
                  " multicasts not delivered at every member by the drain "
                  "deadline");
  }
  if (partial > 0) {
    out.violation(std::to_string(partial) +
                  " messages of the crashed member reached only some "
                  "survivors");
  }
  out.attempted = sent;
  out.failed = failed;

  // ---- End-to-end metrics (fixed phase).
  // Latency and CPU are medians over the phase's 1s windows (a message
  // belongs to the window it was due in), so one second in which the
  // host preempted a loop thread does not decide the run.
  const std::size_t n_windows = window_cpu.size() - 1;
  std::vector<std::vector<double>> windows(n_windows);
  std::vector<double> lat, window_msgs(n_windows, 0);
  std::size_t complete = 0;
  for (std::size_t i = 0; i < sched.fixed_count; ++i) {
    const auto win =
        static_cast<std::size_t>(sched.arrivals[i].due_ns / kSecondNs);
    std::size_t got = 0;
    for (std::size_t m = 0; m < n; ++m) {
      const std::int64_t at = rec.at(i, m);
      if (at == 0) continue;
      if (required(m)) ++got;
      const double us = static_cast<double>(at - due_of(i)) / 1e3;
      lat.push_back(us);
      windows[win].push_back(us);
    }
    if (got == survivors) {
      ++complete;
      window_msgs[win] += 1;
    }
  }
  std::vector<double> window_p50, window_p99, window_cpu_per_msg;
  for (std::size_t k = 0; k < n_windows; ++k) {
    if (windows[k].empty() || window_msgs[k] == 0) continue;
    window_p50.push_back(quantile(windows[k], 0.5));
    window_p99.push_back(quantile(windows[k], 0.99));
    window_cpu_per_msg.push_back(
        static_cast<double>(window_cpu[k + 1] - window_cpu[k]) / 1e3 /
        window_msgs[k]);
  }
  std::vector<double> gen_late;
  for (std::size_t i = 0; i < sched.fixed_count; ++i) {
    gen_late.push_back(static_cast<double>(late[i]) / 1e3);
  }
  const double msgs = static_cast<double>(complete);

  out.add("setup_s", quantile(setups, 0.5), "s", setups.size());
  out.add("lat_p50_us", quantile(window_p50, 0.5), "us", lat.size());
  out.add("lat_p99_us", quantile(window_p99, 0.5), "us", lat.size());
  out.add("cpu_us_per_msg", quantile(window_cpu_per_msg, 0.5), "us",
          complete);
  out.add("peak_rss_mb", rss_mb, "MB");

  // ---- Product-side layer counters over the fixed phase.
  const auto d = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(a - b);
  };
  const auto& io1 = after.io;
  const auto& io0 = before.io;
  const double syscalls = d(io1.tx_syscalls, io0.tx_syscalls) +
                          d(io1.rx_syscalls, io0.rx_syscalls);
  const double dgrams = d(io1.tx_datagrams, io0.tx_datagrams) +
                        d(io1.rx_datagrams, io0.rx_datagrams);
  out.add("udp_transport.syscalls_per_msg", ratio(syscalls, msgs), "1/msg");
  out.add("udp_transport.dgrams_per_syscall", ratio(dgrams, syscalls),
          "dgrams");
  out.add("udp_transport.wakeups_per_msg",
          ratio(d(io1.wakeups, io0.wakeups), msgs), "1/msg");
  out.add("udp_transport.tx_dropped", d(io1.tx_dropped, io0.tx_dropped),
          "count");
  out.add("udp_transport.rx_truncated", d(io1.rx_truncated, io0.rx_truncated),
          "count");

  const auto& ch1 = after.channel;
  const auto& ch0 = before.channel;
  const double packets = d(ch1.packets_sent, ch0.packets_sent);
  const double payloads = packets - d(ch1.batches_sent, ch0.batches_sent) +
                          d(ch1.batched_payloads, ch0.batched_payloads);
  const double rexmits = d(ch1.retransmissions, ch0.retransmissions);
  out.add("router.datagrams_per_msg",
          ratio(d(io1.tx_datagrams, io0.tx_datagrams), msgs), "1/msg");
  out.add("router.payloads_per_batch", ratio(payloads, packets), "ratio");
  out.add("router.acks_per_msg", ratio(d(ch1.acks_sent, ch0.acks_sent), msgs),
          "1/msg");
  out.add("router.retransmits_per_msg", ratio(rexmits, msgs), "1/msg");
  out.add("router.spurious_rexmit_frac",
          ratio(d(ch1.spurious_rexmit, ch0.spurious_rexmit), rexmits),
          "ratio");

  const auto& es1 = after.endpoint;
  const auto& es0 = before.endpoint;
  out.add("endpoint.nulls_per_msg",
          ratio(d(es1.nulls_sent, es0.nulls_sent), msgs), "1/msg");
  out.add("ordering_asymmetric.fwds_per_msg",
          ratio(d(es1.fwds_sent, es0.fwds_sent), msgs), "1/msg");
  out.add("ordering_asymmetric.echoes_per_msg",
          ratio(d(es1.echoes_sequenced, es0.echoes_sequenced), msgs), "1/msg");

  // Membership: a view without a member that never crashed is a false
  // suspicion that went all the way to exclusion.
  const std::int64_t ref_at =
      crash_at >= 0 ? crash_at
                    : t0 + static_cast<std::int64_t>(
                               kCrashAt * static_cast<double>(fixed_end - t0));
  std::uint64_t false_suspicions = 0;
  std::int64_t install_ns = 0;
  std::vector<bool> installed(n, false);
  for (const auto& v : rec.views()) {
    if (v.at < t0) continue;
    for (std::size_t p = 0; p < n; ++p) {
      if (!required(p)) continue;
      if (std::find(v.members.begin(), v.members.end(), p) ==
          v.members.end()) {
        ++false_suspicions;
      }
    }
    if (crash_at >= 0 && !installed[v.member] &&
        std::find(v.members.begin(), v.members.end(),
                  static_cast<ProcessId>(w.crash_member)) == v.members.end()) {
      installed[v.member] = true;
      install_ns = std::max(install_ns, v.at - crash_at);
    }
  }
  if (false_suspicions > 0) {
    out.violation(std::to_string(false_suspicions) +
                  " views excluded a member that never crashed (false "
                  "suspicion); split members' sequences then diverge");
  }
  out.add("endpoint_membership.suspects_sent",
          d(es1.suspects_sent, es0.suspects_sent), "count");
  out.add("endpoint_membership.refutes_sent",
          d(es1.refutes_sent, es0.refutes_sent), "count");
  out.add("endpoint_membership.views_installed",
          d(es1.views_installed, es0.views_installed), "count");
  out.add("endpoint_membership.false_suspicions",
          static_cast<double>(false_suspicions), "count");
  out.add("endpoint_membership.view_install_ms",
          static_cast<double>(install_ns) / 1e6, "ms");
  out.add("endpoint_membership.messages_recovered",
          d(es1.messages_recovered, es0.messages_recovered), "count");

  out.add("dissemination.relays_forwarded_per_msg",
          ratio(d(es1.relays_forwarded, es0.relays_forwarded), msgs),
          "1/msg");
  out.add("dissemination.relay_gap_stashed",
          d(es1.relay_gap_stashed, es0.relay_gap_stashed), "count");
  out.add("dissemination.relay_repairs_requested",
          d(es1.relay_repairs_requested, es0.relay_repairs_requested),
          "count");

  const double acquires = d(after.pool.acquires, before.pool.acquires);
  out.add("buffer_pool.hit_rate",
          ratio(d(after.pool.acquire_hits, before.pool.acquire_hits),
                acquires),
          "ratio");
  out.add("buffer_pool.acquires_per_msg", ratio(acquires, msgs), "1/msg");
  out.add("buffer_pool.dropped", d(after.pool.dropped, before.pool.dropped),
          "count");

  out.add("generator.late_p99_us", quantile(gen_late, 0.99), "us",
          gen_late.size());
  out.add("generator.late_max_us", quantile(gen_late, 1.0), "us",
          gen_late.size());
  out.add("generator.lat_p999_us", quantile(lat, 0.999), "us", lat.size());
  out.add("generator.lat_max_us", quantile(lat, 1.0), "us", lat.size());

  // Time without service: the longest gap between consecutive
  // deliveries at any member that stays in the view, among gaps that
  // overlap the 2s after the crash (or the same instant without one).
  std::int64_t stall_ns = 0;
  for (std::size_t m = 0; m < n; ++m) {
    if (!required(m)) continue;
    std::vector<std::int64_t> times;
    for (std::size_t i = 0; i < sched.fixed_count; ++i) {
      if (const std::int64_t at = rec.at(i, m); at != 0) times.push_back(at);
    }
    std::sort(times.begin(), times.end());
    for (std::size_t i = 1; i < times.size(); ++i) {
      if (times[i] > ref_at && times[i - 1] < ref_at + 2 * kSecondNs) {
        stall_ns = std::max(stall_ns, times[i] - times[i - 1]);
      }
    }
  }
  out.add("max_rate_at_slo", passed >= 0 ? ladder_rate(w, passed) : 0.0,
          "msgs/s");
  out.add("stall_ms", static_cast<double>(stall_ns) / 1e6, "ms");
  out.add("fail_frac", ratio(static_cast<double>(failed),
                             static_cast<double>(sent)),
          "ratio");
  out.add("crash.lost_from_crashed", static_cast<double>(lost_from_crashed),
          "count");
  return out;
}

}  // namespace e2e
