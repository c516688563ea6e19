// The traced replay: the per-layer view of one workload.
//
// One thread holds, for each member, one transport::Router and one
// Endpoint, wired the way UdpNode::init wires them: the endpoint's `send`
// goes to Router::send, `send_relay` to Router::send_relayed, and the
// router delivers into Endpoint::on_message. Datagrams travel through an
// in-process queue instead of sockets. Each pass receives what is
// queued, runs the arrivals that are due, ticks every endpoint each 5ms,
// then calls flush_batches and tick on every router — UdpTransport's
// loop order.
//
// Spans wrap every call into the Endpoint (multicast, on_message,
// on_tick), into the Router (send, send_relayed, on_datagram,
// flush_batches, tick) and into the event sink. A span's self time is its
// duration minus its children's, so each layer is charged only for its
// own code. The harness charges its own work too: `harness.wire` spans
// move datagrams off the queue, `harness.sample` spans read the queue
// and retention gauges, `harness.schedule` spans find the next wakeup,
// and `harness.idle` is the thread CPU spent going to sleep and waking
// up between passes. What no span and no idle measurement claims is
// unattributed. The same replay runs once with spans off; the CPU
// difference is the tracing overhead.
#include <cstdio>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/endpoint.h"
#include "transport/router.h"

namespace e2e {
namespace {

using newtop::Endpoint;
using newtop::EndpointHooks;
using newtop::GroupId;
using newtop::ProcessId;
using newtop::transport::ChannelConfig;
using newtop::transport::PeerId;
using newtop::transport::Router;

constexpr GroupId kGroup = 1;
constexpr double kReplaySeconds = 5.0;
constexpr std::int64_t kTickNs = 5'000'000;  // UdpNodeConfig::tick_interval
constexpr std::int64_t kRetentionSampleNs = 100'000'000;
constexpr std::int64_t kDrainNs = 5'000'000'000;
constexpr std::size_t kTraceFileSpans = 200'000;
constexpr std::uint32_t kNoMsg = UINT32_MAX;

enum SpanName : std::uint8_t {
  kEpMulticast,
  kEpOnMessage,
  kEpOnTick,
  kRtSend,
  kRtSendRelayed,
  kRtOnDatagram,
  kRtFlushBatches,
  kRtTick,
  kSink,
  kWire,
  kSample,
  kSchedule,
  kSpanNames
};
constexpr const char* kSpanText[kSpanNames] = {
    "endpoint.multicast",   "endpoint.on_message", "endpoint.on_tick",
    "router.send",          "router.send_relayed", "router.on_datagram",
    "router.flush_batches", "router.tick",         "sink.on_event",
    "harness.wire",         "harness.sample",      "harness.schedule"};
enum Layer { kEndpoint, kRouter, kSinkLayer, kHarness, kLayers };
constexpr Layer kSpanLayer[kSpanNames] = {
    kEndpoint, kEndpoint,  kEndpoint, kRouter,  kRouter,  kRouter,
    kRouter,   kRouter,    kSinkLayer, kHarness, kHarness, kHarness};

class Tracer {
 public:
  struct Span {
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent;
    std::uint32_t msg;
    std::uint16_t member;
    SpanName name;
  };

  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  std::int32_t open(SpanName name, std::size_t member) {
    const auto idx = static_cast<std::int32_t>(size_);
    // Fixed-size chunks: growing never copies, so no span absorbs a
    // reallocation of the ones before it.
    if (size_ % kChunk == 0) chunks_.emplace_back(new Span[kChunk]);
    slot(size_++) = {now_ns(), 0, stack_.empty() ? -1 : stack_.back(), kNoMsg,
                   static_cast<std::uint16_t>(member), name};
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    slot(static_cast<std::size_t>(idx)).end = now_ns();
    stack_.pop_back();
  }
  // Tags the innermost open span with a message id (delivery spans).
  void tag(std::uint32_t msg) {
    if (on_ && !stack_.empty()) {
      slot(static_cast<std::size_t>(stack_.back())).msg = msg;
    }
  }
  std::size_t size() const { return size_; }
  const Span& at(std::size_t i) const {
    return chunks_[i / kChunk][i % kChunk];
  }

 private:
  static constexpr std::size_t kChunk = std::size_t{1} << 16;
  Span& slot(std::size_t i) { return chunks_[i / kChunk][i % kChunk]; }

  bool on_;
  std::vector<std::unique_ptr<Span[]>> chunks_;
  std::size_t size_ = 0;
  std::vector<std::int32_t> stack_;
};

class Scope {
 public:
  Scope(Tracer& t, SpanName name, std::size_t member)
      : t_(t), idx_(t.on() ? t.open(name, member) : -1) {}
  ~Scope() {
    if (idx_ >= 0) t_.close(idx_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t idx_;
};

std::int64_t now_us() { return now_ns() / 1000; }

class Harness {
 public:
  Harness(const Workload& w, std::uint64_t seed, bool spans)
      : w_(w),
        seed_(seed),
        sched_(make_schedule(w, seed, kReplaySeconds, false)),
        tracer_(spans),
        pool_(newtop::util::BufferPool::create()),
        members_(w.members),
        seqs_(w.members),
        survivor_hits_(sched_.arrivals.size(), 0) {
    // Payloads are built before the clock starts; the replay times the
    // protocol, not the generator. Due times stay relative here.
    for (std::size_t i = 0; i < sched_.arrivals.size(); ++i) {
      payloads_.push_back(make_payload(
          w.payload_bytes, seed,
          {kKindMessage, static_cast<std::uint32_t>(i),
           sched_.arrivals[i].due_ns}));
    }
    std::vector<ProcessId> ids;
    for (std::size_t m = 0; m < w.members; ++m) {
      ids.push_back(static_cast<ProcessId>(m));
    }
    for (std::size_t m = 0; m < w.members; ++m) {
      ChannelConfig channel;
      channel.pool = pool_;
      members_[m].router = std::make_unique<Router>(
          static_cast<PeerId>(m), channel,
          [this, m](PeerId to, newtop::util::Bytes data) {
            wire_.push_back({static_cast<ProcessId>(m), to, std::move(data)});
          },
          [this, m](PeerId from, newtop::util::BytesView payload) {
            Scope s(tracer_, kEpOnMessage, m);
            members_[m].endpoint->on_message(from, std::move(payload),
                                             now_us());
          });
      EndpointHooks hooks;
      hooks.send = [this, m](ProcessId to, newtop::util::SharedBytes data) {
        Scope s(tracer_, kRtSend, m);
        if (to != m) ++origin_sends_;
        members_[m].router->send(to, std::move(data), now_us());
      };
      hooks.send_relay = [this, m](ProcessId to,
                                   newtop::util::BytesView data) {
        Scope s(tracer_, kRtSendRelayed, m);
        members_[m].router->send_relayed(to, std::move(data), now_us());
      };
      hooks.on_event = [this, m](const newtop::Event& ev) {
        Scope s(tracer_, kSink, m);
        on_event(m, ev);
      };
      hooks.buffer_pool = pool_;
      members_[m].endpoint = std::make_unique<Endpoint>(
          static_cast<ProcessId>(m), newtop::Config{}, std::move(hooks));
    }
    newtop::GroupOptions opts;
    opts.mode = w.mode;
    opts.dissemination = w.dissemination;
    opts.delivery = newtop::DeliveryMode::kCopyOut;
    for (std::size_t m = 0; m < w.members; ++m) {
      members_[m].endpoint->create_group(kGroup, ids, opts, now_us());
    }
  }

  void run(RunOutput& out) {
    const std::int64_t t0 = now_ns();
    const std::int64_t end =
        t0 + static_cast<std::int64_t>(kReplaySeconds * 1e9);
    const std::int64_t cpu0 = clock_ns(CLOCK_THREAD_CPUTIME_ID);
    std::int64_t next_tick = t0;
    std::int64_t next_retention = t0;
    std::int64_t last = t0;
    std::size_t next = 0;
    const std::size_t count = sched_.arrivals.size();
    for (;;) {
      const std::int64_t now = now_ns();
      if (crash_pending() && now >= t0 + sched_.crash_ns) {
        members_[static_cast<std::size_t>(w_.crash_member)].alive = false;
      }
      for (std::size_t k = wire_.size(); k > 0; --k) {
        Scope s(tracer_, kWire, wire_.front().to);
        Datagram dg = std::move(wire_.front());
        wire_.pop_front();
        if (!members_[dg.to].alive) continue;
        Scope r(tracer_, kRtOnDatagram, dg.to);
        members_[dg.to].router->on_datagram(
            dg.from, newtop::util::BytesView(pool_->share(std::move(dg.data))),
            now_us());
      }
      for (; next < count && t0 + sched_.arrivals[next].due_ns <= now;
           ++next) {
        const std::size_t m = sched_.arrivals[next].sender;
        if (!members_[m].alive) continue;
        Scope s(tracer_, kEpMulticast, m);
        members_[m].endpoint->multicast(kGroup, std::move(payloads_[next]),
                                        now_us());
      }
      if (now >= next_tick) {
        for (std::size_t m = 0; m < members_.size(); ++m) {
          if (!members_[m].alive) continue;
          Scope s(tracer_, kEpOnTick, m);
          members_[m].endpoint->on_tick(now_us());
        }
        next_tick = std::max(next_tick + kTickNs, now);
      }
      for (std::size_t m = 0; m < members_.size(); ++m) {
        if (!members_[m].alive) continue;
        {
          Scope s(tracer_, kRtFlushBatches, m);
          members_[m].router->flush_batches(now_us());
        }
        Scope s(tracer_, kRtTick, m);
        members_[m].router->tick(now_us());
      }
      {
        Scope s(tracer_, kSample, 0);
        // Little's law: the queue's time integral over the deliveries.
        queue_area_ns_ += static_cast<double>(queued()) *
                          static_cast<double>(now - last);
        last = now;
        if (now >= next_retention) {
          sample_retention();
          next_retention += kRetentionSampleNs;
        }
      }
      if (next == count && now >= end &&
          (drained() || now >= end + kDrainNs)) {
        break;
      }
      if (wire_.empty()) {
        std::int64_t wake, cpu;
        {
          Scope s(tracer_, kSchedule, 0);
          wake = wake_time(now, next_tick, next, t0);
          cpu = clock_ns(CLOCK_THREAD_CPUTIME_ID);
        }
        idle_until(wake, cpu);
      }
    }
    cpu_ns_ = clock_ns(CLOCK_THREAD_CPUTIME_ID) - cpu0;
    wall_ns_ = now_ns() - t0;
    check(out);
  }

  std::int64_t cpu() const { return cpu_ns_; }

  // Per-layer self times and the traced-run metrics.
  void report(RunOutput& out, std::int64_t cpu_untraced) const {
    const std::size_t spans = tracer_.size();
    std::vector<std::int64_t> child(spans, 0);
    for (std::size_t i = 0; i < spans; ++i) {
      const auto& s = tracer_.at(i);
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
      }
    }
    double self[kSpanNames] = {};
    std::size_t calls[kSpanNames] = {};
    double layer[kLayers] = {};
    double rooted = 0;
    for (std::size_t i = 0; i < spans; ++i) {
      const auto& s = tracer_.at(i);
      const double own = static_cast<double>(s.end - s.start - child[i]);
      self[s.name] += own;
      ++calls[s.name];
      layer[kSpanLayer[s.name]] += own;
      if (s.parent < 0) rooted += static_cast<double>(s.end - s.start);
    }
    const double msgs = static_cast<double>(complete());
    const double cpu = static_cast<double>(cpu_ns_);
    const double idle = static_cast<double>(idle_cpu_ns_);
    const double unattributed = cpu - rooted - idle;
    const auto per_msg = [&](double ns) { return msgs > 0 ? ns / 1e3 / msgs
                                                          : 0.0; };
    std::printf("traced replay: %.1fs, %zu multicasts delivered everywhere, "
                "%zu spans, harness thread CPU %.1f ms\n",
                static_cast<double>(wall_ns_) / 1e9,
                static_cast<std::size_t>(msgs), spans, cpu / 1e6);
    std::printf("  %-22s %10s %12s %12s\n", "span", "calls", "self_ms",
                "self_us/msg");
    for (int n = 0; n < kSpanNames; ++n) {
      std::printf("  %-22s %10zu %12.2f %12.3f\n", kSpanText[n], calls[n],
                  self[n] / 1e6, per_msg(self[n]));
    }
    std::printf("  %-22s %10zu %12.2f %12.3f\n", "harness.idle", idle_sleeps_,
                idle / 1e6, per_msg(idle));
    std::printf("  %-22s %10s %12.2f %12.3f\n", "(unattributed)", "",
                unattributed / 1e6, per_msg(unattributed));
    std::printf("  check: endpoint %.2f + router %.2f + sink %.2f + harness "
                "%.2f + idle %.2f + unattributed %.2f = thread CPU %.2f ms\n",
                layer[kEndpoint] / 1e6, layer[kRouter] / 1e6,
                layer[kSinkLayer] / 1e6, layer[kHarness] / 1e6, idle / 1e6,
                unattributed / 1e6, cpu / 1e6);
    const double unattributed_frac = cpu > 0 ? unattributed / cpu : 0.0;
    if (std::abs(unattributed_frac) > 0.10) {
      std::printf("  FLAG: trace.unattributed_frac %.3f is above 0.10; the "
                  "spans do not account for the thread's CPU\n",
                  unattributed_frac);
    }
    out.add("router.self_us_per_msg", per_msg(layer[kRouter]), "us");
    out.add("endpoint.self_us_per_msg", per_msg(layer[kEndpoint]), "us");
    out.add("endpoint.tick_us_per_s",
            self[kEpOnTick] / 1e3 / kReplaySeconds, "us/s");
    out.add("endpoint.order_wait_us",
            deliveries_ > 0 ? queue_area_ns_ / 1e3 /
                                  static_cast<double>(deliveries_)
                            : 0.0,
            "us", deliveries_);
    out.add("endpoint.retained_msgs_avg",
            retention_samples_ > 0
                ? retained_sum_ / static_cast<double>(retention_samples_)
                : 0.0,
            "msgs", retention_samples_);
    out.add("endpoint.pinned_per_used",
            used_sum_ > 0 ? pinned_sum_ / used_sum_ : 0.0, "ratio");
    out.add("dissemination.origin_datagrams_per_msg",
            msgs > 0 ? static_cast<double>(origin_sends_) / msgs : 0.0,
            "1/msg");
    out.add("trace.overhead_frac",
            cpu_untraced > 0
                ? (cpu - static_cast<double>(cpu_untraced)) /
                      static_cast<double>(cpu_untraced)
                : 0.0,
            "ratio");
    out.add("trace.unattributed_frac", unattributed_frac, "ratio");
  }

  // Chrome trace JSON (chrome://tracing, Perfetto): one lane per member;
  // nesting on a lane is the parent relation, also kept in args.
  bool write_trace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::size_t spans = tracer_.size();
    const std::size_t n = std::min(spans, kTraceFileSpans);
    const std::int64_t base = spans == 0 ? 0 : tracer_.at(0).start;
    std::fprintf(f, "{\"otherData\":{\"workload\":\"%.*s\",\"seed\":%llu,"
                 "\"spans_total\":%zu,\"spans_written\":%zu},\n"
                 "\"traceEvents\":[\n",
                 static_cast<int>(w_.name.size()), w_.name.data(),
                 static_cast<unsigned long long>(seed_), spans, n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& s = tracer_.at(i);
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d",
                   i == 0 ? "" : ",\n", kSpanText[s.name], s.member,
                   static_cast<double>(s.start - base) / 1e3,
                   static_cast<double>(s.end - s.start) / 1e3, i, s.parent);
      if (s.msg != kNoMsg) std::fprintf(f, ",\"msg\":%u", s.msg);
      std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Member {
    std::unique_ptr<Router> router;
    std::unique_ptr<Endpoint> endpoint;
    bool alive = true;
  };
  struct Datagram {
    ProcessId from;
    ProcessId to;
    newtop::util::Bytes data;
  };

  bool survivor(std::size_t m) const {
    return static_cast<int>(m) != w_.crash_member;
  }
  bool crash_pending() const {
    return w_.crash_member >= 0 &&
           members_[static_cast<std::size_t>(w_.crash_member)].alive;
  }

  // The next instant with work: an arrival, a protocol tick, or a
  // router's retransmission / delayed-ack deadline.
  std::int64_t wake_time(std::int64_t now, std::int64_t next_tick,
                         std::size_t next, std::int64_t t0) const {
    std::int64_t wake = std::min(next_tick, now + kTickNs);
    if (next < sched_.arrivals.size()) {
      wake = std::min(wake, t0 + sched_.arrivals[next].due_ns);
    }
    for (const auto& mem : members_) {
      if (!mem.alive) continue;
      const std::int64_t d = mem.router->next_deadline(now / 1000);
      if (d != newtop::sim::kTimeNever) wake = std::min(wake, d * 1000);
    }
    return wake;
  }

  // Sleeps until `wake`; the thread CPU from `cpu` (read inside the
  // schedule span) to the wakeup is the harness's idle cost.
  void idle_until(std::int64_t wake, std::int64_t cpu) {
    if (wake <= now_ns()) return;
    sleep_until_ns(wake);
    idle_cpu_ns_ += clock_ns(CLOCK_THREAD_CPUTIME_ID) - cpu;
    ++idle_sleeps_;
  }

  void on_event(std::size_t m, const newtop::Event& ev) {
    const auto* d = std::get_if<newtop::DeliveryEvent>(&ev);
    if (d == nullptr) return;
    const auto& p = d->delivery.payload;
    const auto h = parse_header(p.data(), p.size());
    if (!h || h->kind != kKindMessage || h->id >= survivor_hits_.size()) {
      ++malformed_;
      return;
    }
    tracer_.tag(h->id);
    ++deliveries_;
    seqs_[m].push_back(h->id);
    if (survivor(m)) ++survivor_hits_[h->id];
  }

  std::size_t queued() const {
    std::size_t q = 0;
    for (const auto& mem : members_) {
      if (mem.alive) q += mem.endpoint->queued_deliveries();
    }
    return q;
  }

  // Retention per live member, and pinned over used bytes across all.
  void sample_retention() {
    double retained = 0;
    std::size_t alive = 0;
    for (const auto& mem : members_) {
      if (!mem.alive) continue;
      const auto rs = mem.endpoint->retention_stats(kGroup);
      retained += static_cast<double>(rs.retained_msgs);
      used_sum_ += static_cast<double>(rs.used_bytes);
      pinned_sum_ += static_cast<double>(rs.pinned_bytes);
      ++alive;
    }
    retained_sum_ += retained / static_cast<double>(alive);
    ++retention_samples_;
  }

  std::size_t survivors() const {
    return w_.crash_member >= 0 ? w_.members - 1 : w_.members;
  }

  // Every multicast from a member that stays up has reached every member
  // that stays up.
  bool drained() const {
    for (std::size_t i = 0; i < sched_.arrivals.size(); ++i) {
      if (!survivor(sched_.arrivals[i].sender)) continue;
      if (survivor_hits_[i] < survivors()) return false;
    }
    return true;
  }

  std::size_t complete() const {
    std::size_t c = 0;
    for (const auto hits : survivor_hits_) c += hits == survivors() ? 1 : 0;
    return c;
  }

  void check(RunOutput& out) const {
    const std::string tag = tracer_.on() ? "traced replay" : "untraced replay";
    if (malformed_ > 0) out.violation(tag + ": malformed deliveries");
    if (!drained()) out.violation(tag + ": multicasts were not delivered");
    const std::vector<std::uint32_t>* ref = nullptr;
    for (std::size_t m = 0; m < seqs_.size(); ++m) {
      if (!survivor(m)) continue;
      if (ref == nullptr) {
        ref = &seqs_[m];
      } else if (seqs_[m] != *ref) {
        out.violation(tag + ": member " + std::to_string(m) +
                      " delivered a different sequence");
      }
    }
  }

  const Workload& w_;
  std::uint64_t seed_;
  Schedule sched_;
  Tracer tracer_;
  newtop::util::BufferPoolPtr pool_;
  std::vector<Member> members_;
  std::vector<newtop::util::Bytes> payloads_;
  std::deque<Datagram> wire_;
  std::vector<std::vector<std::uint32_t>> seqs_;
  std::vector<std::uint16_t> survivor_hits_;
  std::size_t deliveries_ = 0;
  std::size_t malformed_ = 0;
  std::size_t origin_sends_ = 0;
  double queue_area_ns_ = 0;
  double retained_sum_ = 0;
  double used_sum_ = 0;
  double pinned_sum_ = 0;
  std::size_t retention_samples_ = 0;
  std::int64_t idle_cpu_ns_ = 0;
  std::size_t idle_sleeps_ = 0;
  std::int64_t cpu_ns_ = 0;
  std::int64_t wall_ns_ = 0;
};

}  // namespace

RunOutput run_traced(const Workload& w, std::uint64_t seed,
                     const std::string& trace_path) {
  RunOutput out;
  watchdog_phase("trace.untraced", 60);
  std::int64_t cpu_untraced = 0;
  {
    Harness off(w, seed, false);
    off.run(out);
    cpu_untraced = off.cpu();
  }
  watchdog_phase("trace.traced", 60);
  Harness on(w, seed, true);
  on.run(out);
  on.report(out, cpu_untraced);
  if (!trace_path.empty()) {
    watchdog_phase("trace.write", 60);
    if (!on.write_trace(trace_path)) {
      out.violation("could not write " + trace_path);
    }
  }
  return out;
}

}  // namespace e2e
