// The host core: one process's protocol engine and transport, wired once
// for every host.
//
// Newtop asks three things of its environment: the sequenced transport
// of §3, time passing (ω-nulls §4.1, Ω-suspicion §5.2) and a place for
// deliveries to go. HostCore is that contract, implemented once. It owns
// one Endpoint and its transport::Router and is the only place that
// builds EndpointHooks: engine sends are buffered in the router and
// leave as BatchFrames at the next flush, relay forwards ride the same
// batches, and every engine event is recorded in the observation log
// before the application sink sees it.
//
// It reads no clock and starts no threads. A host supplies its clock and
// its datagram I/O (Io) and drives the core with four calls: on_datagram
// for every received datagram, tick when time passes, flush once the
// current input has been processed, and next_deadline to know when to
// come back. The discrete-event simulator, the threaded runtime's
// workers and the UDP nodes are such hosts; each keeps only its clock,
// its threads and its I/O.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/endpoint.h"
#include "sim/time.h"
#include "transport/router.h"
#include "util/buffer_pool.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace newtop::runtime {

// Observation records: one engine event and the host time it was
// emitted at.
struct DeliveryRecord {
  sim::Time at = 0;
  Delivery delivery;
};

struct ViewRecord {
  sim::Time at = 0;
  GroupId group = 0;
  View view;
};

struct FormationRecord {
  sim::Time at = 0;
  GroupId group = 0;
  FormationOutcome outcome = FormationOutcome::kFormed;
};

template <typename E>
struct EventRecord {
  sim::Time at = 0;
  E event;
};
using SendWindowRecord = EventRecord<SendWindowEvent>;
using RetentionPressureRecord = EventRecord<RetentionPressureEvent>;
using StateTransferRecord = EventRecord<StateTransferEvent>;
using MemberJoinedRecord = EventRecord<MemberJoinedEvent>;

// Everything one process's engine emitted, in emission order, plus the
// admission verdicts of the core's group_multicast calls.
struct EventLog {
  std::vector<DeliveryRecord> deliveries;
  std::vector<ViewRecord> views;
  std::vector<FormationRecord> formations;
  std::vector<SendWindowRecord> send_windows;
  std::vector<RetentionPressureRecord> retention_pressure;
  std::vector<StateTransferRecord> state_transfers;
  std::vector<MemberJoinedRecord> member_joins;
  SendCounts sends;

  void record(sim::Time at, const Event& ev);
};

class HostCore : public GroupHost {
 public:
  // What the host provides.
  struct Io {
    // Transmits one datagram towards a peer (unreliably).
    transport::Router::SendDatagramFn datagram;
    // The host's clock, read when the engine emits between host calls.
    std::function<sim::Time()> now;
    // Called whenever buffered output awaits flush(). A host that
    // flushes at the end of every pass can ignore it.
    std::function<void()> output_pending;
    // Optional application sink; sees every event after the log.
    EventSink on_event;
  };

  // `tick_interval` is the engine's protocol tick cadence (suspicion,
  // ω-nulls, retention compaction). `channel.pool` is replaced by `pool`.
  HostCore(ProcessId id, const Config& endpoint,
           transport::ChannelConfig channel, sim::Duration tick_interval,
           util::BufferPoolPtr pool, Io io);

  HostCore(const HostCore&) = delete;
  HostCore& operator=(const HostCore&) = delete;

  ProcessId id() const { return router_.self(); }
  Endpoint& endpoint() { return endpoint_; }
  const Endpoint& endpoint() const { return endpoint_; }
  transport::Router& router() { return router_; }

  // A datagram from `from`, as an owned view of its receive buffer.
  void on_datagram(transport::PeerId from, util::BytesView datagram,
                   sim::Time now);
  // Time passes: transport timers due by `now` fire (retransmissions,
  // delayed acks), and the engine ticks once per tick_interval.
  void tick(sim::Time now);
  // The current input has been processed: everything it made the engine
  // send to one peer leaves as one BatchFrame datagram.
  void flush(sim::Time now);
  // When the core next has timer work: the engine's next tick or the
  // router's next retransmission / delayed-ack deadline.
  sim::Time next_deadline(sim::Time now) const;

  // GroupHost: direct calls into the endpoint at the host's now, with
  // multicast verdicts tallied in the log. A halted core answers with the
  // rejecting defaults (the api.h contract for a crashed process).
  SendResult group_multicast(GroupId g, util::Bytes payload) override
      EXCLUDES(log_mutex_);
  void group_leave(GroupId g) override;
  std::optional<View> group_view(GroupId g) override;
  RetentionStats group_retention_stats(GroupId g) override;
  bool group_join(GroupId g, JoinOptions opts) override;

  // A crash: from now on the core ignores every input and the engine's
  // sends go nowhere. Not reversible.
  void halt() { halted_ = true; }
  bool halted() const { return halted_; }

  // Runs fn(const EventLog&) under the log lock and returns its result:
  // the thread-safe read for hosts whose core runs on another thread.
  template <typename Fn>
  auto read_log(Fn&& fn) const EXCLUDES(log_mutex_) {
    util::MutexLock lock(log_mutex_);
    return fn(static_cast<const EventLog&>(log_));
  }
  // Unlocked access, for a host that runs the core on the calling thread
  // (the simulator).
  EventLog& log() NO_THREAD_SAFETY_ANALYSIS { return log_; }

 private:
  // The one place engine outputs are wired: sends into the router's
  // batching path, events into the log and then the application sink.
  EndpointHooks engine_hooks(util::BufferPoolPtr pool);
  void on_event(const Event& ev) EXCLUDES(log_mutex_);

  Io io_;
  sim::Duration tick_interval_;
  sim::Time next_tick_ = 0;  // the first tick() ticks the engine
  bool halted_ = false;
  mutable util::Mutex log_mutex_;
  EventLog log_ GUARDED_BY(log_mutex_);
  transport::Router router_;
  Endpoint endpoint_;
};

}  // namespace newtop::runtime
