#include "runtime/host_core.h"

#include <algorithm>
#include <utility>

namespace newtop::runtime {

void EventLog::record(sim::Time at, const Event& ev) {
  if (const auto* d = std::get_if<DeliveryEvent>(&ev)) {
    deliveries.push_back(DeliveryRecord{at, d->delivery});
  } else if (const auto* v = std::get_if<ViewChangeEvent>(&ev)) {
    views.push_back(ViewRecord{at, v->group, v->view});
  } else if (const auto* f = std::get_if<FormationEvent>(&ev)) {
    formations.push_back(FormationRecord{at, f->group, f->outcome});
  } else if (const auto* s = std::get_if<SendWindowEvent>(&ev)) {
    send_windows.push_back(SendWindowRecord{at, *s});
  } else if (const auto* r = std::get_if<RetentionPressureEvent>(&ev)) {
    retention_pressure.push_back(RetentionPressureRecord{at, *r});
  } else if (const auto* st = std::get_if<StateTransferEvent>(&ev)) {
    state_transfers.push_back(StateTransferRecord{at, *st});
  } else if (const auto* mj = std::get_if<MemberJoinedEvent>(&ev)) {
    member_joins.push_back(MemberJoinedRecord{at, *mj});
  }
}

namespace {

transport::ChannelConfig pooled(transport::ChannelConfig channel,
                                util::BufferPoolPtr pool) {
  channel.pool = std::move(pool);
  return channel;
}

}  // namespace

HostCore::HostCore(ProcessId id, const Config& endpoint,
                   transport::ChannelConfig channel,
                   sim::Duration tick_interval, util::BufferPoolPtr pool, Io io)
    : io_(std::move(io)),
      tick_interval_(tick_interval),
      router_(id, pooled(std::move(channel), pool),
              [this](transport::PeerId to, util::Bytes data) {
                // A crash can land mid-flush (crash_after_sends): the
                // rest of that flush is lost with the process.
                if (!halted_) io_.datagram(to, std::move(data));
              },
              [this](transport::PeerId from, util::BytesView payload) {
                if (halted_) return;
                endpoint_.on_message(from, std::move(payload), io_.now());
              }),
      endpoint_(id, endpoint, engine_hooks(std::move(pool))) {}

EndpointHooks HostCore::engine_hooks(util::BufferPoolPtr pool) {
  EndpointHooks hooks;
  hooks.send = [this](ProcessId to, util::SharedBytes data) {
    if (halted_) return;
    router_.send_buffered(to, std::move(data), io_.now());
    io_.output_pending();
  };
  hooks.send_relay = [this](ProcessId to, util::BytesView data) {
    if (halted_) return;
    // Zero-copy relay forward: the received slice goes straight into the
    // channel, keeping its arrival datagram alive.
    router_.send_relayed(to, std::move(data), io_.now());
    io_.output_pending();
  };
  hooks.on_event = [this](const Event& ev) { on_event(ev); };
  hooks.buffer_pool = std::move(pool);
  return hooks;
}

void HostCore::on_datagram(transport::PeerId from, util::BytesView datagram,
                           sim::Time now) {
  if (halted_) return;
  router_.on_datagram(from, std::move(datagram), now);
  // Whatever the engine sent in response piggybacks the ack this datagram
  // deferred once it is flushed.
  io_.output_pending();
}

void HostCore::tick(sim::Time now) {
  if (halted_) return;
  router_.tick(now);
  if (now >= next_tick_) {
    endpoint_.on_tick(now);
    next_tick_ = now + tick_interval_;
  }
}

void HostCore::flush(sim::Time now) {
  if (!halted_) router_.flush_batches(now);
}

sim::Time HostCore::next_deadline(sim::Time now) const {
  return std::min(next_tick_, router_.next_deadline(now));
}

SendResult HostCore::group_multicast(GroupId g, util::Bytes payload) {
  if (halted_) return SendResult::kNotMember;
  const SendResult r = endpoint_.multicast(g, std::move(payload), io_.now());
  util::MutexLock lock(log_mutex_);
  log_.sends.note(r);
  return r;
}

void HostCore::group_leave(GroupId g) {
  if (!halted_) endpoint_.leave_group(g, io_.now());
}

std::optional<View> HostCore::group_view(GroupId g) {
  const View* v = halted_ ? nullptr : endpoint_.view(g);
  return v != nullptr ? std::optional<View>(*v) : std::nullopt;
}

RetentionStats HostCore::group_retention_stats(GroupId g) {
  return halted_ ? RetentionStats{} : endpoint_.retention_stats(g);
}

bool HostCore::group_join(GroupId g, JoinOptions opts) {
  return !halted_ && endpoint_.join_group(g, std::move(opts), io_.now());
}

void HostCore::on_event(const Event& ev) {
  {
    util::MutexLock lock(log_mutex_);
    log_.record(io_.now(), ev);
  }
  // The sink runs outside the log lock: it may read the log.
  if (io_.on_event) io_.on_event(ev);
}

}  // namespace newtop::runtime
