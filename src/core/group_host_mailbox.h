// A HostCore on its own thread, behind a blocking GroupHost facade.
//
// Hosts whose core lives on an owner thread (a ThreadedRuntime worker, a
// UdpNode driven by its transport's loop) share everything but their
// I/O and their thread, and this base holds that share once:
//  - the HostCore itself (owner-thread only);
//  - the command mailbox: application calls are queued as commands and
//    run by the owner thread at its next pass (run_commands). Once the
//    mailbox is closed, new commands are refused and the queued ones are
//    destroyed unexecuted, outside the mailbox lock;
//  - the command wrappers (create, initiate, leave, join, multicast) and
//    the GroupHandle facade. A blocking call marshals onto the owner,
//    waits on a promise and degrades to the rejecting default when its
//    command is refused or destroyed unexecuted (the broken promise is
//    the signal). Do not call the blocking methods from the owner thread
//    itself — they would deadlock on their own mailbox;
//  - thread-safe snapshots of the core's observation log.
// A host supplies its datagram I/O, its wake-up and its pass loop.
#pragma once

#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "core/endpoint.h"
#include "runtime/host_core.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace newtop {

// The real-time clock of the threaded hosts: steady microseconds.
inline sim::Time steady_now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class MailboxGroupHost : public GroupHost {
 public:
  using HostCommand = std::function<void(runtime::HostCore&, sim::Time)>;

  ProcessId id() const { return core_.id(); }

  // ---- Application commands (asynchronous, run on the owner thread) ---

  void create_group(GroupId g, std::vector<ProcessId> members,
                    GroupOptions options = {}) {
    enqueue_host_command(
        [g, members = std::move(members), options = std::move(options)](
            runtime::HostCore& c, sim::Time now) {
          c.endpoint().create_group(g, members, options, now);
        });
  }

  void initiate_group(GroupId g, std::vector<ProcessId> members,
                      GroupOptions options = {}) {
    enqueue_host_command(
        [g, members = std::move(members), options = std::move(options)](
            runtime::HostCore& c, sim::Time now) {
          c.endpoint().initiate_group(g, members, options, now);
        });
  }

  void leave_group(GroupId g) {
    enqueue_host_command([g](runtime::HostCore& c, sim::Time now) {
      c.endpoint().leave_group(g, now);
    });
  }

  // Progress arrives as StateTransferEvent / MemberJoinedEvent; the
  // blocking variant is GroupHandle::join.
  void join_group(GroupId g, JoinOptions opts) {
    enqueue_host_command(
        [g, opts = std::move(opts)](runtime::HostCore& c,
                                    sim::Time now) mutable {
          c.endpoint().join_group(g, std::move(opts), now);
        });
  }

  // The verdict is tallied in send_counts and, when `done` is set,
  // reported through it from the owner thread — exactly once: a command
  // refused or destroyed unexecuted reports kNotMember.
  void multicast(GroupId g, util::Bytes payload,
                 std::function<void(SendResult)> done = {}) {
    auto guard = std::make_shared<SendCompletion>();
    guard->fn = std::move(done);
    const bool queued = enqueue_host_command(
        [g, payload = std::move(payload), guard](runtime::HostCore& c,
                                                 sim::Time) mutable {
          (*guard)(c.group_multicast(g, std::move(payload)));
        });
    if (!queued) (*guard)(SendResult::kNotMember);
  }

  // ---- GroupHost: the core's, marshalled onto the owner thread --------

  SendResult group_multicast(GroupId g, util::Bytes payload) override {
    return marshal<SendResult>(
        SendResult::kNotMember,
        [g, payload = std::move(payload)](runtime::HostCore& c,
                                          sim::Time) mutable {
          return c.group_multicast(g, std::move(payload));
        });
  }

  void group_leave(GroupId g) override { leave_group(g); }

  std::optional<View> group_view(GroupId g) override {
    return marshal<std::optional<View>>(
        std::nullopt,
        [g](runtime::HostCore& c, sim::Time) { return c.group_view(g); });
  }

  RetentionStats group_retention_stats(GroupId g) override {
    return marshal<RetentionStats>(RetentionStats{},
                                   [g](runtime::HostCore& c, sim::Time) {
                                     return c.group_retention_stats(g);
                                   });
  }

  bool group_join(GroupId g, JoinOptions opts) override {
    return marshal<bool>(
        false, [g, opts = std::move(opts)](runtime::HostCore& c,
                                           sim::Time) mutable {
          return c.group_join(g, std::move(opts));
        });
  }

  // ---- Thread-safe observation snapshots -------------------------------

  std::vector<Delivery> deliveries() const {
    return core_.read_log([](const runtime::EventLog& log) {
      std::vector<Delivery> out;
      out.reserve(log.deliveries.size());
      for (const auto& r : log.deliveries) out.push_back(r.delivery);
      return out;
    });
  }

  // The views installed, per group, in order.
  std::vector<std::pair<GroupId, View>> views() const {
    return core_.read_log([](const runtime::EventLog& log) {
      std::vector<std::pair<GroupId, View>> out;
      out.reserve(log.views.size());
      for (const auto& r : log.views) out.emplace_back(r.group, r.view);
      return out;
    });
  }

  std::size_t delivery_count(GroupId g) const {
    return core_.read_log([g](const runtime::EventLog& log) {
      std::size_t n = 0;
      for (const auto& r : log.deliveries) {
        if (r.delivery.group == g) ++n;
      }
      return n;
    });
  }

  // Per-result multicast admission tally.
  SendCounts send_counts() const {
    return core_.read_log(
        [](const runtime::EventLog& log) { return log.sends; });
  }

 protected:
  MailboxGroupHost(ProcessId id, const Config& endpoint,
                   transport::ChannelConfig channel,
                   sim::Duration tick_interval, util::BufferPoolPtr pool,
                   transport::Router::SendDatagramFn datagram,
                   EventSink on_event)
      : core_(id, endpoint, std::move(channel), tick_interval,
              std::move(pool),
              runtime::HostCore::Io{std::move(datagram), steady_now_us,
                                    [] {}, std::move(on_event)}) {}
  ~MailboxGroupHost() = default;

  // Wakes the owner thread: a command was queued or the mailbox closed.
  virtual void wake_owner() = 0;

  // Queues fn for the owner thread; false when the mailbox is closed.
  bool enqueue_host_command(HostCommand fn) EXCLUDES(mailbox_mutex_) {
    {
      util::MutexLock lock(mailbox_mutex_);
      if (closed_) return false;
      commands_.push_back(std::move(fn));
    }
    wake_owner();
    return true;
  }

  // Owner thread: runs every queued command.
  void run_commands(sim::Time now) EXCLUDES(mailbox_mutex_) {
    std::deque<HostCommand> cmds;
    {
      util::MutexLock lock(mailbox_mutex_);
      cmds.swap(commands_);
    }
    for (auto& cmd : cmds) cmd(core_, now);
  }

  // Refuses every later command and destroys the queued ones unexecuted —
  // outside the lock, because their guards and broken promises run
  // application callbacks, which may re-enter this host.
  void close_mailbox() EXCLUDES(mailbox_mutex_) {
    std::deque<HostCommand> dropped;
    {
      util::MutexLock lock(mailbox_mutex_);
      closed_ = true;
      dropped.swap(commands_);
    }
    wake_owner();
  }

  bool mailbox_closed() const EXCLUDES(mailbox_mutex_) {
    util::MutexLock lock(mailbox_mutex_);
    return closed_;
  }

  // Marshals a blocking call onto the owner thread: enqueues `fn`,
  // blocks on its promise, and returns `fallback` when the host stopped
  // before running it (dropped command = broken promise).
  template <typename T, typename Fn>
  T marshal(T fallback, Fn&& fn) {
    auto prom = std::make_shared<std::promise<T>>();
    std::future<T> fut = prom->get_future();
    const bool queued = enqueue_host_command(
        [prom, fn = std::forward<Fn>(fn)](runtime::HostCore& c,
                                          sim::Time now) mutable {
          prom->set_value(fn(c, now));
        });
    if (!queued) return fallback;
    try {
      return fut.get();
    } catch (const std::future_error&) {
      return fallback;  // mailbox closed with the command still queued
    }
  }

  runtime::HostCore core_;  // owner-thread only, except read_log

  mutable util::Mutex mailbox_mutex_;
  std::deque<HostCommand> commands_ GUARDED_BY(mailbox_mutex_);
  bool closed_ GUARDED_BY(mailbox_mutex_) = false;

 private:
  // Completion guard: reports kNotMember from its destructor when the
  // command carrying it is destroyed unexecuted.
  struct SendCompletion {
    std::function<void(SendResult)> fn;
    bool fired = false;

    void operator()(SendResult r) {
      fired = true;
      if (fn) fn(r);
    }
    ~SendCompletion() {
      if (fn && !fired) fn(SendResult::kNotMember);
    }
  };
};

}  // namespace newtop
