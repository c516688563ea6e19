// Threaded in-process runtime: runs one Newtop process per worker thread
// under real time, with in-memory mailboxes between them.
//
// The protocol engine is single-owner by design (see endpoint.h); this
// host gives each process's HostCore (runtime/host_core.h) exactly one
// owning thread. All inputs — peer datagrams, application commands,
// timer ticks — funnel through a mailbox drained only by the owner, so
// the engine itself needs no locking (CP.2/CP.3: no shared writable
// state). A worker's datagrams are its router's channel packets, posted
// to the destination worker's mailbox; the router's reliable FIFO
// channels (on ChannelConfig defaults) and BatchFrame batching run
// exactly as over the simulated network and UDP.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.h"
#include "core/endpoint.h"
#include "core/group_host_mailbox.h"
#include "sim/time.h"
#include "util/buffer_pool.h"

namespace newtop::runtime {

struct RuntimeConfig {
  Config endpoint;
  sim::Duration tick_interval = 5 * sim::kMillisecond;
  // Runtime-wide buffer pool (shared by all workers): channel packet
  // encodes draw from it, and a receiving worker's release recycles the
  // buffer for the next sender. enabled = false disables pooling.
  util::BufferPoolConfig pool;
  // Application event sink (core/api.h): called on the owner thread of
  // the emitting process, after the worker's observation log recorded
  // the event. Must not block on GroupHandle calls into the same process
  // (those marshal back onto the owner thread and would deadlock).
  std::function<void(ProcessId, const Event&)> on_event;
};

class ThreadedRuntime {
 public:
  ThreadedRuntime(std::size_t processes, RuntimeConfig config);
  ~ThreadedRuntime();

  ThreadedRuntime(const ThreadedRuntime&) = delete;
  ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Application commands; executed asynchronously on the owner thread.
  void create_group(ProcessId p, GroupId g, std::vector<ProcessId> members,
                    GroupOptions options = {}) {
    host(p).create_group(g, std::move(members), std::move(options));
  }
  void initiate_group(ProcessId p, GroupId g, std::vector<ProcessId> members,
                      GroupOptions options = {}) {
    host(p).initiate_group(g, std::move(members), std::move(options));
  }
  // The engine's admission verdict is recorded in the worker's
  // SendCounts (send_counts) and, when `done` is provided, reported
  // through it from the owner thread. A command dropped because the
  // worker stopped/crashed reports kNotMember.
  void multicast(ProcessId p, GroupId g, util::Bytes payload,
                 std::function<void(SendResult)> done = {}) {
    host(p).multicast(g, std::move(payload), std::move(done));
  }
  void leave_group(ProcessId p, GroupId g) { host(p).leave_group(g); }
  // Async join (Endpoint::join_group, docs/STATE_TRANSFER.md): the
  // request is enqueued on the owner thread; progress arrives as
  // StateTransferEvent / MemberJoinedEvent on the event sink. The
  // blocking variant is GroupHandle::join via group(p, g).
  void join_group(ProcessId p, GroupId g, JoinOptions opts) {
    host(p).join_group(g, std::move(opts));
  }
  void crash(ProcessId p);  // stops the worker without draining

  // Facade over process p's membership in g (see api.h). multicast /
  // view / retention_stats marshal onto the owner thread and block for
  // the result — do not call them from an event sink or any code running
  // on that worker's own thread.
  GroupHandle group(ProcessId p, GroupId g) { return GroupHandle(&host(p), g); }

  // Snapshot of everything process p has delivered so far.
  std::vector<Delivery> deliveries(ProcessId p) const {
    return host(p).deliveries();
  }
  // Snapshot of the views process p has installed (per group, in order).
  std::vector<std::pair<GroupId, View>> views(ProcessId p) const {
    return host(p).views();
  }
  // Per-result multicast admission tally for process p.
  SendCounts send_counts(ProcessId p) const { return host(p).send_counts(); }

  // Blocks until every live (not crashed or stopped) process has
  // delivered at least n messages in group g, or the timeout expires.
  // Returns true on success.
  bool wait_for_deliveries(GroupId g, std::size_t n,
                           std::chrono::milliseconds timeout);

  // Stops all workers and joins the threads (idempotent).
  void shutdown();

 private:
  class Worker;

  Worker& worker(ProcessId p) const { return *workers_.at(p); }
  MailboxGroupHost& host(ProcessId p) const;

  RuntimeConfig cfg_;
  util::BufferPoolPtr pool_;
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace newtop::runtime
