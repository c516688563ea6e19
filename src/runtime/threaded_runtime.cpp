#include "runtime/threaded_runtime.h"

#include <chrono>
#include <condition_variable>
#include <thread>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace newtop::runtime {

// One HostCore + its owner thread. The core's datagrams are queued as
// commands on the peer worker's mailbox, in FIFO order with that
// worker's application commands; the owner runs them, ticks and flushes.
class ThreadedRuntime::Worker : public MailboxGroupHost {
 public:
  Worker(ProcessId id, const RuntimeConfig& cfg, ThreadedRuntime& rt,
         const util::BufferPoolPtr& pool)
      : MailboxGroupHost(
            id, cfg.endpoint, transport::ChannelConfig{}, cfg.tick_interval,
            pool,
            [this, &rt, pool](transport::PeerId to, util::Bytes data) {
              // Pooled: the receiving worker's last slice release returns
              // the buffer for the next send.
              rt.worker(to).enqueue_host_command(
                  [from = this->id(),
                   view = util::BytesView(pool->share(std::move(data)))](
                      HostCore& c, sim::Time now) mutable {
                    c.on_datagram(from, std::move(view), now);
                  });
            },
            [id, sink = cfg.on_event](const Event& ev) {
              if (sink) sink(id, ev);
            }) {}

  void start() EXCLUDES(join_mutex_) {
    util::MutexLock join_lock(join_mutex_);
    thread_ = std::thread([this] { run(); });
  }

  void stop() EXCLUDES(mailbox_mutex_, join_mutex_) {
    close_mailbox();
    // join_mutex_ serializes concurrent stop() calls (shutdown() racing
    // the destructor from another thread): exactly one caller joins,
    // the rest see joinable() == false. The join cannot hold
    // mailbox_mutex_ — run() acquires it.
    util::MutexLock join_lock(join_mutex_);
    if (thread_.joinable()) thread_.join();
  }

  // Stops the worker without joining it or draining its mailbox.
  void crash() EXCLUDES(mailbox_mutex_) { close_mailbox(); }

  // Crashed or stopped: it delivers nothing more.
  bool stopped() const { return mailbox_closed(); }

 private:
  void wake_owner() override { cv_.notify_all(); }

  void run() EXCLUDES(mailbox_mutex_) {
    while (true) {
      {
        const std::chrono::steady_clock::time_point deadline(
            std::chrono::microseconds(core_.next_deadline(steady_now_us())));
        util::MutexLock lock(mailbox_mutex_);
        // Explicit wait loop rather than the predicate overload: the
        // analysis sees the guarded reads under the held lock.
        while (!closed_ && commands_.empty()) {
          if (cv_.wait_until(lock.native(), deadline) ==
              std::cv_status::timeout) {
            break;
          }
        }
        if (closed_) return;
      }
      const sim::Time now = steady_now_us();
      run_commands(now);
      core_.tick(now);
      core_.flush(now);
    }
  }

  // Assigned by start(), joined by stop(); its own capability so that
  // concurrent stop() calls cannot race on the join (run() never takes
  // join_mutex_, so the joiner holding it cannot deadlock the worker).
  mutable util::Mutex join_mutex_;
  std::thread thread_ GUARDED_BY(join_mutex_);

  std::condition_variable cv_;  // waits on mailbox_mutex_
};

ThreadedRuntime::ThreadedRuntime(std::size_t processes, RuntimeConfig config)
    : cfg_(config) {
  pool_ = util::BufferPool::create(cfg_.pool);
  workers_.reserve(processes);
  for (std::size_t i = 0; i < processes; ++i) {
    workers_.push_back(std::make_unique<Worker>(
        static_cast<ProcessId>(i), cfg_, *this, pool_));
  }
  // Start only after all workers exist: a worker's datagrams resolve
  // their destination worker eagerly.
  for (auto& w : workers_) w->start();
}

ThreadedRuntime::~ThreadedRuntime() { shutdown(); }

void ThreadedRuntime::shutdown() {
  for (auto& w : workers_) w->stop();
}

MailboxGroupHost& ThreadedRuntime::host(ProcessId p) const {
  return worker(p);
}

void ThreadedRuntime::crash(ProcessId p) { worker(p).crash(); }

bool ThreadedRuntime::wait_for_deliveries(GroupId g, std::size_t n,
                                          std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (std::chrono::steady_clock::now() < deadline) {
    bool all = true;
    for (const auto& w : workers_) {
      if (!w->stopped() && w->delivery_count(g) < n) {
        all = false;
        break;
      }
    }
    if (all) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace newtop::runtime
