#include "core/sim_host.h"

#include "util/check.h"

namespace newtop::simhost {

util::Bytes to_bytes(std::string_view s) {
  return util::Bytes(s.begin(), s.end());
}

std::string to_string(std::span<const std::uint8_t> b) {
  return std::string(b.begin(), b.end());
}

SimProcess::SimProcess(sim::Simulator& simulator, sim::Network& network,
                       ProcessId id, const HostConfig& config,
                       util::BufferPoolPtr pool)
    : HostCore(id, config.endpoint, config.channel, config.tick_interval,
               std::move(pool),
               Io{[this](transport::PeerId to, util::Bytes data) {
                    send_datagram(to, std::move(data));
                  },
                  [this] { return sim_.now(); }, [this] { schedule_flush(); },
                  [this](const Event& ev) {
                    if (app_sink_) app_sink_(ev);
                  }}),
      sim_(simulator),
      net_(network),
      tick_interval_(config.tick_interval) {
  const sim::NodeId node =
      net_.add_node([this](sim::NodeId from, util::SharedBytes data) {
        on_datagram(from, util::BytesView(std::move(data)), sim_.now());
      });
  NEWTOP_CHECK_MSG(node == id, "process ids must be dense from 0");
  schedule_tick();
}

void SimProcess::send_datagram(transport::PeerId to, util::Bytes data) {
  if (sends_until_crash_) {
    if (*sends_until_crash_ == 0) {
      crash();
      return;
    }
    --*sends_until_crash_;
  }
  net_.send(id(), to, std::move(data));
  if (sends_until_crash_ && *sends_until_crash_ == 0) crash();
}

void SimProcess::schedule_flush() {
  if (flush_pending_) return;
  flush_pending_ = true;
  // Zero delay: the event runs after the current event (and anything the
  // test driver does between events) completes, at the same virtual time —
  // batching without adding latency.
  sim_.schedule_after(0, [this] {
    flush_pending_ = false;
    flush(sim_.now());
  });
}

void SimProcess::schedule_tick() {
  sim_.schedule_after(tick_interval_, [this] {
    if (crashed()) return;
    tick(sim_.now());
    schedule_tick();
  });
}

void SimProcess::crash() {
  if (crashed()) return;
  halt();
  net_.set_node_down(id(), true);
}

std::vector<std::string> SimProcess::delivered_strings(GroupId g) const {
  std::vector<std::string> out;
  for (const auto& r : deliveries) {
    if (r.delivery.group == g) out.push_back(to_string(r.delivery.payload));
  }
  return out;
}

SimWorld::SimWorld(WorldConfig config)
    : cfg_(std::move(config)), rng_(cfg_.seed) {
  pool_ = util::BufferPool::create(cfg_.pool);
  sim::NetworkConfig net_cfg = cfg_.network;
  net_cfg.pool = pool_;
  net_ = std::make_unique<sim::Network>(sim_, net_cfg, rng_.fork());
  procs_.reserve(cfg_.processes);
  for (std::size_t i = 0; i < cfg_.processes; ++i) {
    procs_.push_back(std::make_unique<SimProcess>(
        sim_, *net_, static_cast<ProcessId>(i), cfg_.host, pool_));
  }
}

void SimWorld::create_group(GroupId g, const std::vector<ProcessId>& members,
                            GroupOptions options) {
  for (ProcessId p : members) {
    ep(p).create_group(g, members, options, sim_.now());
  }
}

SendResult SimWorld::multicast(ProcessId from, GroupId g,
                               std::string_view payload) {
  return ep(from).multicast(g, to_bytes(payload), sim_.now());
}

void SimWorld::partition(const std::vector<std::set<ProcessId>>& sides) {
  std::vector<std::set<sim::NodeId>> groups;
  groups.reserve(sides.size());
  for (const auto& side : sides) {
    groups.emplace_back(side.begin(), side.end());
  }
  net_->partition(groups);
}

}  // namespace newtop::simhost
