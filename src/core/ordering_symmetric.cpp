// The symmetric ordering discipline (§4.1): every member multicasts
// directly on its own logical-clock stream; delivery is gated by
// D = min over the view of the receive vector, so every member's stream
// must keep moving (time-silence does that for quiet members, and owed
// nulls for members a received message is waiting on).
#include "core/ordering.h"

namespace newtop {

namespace {

class SymmetricPlane final : public OrderingPlane {
 public:
  using OrderingPlane::OrderingPlane;

  void submit_app(GroupCtx& g, util::Bytes payload, Time now) override {
    host_.multicast_self(g, MsgType::kApp, std::move(payload), now);
  }

  Accept accept(GroupCtx& g, const OrderedMsg& m, Time now) override {
    (void)now;
    if (!advance_stream(m.emitter, m.counter)) {
      ++host_.mutable_stats().duplicates_dropped;
      return Accept::kStale;
    }
    // D waits on our stream too: foreign content stamped above it is a
    // debt our next emission pays (GroupCtx::owed_from). Nulls never
    // owe, so an idle group's null rate cannot grow.
    const Counter own = rv(host_.self());
    if (m.type != MsgType::kNull && m.emitter != host_.self() &&
        m.counter > own && g.opts.guarantee == Guarantee::kTotalOrder) {
      g.owed_from =
          g.owed_from > own ? std::min(g.owed_from, m.counter) : m.counter;
    }
    return Accept::kFresh;
  }

  Counter group_d(const GroupCtx& g) const override {
    Counter d = kCounterMax;
    for (ProcessId p : g.view.members) d = std::min(d, rv(p));
    return d == kCounterMax ? 0 : d;
  }

  bool streams_passed(const GroupCtx& g, Counter n) const override {
    for (ProcessId p : g.view.members) {
      if (rv(p) < n) return false;
    }
    return true;
  }

  std::size_t own_unstable(const GroupCtx& g) const override {
    auto it = g.retained.find(host_.self());
    return it != g.retained.end() ? it->second.size() : 0;
  }
};

}  // namespace

std::unique_ptr<OrderingPlane> make_symmetric_plane(PlaneHost& host) {
  return std::make_unique<SymmetricPlane>(host);
}

}  // namespace newtop
