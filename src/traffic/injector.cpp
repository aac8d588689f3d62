#include "traffic/injector.hpp"

#include <algorithm>

#include "sim/log.hpp"

namespace tpnet {

Injector::Injector(Network &net)
    : net_(net)
{
    const SimConfig &cfg = net_.config();
    armed_ = cfg.trafficArmed();

    // Without workload classes the run is one smooth open-loop class
    // built from pattern/load/msgLength, with no per-class counters.
    std::vector<TrafficClassConfig> specs = cfg.trafficClasses;
    if (specs.empty()) {
        TrafficClassConfig tc;
        tc.pattern = cfg.pattern;
        tc.load = cfg.load;
        specs.push_back(tc);
    }

    const int nodes = net_.topo().nodes();
    bool closedLoop = false;
    for (const TrafficClassConfig &tc : specs) {
        ClassRt rt{TrafficSource(tc, net_.topo())};
        rt.length = tc.msgLength > 0 ? tc.msgLength : cfg.msgLength;
        rt.prob = tc.load / static_cast<double>(rt.length);
        // On-off modulation: mean ON-burst length burstLen cycles, long
        // run ON fraction duty, generation boosted to prob/duty while
        // ON so the mean offered load stays tc.load. duty == 1 is a
        // source that is always ON, i.e. the smooth process.
        rt.bursty = tc.burstLen > 0 && tc.burstDuty < 1.0;
        if (rt.bursty) {
            const double len = static_cast<double>(tc.burstLen);
            rt.pOnToOff = 1.0 / len;
            rt.pOffToOn = tc.burstDuty /
                ((1.0 - tc.burstDuty) * len);
            rt.onProb = std::min(1.0, rt.prob / tc.burstDuty);
        }
        rt.outstanding = tc.outstanding;
        rt.replyLength = tc.replyLength > 0 ? tc.replyLength : rt.length;
        closedLoop = closedLoop || tc.outstanding > 0;
        classes_.push_back(std::move(rt));
    }

    classOrder_.resize(classes_.size());
    for (std::size_t i = 0; i < classOrder_.size(); ++i)
        classOrder_[i] = static_cast<int>(i);
    std::stable_sort(classOrder_.begin(), classOrder_.end(),
                     [&specs](int a, int b) {
                         return specs[static_cast<std::size_t>(a)].priority >
                             specs[static_cast<std::size_t>(b)].priority;
                     });

    burstOn_.assign(classes_.size() * static_cast<std::size_t>(nodes), 0);
    outBudget_.assign(classes_.size() * static_cast<std::size_t>(nodes), 0);
    if (!cfg.trafficClasses.empty())
        net_.counters().classes.resize(classes_.size());

    if (closedLoop) {
        net_.attachRetireListener(this);
        listening_ = true;
    }
}

Injector::~Injector()
{
    if (listening_)
        net_.attachRetireListener(nullptr);
}

void
Injector::releaseBudget(int cls, NodeId requester)
{
    const std::size_t slot = static_cast<std::size_t>(cls) *
            static_cast<std::size_t>(net_.topo().nodes()) +
        static_cast<std::size_t>(requester);
    if (outBudget_[slot] <= 0)
        tpnet_panic("closed-loop budget underflow at node ", requester);
    --outBudget_[slot];
    --net_.counters().closedLoopPending;
}

void
Injector::messageRetired(Cycle, const Message &msg)
{
    if (msg.cls < 0 || msg.cls >= static_cast<int>(classes_.size()))
        return;
    const ClassRt &rt = classes_[static_cast<std::size_t>(msg.cls)];
    if (rt.outstanding <= 0)
        return;

    if (msg.isReply) {
        // Transaction over (reply.dst is the original requester).
        releaseBudget(msg.cls, msg.dst);
        if (msg.e2eMeasured)
            --net_.counters().e2ePending;
        if (msg.state == MsgState::Complete)
            ++net_.counters().repliesDelivered;
        else
            ++net_.counters().repliesAbandoned;
        return;
    }

    if (msg.state != MsgState::Complete) {
        // Request died; the budget slot frees without a reply.
        releaseBudget(msg.cls, msg.src);
        if (msg.measured)
            --net_.counters().e2ePending;
        return;
    }

    // Delivered request: answer it. Injection is deferred to the next
    // step() — the network is mid-retirement here.
    pendingReplies_.push_back(PendingReply{msg.dst, msg.src, msg.cls,
                                           rt.replyLength, msg.id,
                                           msg.created, msg.measured});
}

void
Injector::flushReplies()
{
    if (pendingReplies_.empty())
        return;
    const std::size_t limit =
        static_cast<std::size_t>(net_.config().injQueueLimit);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < pendingReplies_.size(); ++i) {
        const PendingReply &pr = pendingReplies_[i];
        if (net_.nodeFaulty(pr.src) || net_.nodeFaulty(pr.dst)) {
            // An endpoint died while the reply waited: the transaction
            // can never finish, so free its budget slot.
            ++net_.counters().repliesAbandoned;
            releaseBudget(pr.cls, pr.dst);
            if (pr.e2eMeasured)
                --net_.counters().e2ePending;
            continue;
        }
        if (net_.injQueueLen(pr.src) >= limit) {
            // No queue space: try again next cycle (order preserved).
            pendingReplies_[kept++] = pr;
            continue;
        }
        OfferSpec spec;
        spec.cls = pr.cls;
        spec.length = pr.length;
        spec.isReply = true;
        spec.reqId = pr.reqId;
        spec.reqCreated = pr.reqCreated;
        spec.e2eMeasured = pr.e2eMeasured;
        ++offered_;
        ++net_.counters().repliesGenerated;
        if (!net_.offerMessage(pr.src, pr.dst, spec))
            tpnet_panic("reply rejected despite queue-space check");
    }
    pendingReplies_.resize(kept);
}

void
Injector::step()
{
    flushReplies();
    if (stopped_ || !armed_)
        return;
    Rng &rng = net_.rng();
    const int nodes = net_.topo().nodes();
    for (int ci : classOrder_) {
        ClassRt &rt = classes_[static_cast<std::size_t>(ci)];
        const std::size_t base = static_cast<std::size_t>(ci) *
            static_cast<std::size_t>(nodes);
        for (NodeId src = 0; src < nodes; ++src) {
            if (net_.nodeFaulty(src))
                continue;
            double prob = rt.prob;
            if (rt.bursty) {
                std::uint8_t &on = burstOn_[base +
                                            static_cast<std::size_t>(src)];
                if (on) {
                    if (rng.chance(rt.pOnToOff))
                        on = 0;
                } else if (rng.chance(rt.pOffToOn)) {
                    on = 1;
                }
                if (!on)
                    continue;
                prob = rt.onProb;
            }
            if (prob <= 0.0)
                continue;
            if (rt.outstanding > 0 &&
                outBudget_[base + static_cast<std::size_t>(src)] >=
                    rt.outstanding) {
                continue;  // budget exhausted: wait for replies
            }
            if (!rng.chance(prob))
                continue;
            const NodeId dst = rt.source.pick(net_, src, rng);
            if (dst == invalidNode)
                continue;
            OfferSpec spec;
            spec.cls = ci;
            spec.length = rt.length;
            ++offered_;
            if (net_.offerMessage(src, dst, spec) && rt.outstanding > 0) {
                ++outBudget_[base + static_cast<std::size_t>(src)];
                ++net_.counters().closedLoopPending;
                if (net_.measuring())
                    ++net_.counters().e2ePending;
            }
        }
    }
}

} // namespace tpnet
