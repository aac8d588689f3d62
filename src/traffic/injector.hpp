/**
 * @file
 * Message generator with injection-side congestion control.
 *
 * Each traffic class generates at every healthy node with probability
 * load / L per cycle (a Bernoulli process whose mean offered load is the
 * class's flits/node/cycle). Without SimConfig::trafficClasses the run
 * is one such class built from pattern/load/msgLength. Generation that
 * finds the 8-message injection queue full is rejected by
 * Network::offerMessage and counted there (Counters::notAccepted) —
 * the paper's congestion control: "If the input buffers are filled,
 * messages cannot be injected into the network until a message in the
 * buffer has been routed" (Section 6.0).
 *
 * The workload library (DESIGN.md Section 6j) adds several classes with
 * independent patterns, rates, lengths, and priorities; optional on-off
 * (bursty) modulation per (node, class); and optional closed-loop
 * request-reply operation with a finite outstanding-transaction budget
 * per node.
 */

#ifndef TPNET_TRAFFIC_INJECTOR_HPP
#define TPNET_TRAFFIC_INJECTOR_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "core/network.hpp"
#include "traffic/pattern.hpp"

namespace tpnet {

struct SnapshotAccess;

/** Drives traffic generation for a Network, one call per cycle. */
class Injector : public RetireListener
{
    friend struct SnapshotAccess;

  public:
    explicit Injector(Network &net);
    ~Injector() override;

    Injector(const Injector &) = delete;
    Injector &operator=(const Injector &) = delete;

    /** Generate this cycle's messages (call before Network::step()).
     *  Also flushes deferred closed-loop replies, including after
     *  stop() — drain phases must keep calling step(). */
    void step();

    /** Stop generating new (non-reply) messages (drain phases). */
    void stop() { stopped_ = true; }

    /**
     * step() is a guaranteed no-op (stopped or zero offered load, and
     * no deferred reply waiting): no RNG draw, no message — the
     * precondition for a driver to cycle-skip without desynchronizing
     * the traffic stream.
     */
    bool
    inert() const
    {
        return pendingReplies_.empty() && (stopped_ || !armed_);
    }

    std::uint64_t offered() const { return offered_; }

    /** Closed-loop replies awaiting injection-queue space. */
    bool repliesPending() const { return !pendingReplies_.empty(); }

    /** RetireListener: recycle closed-loop budget, queue replies. */
    void messageRetired(Cycle now, const Message &msg) override;

  private:
    /** Per-class runtime state derived from TrafficClassConfig. */
    struct ClassRt
    {
        TrafficSource source;
        double prob = 0.0;     ///< per-node per-cycle generation prob
        double onProb = 0.0;   ///< generation prob while ON (bursty)
        double pOnToOff = 0.0;
        double pOffToOn = 0.0;
        bool bursty = false;
        int length = 0;        ///< request data flits
        int replyLength = 0;   ///< reply data flits (closed loop)
        int outstanding = 0;   ///< per-node budget; 0 = open loop
    };

    /** A reply waiting for injection-queue space at its source. */
    struct PendingReply
    {
        NodeId src;       ///< the delivered request's destination
        NodeId dst;       ///< the requester
        int cls;
        int length;
        MsgId reqId;
        Cycle reqCreated;
        bool e2eMeasured;
    };

    void flushReplies();
    void releaseBudget(int cls, NodeId requester);

    Network &net_;
    bool stopped_ = false;
    bool armed_ = false;    ///< any source can ever generate
    std::uint64_t offered_ = 0;

    // Per-class state.
    std::vector<ClassRt> classes_;
    std::vector<int> classOrder_;       ///< priority desc, index asc
    std::vector<std::uint8_t> burstOn_; ///< [cls * nodes + node]
    std::vector<int> outBudget_;        ///< in-flight per [cls*nodes+node]
    std::deque<PendingReply> pendingReplies_;
    bool listening_ = false;
};

} // namespace tpnet

#endif // TPNET_TRAFFIC_INJECTOR_HPP
