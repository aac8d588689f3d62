/**
 * @file
 * Delivery oracle: end-to-end exactly-once accounting.
 *
 * Attached to a Network as its TraceSink, the oracle records every
 * message's creation, every tail ejection, and every terminal
 * disposition, and asserts the protocol's delivery contract (paper
 * Sections 2.4 and 4.0): every injected message terminates in exactly
 * one of
 *
 *   - delivered-once: the tail ejected exactly once and the message
 *     completed (with the end-to-end acknowledgment when TAck is on);
 *   - declared-undeliverable: retries exhausted or a terminal endpoint
 *     failed — never before either condition holds;
 *   - killed-by-fault: lost to a dynamic fault, legal only when tail
 *     acknowledgments (retransmission) are disabled.
 *
 * Duplicated tails, losses under TAck, premature undeliverable
 * declarations, double terminations, and messages that never terminate
 * are all reported as hard violations.
 */

#ifndef TPNET_CHAOS_ORACLE_HPP
#define TPNET_CHAOS_ORACLE_HPP

#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "sim/types.hpp"

namespace tpnet {

class Network;
struct SnapshotAccess;

namespace chaos {

/** TraceSink that audits message lifecycles for exactly-once delivery. */
class DeliveryOracle : public TraceSink
{
    friend struct ::tpnet::SnapshotAccess;

  public:
    explicit DeliveryOracle(Network &net);

    // TraceSink
    void messageCreated(Cycle now, const Message &msg) override;
    void messageTerminal(Cycle now, const Message &msg,
                         MsgOutcome outcome) override;
    void flitDelivered(Cycle now, NodeId node, const Flit &flit) override;

    /**
     * End-of-campaign audit. Expects a quiescent network: any created
     * message without a terminal disposition is a violation, as is any
     * mismatch between the oracle's books and the network's counters.
     */
    void finalCheck();

    const std::vector<std::string> &violations() const
    {
        return violations_;
    }

    std::uint64_t created() const { return createdCount_; }
    std::uint64_t deliveredOnce() const { return deliveredCount_; }

  private:
    void report(Cycle now, const std::string &what);

    struct Record
    {
        NodeId src = invalidNode;
        NodeId dst = invalidNode;
        Cycle createdAt = 0;
        int tails = 0;          ///< tail flits ejected at the destination
        bool known = false;     ///< created while the oracle watched
        bool terminated = false;
        MsgOutcome outcome = MsgOutcome::Delivered;
    };

    /** @return the record of @p id, or nullptr if it was never created. */
    Record *find(MsgId id);

    Network &net_;
    /// Indexed by id: the network issues ids densely from 0, so only an
    /// oracle attached late holds unknown entries (below its first id).
    std::vector<Record> records_;
    std::vector<std::string> violations_;
    std::uint64_t createdCount_ = 0;
    std::uint64_t deliveredCount_ = 0;
    std::uint64_t undeliverableCount_ = 0;
    std::uint64_t lostCount_ = 0;
};

} // namespace chaos
} // namespace tpnet

#endif // TPNET_CHAOS_ORACLE_HPP
