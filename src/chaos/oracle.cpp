#include "chaos/oracle.hpp"

#include <sstream>

#include "core/network.hpp"
#include "sim/log.hpp"

namespace tpnet {
namespace chaos {

DeliveryOracle::DeliveryOracle(Network &net)
    : net_(net)
{}

void
DeliveryOracle::report(Cycle now, const std::string &what)
{
    std::ostringstream os;
    os << "cycle " << now << ": oracle: " << what;
    violations_.push_back(os.str());
}

DeliveryOracle::Record *
DeliveryOracle::find(MsgId id)
{
    if (id < 0 || static_cast<std::size_t>(id) >= records_.size())
        return nullptr;
    Record &rec = records_[static_cast<std::size_t>(id)];
    return rec.known ? &rec : nullptr;
}

void
DeliveryOracle::messageCreated(Cycle now, const Message &msg)
{
    if (msg.id < 0)
        tpnet_panic("oracle: message created under id ", msg.id);
    const auto at = static_cast<std::size_t>(msg.id);
    if (at >= records_.size())
        records_.resize(at + 1);
    Record &rec = records_[at];
    if (rec.known) {
        std::ostringstream os;
        os << "msg " << msg.id << " created twice";
        report(now, os.str());
        return;
    }
    rec.known = true;
    rec.src = msg.src;
    rec.dst = msg.dst;
    rec.createdAt = now;
    ++createdCount_;
}

void
DeliveryOracle::flitDelivered(Cycle now, NodeId node, const Flit &flit)
{
    (void)node;
    if (flit.type != FlitType::Tail)
        return;
    Record *found = find(flit.msg);
    if (!found) {
        std::ostringstream os;
        os << "tail of unknown msg " << flit.msg << " delivered";
        report(now, os.str());
        return;
    }
    Record &rec = *found;
    ++rec.tails;
    if (rec.tails > 1) {
        std::ostringstream os;
        os << "duplicate delivery: tail of msg " << flit.msg
           << " ejected " << rec.tails << " times";
        report(now, os.str());
    }
    if (rec.terminated) {
        std::ostringstream os;
        os << "tail of msg " << flit.msg
           << " delivered after the message terminated ("
           << msgOutcomeName(rec.outcome) << ")";
        report(now, os.str());
    }
}

void
DeliveryOracle::messageTerminal(Cycle now, const Message &msg,
                                MsgOutcome outcome)
{
    Record *found = find(msg.id);
    if (!found) {
        std::ostringstream os;
        os << "unknown msg " << msg.id << " terminated";
        report(now, os.str());
        return;
    }
    Record &rec = *found;
    if (rec.terminated) {
        std::ostringstream os;
        os << "msg " << msg.id << " terminated twice ("
           << msgOutcomeName(rec.outcome) << " then "
           << msgOutcomeName(outcome) << ")";
        report(now, os.str());
        return;
    }
    rec.terminated = true;
    rec.outcome = outcome;

    const SimConfig &cfg = net_.config();
    std::ostringstream os;
    switch (outcome) {
      case MsgOutcome::Delivered:
        ++deliveredCount_;
        if (rec.tails != 1) {
            os << "msg " << msg.id << " completed with " << rec.tails
               << " tail deliveries (want exactly 1)";
            report(now, os.str());
        }
        if (msg.arrivedFlits != msg.length ||
            msg.injectedFlits != msg.length) {
            os.str("");
            os << "msg " << msg.id << " completed with "
               << msg.arrivedFlits << "/" << msg.length
               << " flits delivered (" << msg.injectedFlits
               << " injected)";
            report(now, os.str());
        }
        break;

      case MsgOutcome::Undeliverable:
        ++undeliverableCount_;
        if (rec.tails != 0) {
            os << "msg " << msg.id
               << " declared undeliverable after its tail was "
                  "delivered";
            report(now, os.str());
        }
        if (msg.retries < cfg.maxRetries &&
            !net_.nodeFaulty(rec.src) && !net_.nodeFaulty(rec.dst)) {
            os.str("");
            os << "msg " << msg.id << " declared undeliverable after "
               << msg.retries << " retries (max " << cfg.maxRetries
               << ") with both endpoints healthy";
            report(now, os.str());
        }
        break;

      case MsgOutcome::Lost:
        ++lostCount_;
        if (cfg.tailAck) {
            os << "msg " << msg.id
               << " lost to a fault despite tail acknowledgments "
                  "(retransmission) being enabled";
            report(now, os.str());
        }
        if (rec.tails != 0) {
            os.str("");
            os << "msg " << msg.id
               << " counted lost after its tail was delivered";
            report(now, os.str());
        }
        break;
    }
}

void
DeliveryOracle::finalCheck()
{
    const Cycle now = net_.now();
    std::size_t unterminated = 0;
    for (std::size_t id = 0; id < records_.size(); ++id) {
        const Record &rec = records_[id];
        if (!rec.known || rec.terminated)
            continue;
        ++unterminated;
        if (unterminated <= 16) {
            std::ostringstream os;
            os << "msg " << id << " (" << rec.src << "->" << rec.dst
               << ", created at cycle " << rec.createdAt
               << ") never terminated";
            report(now, os.str());
        }
    }
    if (unterminated > 16) {
        std::ostringstream os;
        os << (unterminated - 16) << " further unterminated messages";
        report(now, os.str());
    }

    // The oracle's books must agree with the simulator's counters —
    // a divergence means an event fired without its counterpart.
    const Counters &c = net_.counters();
    auto crossCheck = [this, now](const char *what, std::uint64_t mine,
                                  std::uint64_t theirs) {
        if (mine == theirs)
            return;
        std::ostringstream os;
        os << what << " mismatch: oracle saw " << mine
           << ", counters say " << theirs;
        report(now, os.str());
    };
    crossCheck("generated", createdCount_, c.generated);
    crossCheck("delivered", deliveredCount_, c.delivered);
    crossCheck("undeliverable", undeliverableCount_, c.dropped);
    crossCheck("lost", lostCount_, c.lost);
}

} // namespace chaos
} // namespace tpnet
