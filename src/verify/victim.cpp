#include "verify/victim.hpp"

#include <algorithm>

#include "core/network.hpp"

namespace tpnet {
namespace verify {

namespace {

/** VC trios of @p msg's reserved path that it still owns. */
int
hopsHeld(Network &net, const Message &msg)
{
    int held = 0;
    for (const PathHop &hop : msg.path) {
        const VcState &trio = net.vc(hop.link, hop.vc);
        if (trio.owner == msg.id)
            ++held;
    }
    return held;
}

} // namespace

MsgId
selectVictim(Network &net, const std::vector<MsgId> &closure,
             VictimPolicy policy, Rng &rng)
{
    // Canonical candidate order: by id, independent of the closure's
    // discovery order, so every policy is reproducible from the spec.
    std::vector<MsgId> candidates;
    candidates.reserve(closure.size());
    for (MsgId id : closure) {
        const Message *msg = net.findMessage(id);
        // A Delivered message (tail ejected, awaiting its ack) is
        // excluded too: aborting and retransmitting it would deliver
        // twice.
        if (msg && !msg->terminal() && !msg->beingKilled &&
            msg->state != MsgState::Delivered)
            candidates.push_back(id);
    }
    if (candidates.empty())
        return invalidMsg;
    std::sort(candidates.begin(), candidates.end());

    switch (policy) {
      case VictimPolicy::YoungestMessage: {
        // Most recently created loses the least sunk work; ties break
        // toward the larger (later-issued) id.
        MsgId best = candidates.front();
        Cycle bestCreated = net.message(best).created;
        for (MsgId id : candidates) {
            const Cycle created = net.message(id).created;
            if (created > bestCreated ||
                (created == bestCreated && id > best)) {
                best = id;
                bestCreated = created;
            }
        }
        return best;
      }
      case VictimPolicy::FewestHopsHeld: {
        // Cheapest teardown: fewest owned trios; ties break toward the
        // larger id (the younger message, usually).
        MsgId best = candidates.front();
        int bestHeld = hopsHeld(net, net.message(best));
        for (MsgId id : candidates) {
            const int held = hopsHeld(net, net.message(id));
            if (held < bestHeld || (held == bestHeld && id > best)) {
                best = id;
                bestHeld = held;
            }
        }
        return best;
      }
      case VictimPolicy::RandomSeeded:
        return candidates[static_cast<std::size_t>(
            rng.below(candidates.size()))];
    }
    return invalidMsg;
}

} // namespace verify
} // namespace tpnet
