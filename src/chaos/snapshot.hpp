/**
 * @file
 * The whole-harness state hash: fold the complete dynamic state of a
 * running campaign harness into one 64-bit digest.
 *
 * What is hashed is exactly the dynamic state: both network RNG
 * streams, every link's virtual-channel trios and control queues, every
 * router's RCU queue and crossbar maps, every live message (header,
 * path, history store, gates), the injection queues, counters, the CWG
 * analyzer's full wait graph, the fault timeline position, the delivery
 * oracle's books, the watchdog's progress tracks, and the injector
 * gate. Configuration-derived state (geometry, routing protocol,
 * topology, trace attachment) and derived state (the ready sets) are
 * left out.
 *
 * All unordered containers are folded in sorted key order, and a ring
 * in pop order, so equal states hash alike whatever their insertion
 * history or ring layout. Two runs of one spec that must agree (engine
 * on vs off, jobs 1 vs N) compare this digest (DESIGN.md §6h).
 *
 * The field lists live in one TU (snapshot.cpp), one routine per type,
 * driven by obs::StateHasher.
 */

#ifndef TPNET_CHAOS_SNAPSHOT_HPP
#define TPNET_CHAOS_SNAPSHOT_HPP

#include <cstdint>

namespace tpnet {

class Network;
class Rng;
class Injector;

namespace chaos {

class DeliveryOracle;
class FaultSchedule;
class Watchdog;

/** The live harness objects of one campaign run (all non-null). */
struct CampaignState
{
    const Network *net = nullptr;
    const Rng *faultRng = nullptr;
    const FaultSchedule *schedule = nullptr;
    const DeliveryOracle *oracle = nullptr;
    const Watchdog *watchdog = nullptr;
    const Injector *injector = nullptr;
};

/** FNV-1a 64 digest of the harness state. */
std::uint64_t campaignStateDigest(const CampaignState &st);

} // namespace chaos
} // namespace tpnet

#endif // TPNET_CHAOS_SNAPSHOT_HPP
