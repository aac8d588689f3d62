#include "sim/config.hpp"

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "sim/log.hpp"

namespace tpnet {

bool
defaultEventEngine()
{
    const char *env = std::getenv("TPNET_EVENT_ENGINE");
    if (env && (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0))
        return false;
    return true;
}

int
SimConfig::nodes() const
{
    if (topology == TopologyKind::Dragonfly)
        return (dfRouters * dfGlobal + 1) * dfRouters;
    int total = 1;
    for (int d = 0; d < n; ++d)
        total *= k;
    return total;
}

int
SimConfig::radix() const
{
    switch (topology) {
      case TopologyKind::Express:   return 4 * n;
      case TopologyKind::Dragonfly: return dfRouters - 1 + dfGlobal;
      default:                      return 2 * n;
    }
}

bool
SimConfig::trafficArmed() const
{
    if (trafficClasses.empty())
        return load > 0.0;
    for (const auto &tc : trafficClasses)
        if (tc.load > 0.0)
            return true;
    return false;
}

namespace {

/// Patterns defined on the binary expansion of the node index need a
/// power-of-two node count to be permutations.
bool
patternNeedsPow2(TrafficPattern p)
{
    return p == TrafficPattern::BitReversal || p == TrafficPattern::Shuffle;
}

} // namespace

void
SimConfig::validate() const
{
    const TopologyKind topo = topology;
    const bool isCube = topo != TopologyKind::Dragonfly;
    if (isCube) {
        if (k < 2)
            tpnet_fatal("k must be >= 2 (got ", k, ")");
        if (n < 1 || n > maxDims)
            tpnet_fatal("n must be in [1, ", maxDims, "] (got ", n, ")");
    }
    if (adaptiveVcs < 0 || escapeVcs < 1)
        tpnet_fatal("need at least one escape VC per link");
    switch (topo) {
      case TopologyKind::Torus:
        if (escapeVcs < 2 && k > 2)
            tpnet_fatal("torus deadlock freedom requires 2 escape (dateline) "
                        "VC classes; got ", escapeVcs);
        break;
      case TopologyKind::Mesh:
        break;
      case TopologyKind::Express:
        if (expressGap < 2 || expressGap >= k)
            tpnet_fatal("express gap must be in [2, k) (got ", expressGap,
                        " for k=", k, ")");
        if (escapeVcs < 2)
            tpnet_fatal("torus deadlock freedom requires 2 escape (dateline) "
                        "VC classes; got ", escapeVcs);
        break;
      case TopologyKind::Dragonfly:
        if (dfRouters < 2)
            tpnet_fatal("dragonfly needs at least 2 routers per group "
                        "(got ", dfRouters, ")");
        if (dfGlobal < 1)
            tpnet_fatal("dragonfly needs at least 1 global channel per "
                        "router (got ", dfGlobal, ")");
        if (escapeVcs < 2)
            tpnet_fatal("dragonfly escape routing requires 2 VC classes "
                        "(foreign group, destination group); got ",
                        escapeVcs);
        break;
    }
    if (radix() > maxPorts)
        tpnet_fatal("router radix ", radix(), " exceeds the supported "
                    "maximum of ", maxPorts, " ports");
    if ((protocol == Protocol::Duato || protocol == Protocol::TwoPhase) &&
        adaptiveVcs < 1) {
        tpnet_fatal("DP/TP require at least one adaptive VC");
    }
    if (bufDepth < 1 || bufDepth > maxBufDepth)
        tpnet_fatal("bufDepth must be in [1, ", maxBufDepth, "] (got ",
                    bufDepth, ")");
    if (vcsPerLink() > maxVcsPerLink)
        tpnet_fatal("at most ", maxVcsPerLink, " VCs per link (got ",
                    vcsPerLink(), ")");
    if (msgLength < 1)
        tpnet_fatal("msgLength must be >= 1");
    if (scoutK < 0)
        tpnet_fatal("scoutK must be >= 0");
    if (misrouteLimit < 0)
        tpnet_fatal("misrouteLimit must be >= 0");
    if (load < 0.0 || load > static_cast<double>(radix()))
        tpnet_fatal("offered load ", load, " out of range");
    if (injQueueLimit < 1)
        tpnet_fatal("injQueueLimit must be >= 1");
    if (retryBackoff < 1)
        tpnet_fatal("retryBackoff must be >= 1");
    if (staticNodeFaults < 0 || staticNodeFaults >= nodes())
        tpnet_fatal("staticNodeFaults out of range");
    if (staticLinkFaults < 0)
        tpnet_fatal("staticLinkFaults out of range");
    if (dynamicNodeFaults < 0.0 || dynamicLinkFaults < 0.0 ||
        intermittentFaults < 0.0) {
        tpnet_fatal("dynamic fault counts must be >= 0");
    }
    if (intermittentDownCycles < 1)
        tpnet_fatal("intermittentDownCycles must be >= 1");
    if (recoveryMode && protocol == Protocol::DimOrder)
        tpnet_fatal("recovery mode requires an adaptive protocol "
                    "(DOR has no knot-forming freedom to reclaim)");
    if (maxHealAttempts < 1)
        tpnet_fatal("maxHealAttempts must be >= 1");
    const bool pow2Nodes = (nodes() & (nodes() - 1)) == 0;
    if (!isCube && pattern != TrafficPattern::Uniform)
        tpnet_fatal(patternName(pattern), " traffic is defined on k-ary "
                    "n-cube coordinates; --topology ", topologyName(topo),
                    " supports uniform only");
    if (patternNeedsPow2(pattern) && !pow2Nodes)
        tpnet_fatal(patternName(pattern), " traffic requires a power-of-two "
                    "node count (got ", nodes(), ")");
    for (std::size_t i = 0; i < trafficClasses.size(); ++i) {
        const TrafficClassConfig &tc = trafficClasses[i];
        if (tc.load < 0.0 || tc.load > static_cast<double>(radix()))
            tpnet_fatal("class ", i, ": load ", tc.load, " out of range");
        if (tc.msgLength < 0)
            tpnet_fatal("class ", i, ": msgLength must be >= 0");
        if (!isCube && tc.pattern != TrafficPattern::Uniform)
            tpnet_fatal("class ", i, ": ", patternName(tc.pattern),
                        " traffic is defined on k-ary n-cube coordinates; "
                        "--topology ", topologyName(topo),
                        " supports uniform only");
        if (patternNeedsPow2(tc.pattern) && !pow2Nodes)
            tpnet_fatal("class ", i, ": ", patternName(tc.pattern),
                        " traffic requires a power-of-two node count (got ",
                        nodes(), ")");
        if (tc.hotspotFraction < 0.0 || tc.hotspotFraction > 1.0)
            tpnet_fatal("class ", i, ": hotspot fraction must be in [0, 1]");
        if (tc.hotspotCount < 1 || tc.hotspotCount > nodes())
            tpnet_fatal("class ", i, ": hotspot count out of range");
        if (tc.burstLen < 0)
            tpnet_fatal("class ", i, ": burst length must be >= 0");
        if (tc.burstLen > 0 &&
            (tc.burstDuty <= 0.0 || tc.burstDuty > 1.0)) {
            tpnet_fatal("class ", i, ": burst duty must be in (0, 1]");
        }
        if (tc.outstanding < 0)
            tpnet_fatal("class ", i, ": outstanding must be >= 0");
        if (tc.replyLength < 0)
            tpnet_fatal("class ", i, ": replyLength must be >= 0");
    }
}

namespace {

constexpr NameRow<Protocol> protocolNames[] = {
    {"DOR", Protocol::DimOrder}, {"DP", Protocol::Duato},
    {"SR", Protocol::Scouting},  {"PCS", Protocol::Pcs},
    {"MB-m", Protocol::MBm},     {"MBM", Protocol::MBm},
    {"TP", Protocol::TwoPhase},
};

constexpr NameRow<TopologyKind> topologyNames[] = {
    {"torus", TopologyKind::Torus},
    {"mesh", TopologyKind::Mesh},
    {"express", TopologyKind::Express},
    {"dragonfly", TopologyKind::Dragonfly},
};

constexpr NameRow<TrafficPattern> patternNames[] = {
    {"uniform", TrafficPattern::Uniform},
    {"bit-complement", TrafficPattern::BitComplement},
    {"transpose", TrafficPattern::Transpose},
    {"neighbor+1", TrafficPattern::NeighborPlus, false},
    {"neighbor", TrafficPattern::NeighborPlus},
    {"tornado", TrafficPattern::Tornado},
    {"bit-reversal", TrafficPattern::BitReversal},
    {"shuffle", TrafficPattern::Shuffle},
};

constexpr NameRow<VictimPolicy> victimPolicyNames[] = {
    {"youngest", VictimPolicy::YoungestMessage},
    {"fewest-hops", VictimPolicy::FewestHopsHeld},
    {"random", VictimPolicy::RandomSeeded},
};

/** Printed name of @p value: its first row. */
template <typename E>
const char *
printedName(E value)
{
    for (const NameRow<E> &row : nameTable(E{}))
        if (row.value == value)
            return row.name;
    return "?";
}

} // namespace

std::span<const NameRow<Protocol>>
nameTable(Protocol)
{
    return protocolNames;
}

std::span<const NameRow<TopologyKind>>
nameTable(TopologyKind)
{
    return topologyNames;
}

std::span<const NameRow<TrafficPattern>>
nameTable(TrafficPattern)
{
    return patternNames;
}

std::span<const NameRow<VictimPolicy>>
nameTable(VictimPolicy)
{
    return victimPolicyNames;
}

const char *
protocolName(Protocol p)
{
    return printedName(p);
}

const char *
topologyName(TopologyKind t)
{
    return printedName(t);
}

const char *
patternName(TrafficPattern p)
{
    return printedName(p);
}

const char *
victimPolicyName(VictimPolicy p)
{
    return printedName(p);
}

std::string
formatExact(double v)
{
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

std::string
SimConfig::summary() const
{
    std::ostringstream os;
    os << protocolName(protocol) << " ";
    switch (topology) {
      case TopologyKind::Torus:
        os << k << "-ary " << n << "-cube, ";
        break;
      case TopologyKind::Mesh:
        os << k << "-ary " << n << "-mesh, ";
        break;
      case TopologyKind::Express:
        os << k << "-ary " << n << "-cube+express(e=" << expressGap << "), ";
        break;
      case TopologyKind::Dragonfly:
        os << "dragonfly(a=" << dfRouters << ",h=" << dfGlobal << "), ";
        break;
    }
    os << adaptiveVcs << "a+" << escapeVcs << "e VCs, L=" << msgLength
       << ", K=" << scoutK << ", m=" << misrouteLimit
       << ", load=" << load << " (" << patternName(pattern) << ")";
    if (!trafficClasses.empty())
        os << ", classes=[" << formatTrafficClasses(trafficClasses) << "]";
    os << ", faults=" << staticNodeFaults << "n+" << staticLinkFaults << "l";
    if (dynamicNodeFaults > 0)
        os << "+" << dynamicNodeFaults << "dyn";
    if (dynamicLinkFaults > 0)
        os << "+" << dynamicLinkFaults << "dynl";
    if (intermittentFaults > 0)
        os << "+" << intermittentFaults << "int/"
           << intermittentDownCycles;
    if (tailAck)
        os << ", TAck";
    if (verifyCwg)
        os << ", CWG";
    if (recoveryMode)
        os << ", recovery(" << victimPolicyName(victimPolicy) << ")";
    return os.str();
}

} // namespace tpnet
