#include "sim/config.hpp"

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <utility>

#include "sim/log.hpp"
#include "topology/registry.hpp"

namespace tpnet {

bool
defaultEventEngine()
{
    const char *env = std::getenv("TPNET_EVENT_ENGINE");
    if (env && (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0))
        return false;
    return true;
}

TopologyKind
SimConfig::effectiveTopology() const
{
    if (topology == TopologyKind::Torus && !wrap)
        return TopologyKind::Mesh;
    return topology;
}

int
SimConfig::nodes() const
{
    if (effectiveTopology() == TopologyKind::Dragonfly)
        return (dfRouters * dfGlobal + 1) * dfRouters;
    int total = 1;
    for (int d = 0; d < n; ++d)
        total *= k;
    return total;
}

int
SimConfig::radix() const
{
    switch (effectiveTopology()) {
      case TopologyKind::Express:   return 4 * n;
      case TopologyKind::Dragonfly: return dfRouters - 1 + dfGlobal;
      default:                      return 2 * n;
    }
}

int
SimConfig::diameter() const
{
    switch (effectiveTopology()) {
      case TopologyKind::Torus: return n * (k / 2);
      case TopologyKind::Mesh:  return n * (k - 1);
      default:                  return makeTopology(*this)->diameter();
    }
}

double
SimConfig::avgMinDistance() const
{
    switch (effectiveTopology()) {
      case TopologyKind::Torus: {
        // Mean minimal distance along one ring of k nodes, uniform over
        // all destinations including the source, times n dimensions. For
        // even k the per-ring mean is k/4; computed exactly for any k.
        double ring = 0.0;
        for (int d = 1; d < k; ++d) {
            int fwd = d;
            int bwd = k - d;
            ring += std::min(fwd, bwd);
        }
        ring /= static_cast<double>(k);
        return ring * static_cast<double>(n);
      }
      case TopologyKind::Mesh: {
        // Mesh: mean |a - b| over a uniform pair per dimension is
        // (k^2 - 1) / (3k).
        const double kd = static_cast<double>(k);
        return static_cast<double>(n) * (kd * kd - 1.0) / (3.0 * kd);
      }
      default:
        return makeTopology(*this)->avgMinDistance();
    }
}

double
SimConfig::msgRate() const
{
    return load / static_cast<double>(msgLength);
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
    const TopologyKind topo = effectiveTopology();
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
    if (healBackoffBase < 1)
        tpnet_fatal("healBackoffBase must be >= 1");
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

const char *
protocolName(Protocol p)
{
    switch (p) {
      case Protocol::DimOrder: return "DOR";
      case Protocol::Duato:    return "DP";
      case Protocol::Scouting: return "SR";
      case Protocol::Pcs:      return "PCS";
      case Protocol::MBm:      return "MB-m";
      case Protocol::TwoPhase: return "TP";
    }
    return "?";
}

const char *
topologyName(TopologyKind t)
{
    switch (t) {
      case TopologyKind::Torus:     return "torus";
      case TopologyKind::Mesh:      return "mesh";
      case TopologyKind::Express:   return "express";
      case TopologyKind::Dragonfly: return "dragonfly";
    }
    return "?";
}

bool
parseTopologyName(const std::string &name, TopologyKind *out)
{
    const struct
    {
        const char *name;
        TopologyKind kind;
    } table[] = {
        {"torus", TopologyKind::Torus},
        {"mesh", TopologyKind::Mesh},
        {"express", TopologyKind::Express},
        {"dragonfly", TopologyKind::Dragonfly},
    };
    for (const auto &row : table) {
        if (name == row.name) {
            *out = row.kind;
            return true;
        }
    }
    return false;
}

const char *
patternName(TrafficPattern p)
{
    switch (p) {
      case TrafficPattern::Uniform:       return "uniform";
      case TrafficPattern::BitComplement: return "bit-complement";
      case TrafficPattern::Transpose:     return "transpose";
      case TrafficPattern::NeighborPlus:  return "neighbor+1";
      case TrafficPattern::Tornado:       return "tornado";
      case TrafficPattern::BitReversal:   return "bit-reversal";
      case TrafficPattern::Shuffle:       return "shuffle";
    }
    return "?";
}

namespace {

/// Parse name for patternName() output; "neighbor+1" prints but
/// "neighbor" parses, so round-tripping goes through this table.
const char *
patternParseName(TrafficPattern p)
{
    return p == TrafficPattern::NeighborPlus ? "neighbor" : patternName(p);
}

} // namespace

bool
parseProtocolName(const std::string &name, Protocol *out)
{
    const struct
    {
        const char *name;
        Protocol proto;
    } table[] = {
        {"DOR", Protocol::DimOrder}, {"DP", Protocol::Duato},
        {"SR", Protocol::Scouting},  {"PCS", Protocol::Pcs},
        {"MB-m", Protocol::MBm},     {"MBM", Protocol::MBm},
        {"TP", Protocol::TwoPhase},
    };
    for (const auto &row : table) {
        if (name == row.name) {
            *out = row.proto;
            return true;
        }
    }
    return false;
}

const char *
victimPolicyName(VictimPolicy p)
{
    switch (p) {
      case VictimPolicy::YoungestMessage: return "youngest";
      case VictimPolicy::FewestHopsHeld:  return "fewest-hops";
      case VictimPolicy::RandomSeeded:    return "random";
    }
    return "?";
}

bool
parseVictimPolicyName(const std::string &name, VictimPolicy *out)
{
    const struct
    {
        const char *name;
        VictimPolicy policy;
    } table[] = {
        {"youngest", VictimPolicy::YoungestMessage},
        {"fewest-hops", VictimPolicy::FewestHopsHeld},
        {"random", VictimPolicy::RandomSeeded},
    };
    for (const auto &row : table) {
        if (name == row.name) {
            *out = row.policy;
            return true;
        }
    }
    return false;
}

bool
parsePatternName(const std::string &name, TrafficPattern *out)
{
    const struct
    {
        const char *name;
        TrafficPattern pattern;
    } table[] = {
        {"uniform", TrafficPattern::Uniform},
        {"bit-complement", TrafficPattern::BitComplement},
        {"transpose", TrafficPattern::Transpose},
        {"neighbor", TrafficPattern::NeighborPlus},
        {"tornado", TrafficPattern::Tornado},
        {"bit-reversal", TrafficPattern::BitReversal},
        {"shuffle", TrafficPattern::Shuffle},
    };
    for (const auto &row : table) {
        if (name == row.name) {
            *out = row.pattern;
            return true;
        }
    }
    return false;
}

namespace {

bool
specFail(std::string *err, const std::string &what)
{
    if (err)
        *err = what;
    return false;
}

} // namespace

bool
parseTrafficClasses(const std::string &spec,
                    std::vector<TrafficClassConfig> *out,
                    std::string *err)
{
    std::vector<TrafficClassConfig> classes;
    std::istringstream specStream(spec);
    std::string clause;
    while (std::getline(specStream, clause, ';')) {
        if (clause.empty())
            continue;
        TrafficClassConfig tc;
        std::istringstream clauseStream(clause);
        std::string kv;
        while (std::getline(clauseStream, kv, ',')) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos)
                return specFail(err, "expected key=value, got \"" + kv + "\"");
            const std::string key = kv.substr(0, eq);
            const std::string val = kv.substr(eq + 1);
            try {
                if (key == "pattern") {
                    if (!parsePatternName(val, &tc.pattern))
                        return specFail(err,
                                        "unknown traffic pattern \"" + val +
                                            "\"");
                } else if (key == "load") {
                    tc.load = std::stod(val);
                } else if (key == "len") {
                    tc.msgLength = std::stoi(val);
                } else if (key == "prio") {
                    tc.priority = std::stoi(val);
                } else if (key == "hotspot") {
                    tc.hotspotFraction = std::stod(val);
                } else if (key == "hotspots") {
                    tc.hotspotCount = std::stoi(val);
                } else if (key == "burst") {
                    tc.burstLen = std::stoi(val);
                } else if (key == "duty") {
                    tc.burstDuty = std::stod(val);
                } else if (key == "outstanding") {
                    tc.outstanding = std::stoi(val);
                } else if (key == "replylen") {
                    tc.replyLength = std::stoi(val);
                } else {
                    return specFail(err, "unknown class key \"" + key + "\"");
                }
            } catch (const std::exception &) {
                return specFail(err, "bad value for " + key + ": \"" + val +
                                         "\"");
            }
        }
        classes.push_back(tc);
    }
    if (classes.empty())
        return specFail(err, "workload spec describes no classes");
    *out = std::move(classes);
    return true;
}

std::string
formatTrafficClasses(const std::vector<TrafficClassConfig> &classes)
{
    std::ostringstream os;
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const TrafficClassConfig &tc = classes[i];
        if (i)
            os << ';';
        os << "pattern=" << patternParseName(tc.pattern)
           << ",load=" << tc.load;
        if (tc.msgLength)
            os << ",len=" << tc.msgLength;
        if (tc.priority)
            os << ",prio=" << tc.priority;
        if (tc.hotspotFraction > 0.0)
            os << ",hotspot=" << tc.hotspotFraction
               << ",hotspots=" << tc.hotspotCount;
        if (tc.burstLen)
            os << ",burst=" << tc.burstLen << ",duty=" << tc.burstDuty;
        if (tc.outstanding)
            os << ",outstanding=" << tc.outstanding;
        if (tc.replyLength)
            os << ",replylen=" << tc.replyLength;
    }
    return os.str();
}

std::string
SimConfig::summary() const
{
    std::ostringstream os;
    os << protocolName(protocol) << " ";
    switch (effectiveTopology()) {
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
