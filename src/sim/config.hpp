/**
 * @file
 * Simulation configuration: network geometry, virtual-channel layout, flow
 * control and routing protocol selection, traffic, faults, and measurement
 * windows. Defaults reproduce the paper's evaluation setup (Section 6.0):
 * 16-ary 2-cube, 32-flit messages, 1-flit header, uniform traffic, and an
 * 8-message injection-queue congestion-control limit.
 */

#ifndef TPNET_SIM_CONFIG_HPP
#define TPNET_SIM_CONFIG_HPP

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace tpnet {

/**
 * Routing protocol under test.
 *
 * DimOrder and Scouting exist for validation and for the Figure 1
 * time-space/latency-formula experiments; the paper's evaluation compares
 * Duato (DP, a WR protocol), MBm (a PCS protocol), and TwoPhase.
 */
enum class Protocol : std::uint8_t {
    DimOrder,  ///< deterministic e-cube wormhole routing (validation)
    Duato,     ///< DP: fully adaptive wormhole routing [12]
    Scouting,  ///< SR with a fixed scouting distance K on every channel
    Pcs,       ///< plain pipelined circuit switching, profitable-only setup
    MBm,       ///< misrouting backtracking with m misroutes over PCS [17]
    TwoPhase,  ///< the paper's TP protocol (Figure 6)
};

/** Flow control mechanism a circuit is currently operating under. */
enum class FlowMode : std::uint8_t {
    Wormhole,  ///< header inline with data on the data lane; K = 0
    Scout,     ///< header on control lane, per-VC ack counters vs K
    PcsSetup,  ///< data held at source until full path acknowledgment
};

/**
 * Recovery-mode victim selection policy: which member of a confirmed
 * knot gets its circuit aborted and retransmitted. All policies are
 * deterministic functions of (knot closure, config, seed) so campaign
 * results are bit-identical for any --jobs.
 */
enum class VictimPolicy : std::uint8_t {
    YoungestMessage, ///< most recently created (least sunk cost)
    FewestHopsHeld,  ///< holds the fewest VC trios (cheapest teardown)
    RandomSeeded,    ///< uniform over the closure, dedicated RNG stream
};

/** Synthetic destination distribution. */
enum class TrafficPattern : std::uint8_t {
    Uniform,       ///< uniform over healthy nodes != source (paper)
    BitComplement, ///< dst coordinate = k-1-src coordinate per dimension
    Transpose,     ///< dst coords = reversed src coords (2D: (x,y)->(y,x))
    NeighborPlus,  ///< dst = +1 in dimension 0 (deterministic validation)
    Tornado,       ///< dst = src + (k/2 - 1 | k/2), clamped >= 1, per dim
    BitReversal,   ///< dst = bit-reversed node index (2^b nodes)
    Shuffle,       ///< dst = node index rotated left one bit (2^b nodes)
};

struct TrafficClassConfig;

/**
 * One key of the class spec syntax (parseTrafficClasses): its spelling
 * and the TrafficClassConfig member it sets. An @c always key is
 * printed even at its default value.
 */
template <typename T>
struct ClassKey
{
    using Type = T;

    const char *name;
    T TrafficClassConfig::*member;
    bool always = false;
};

/**
 * One traffic class of the workload library: a destination pattern
 * (optionally skewed toward a hotspot set), its own offered load and
 * message length, an injection priority, an optional on-off (bursty)
 * modulation of the generation process, and an optional closed-loop
 * request-reply budget. SimConfig::trafficClasses empty means one
 * smooth open-loop class built from pattern/load/msgLength, with no
 * per-class counters.
 */
struct TrafficClassConfig
{
    TrafficPattern pattern = TrafficPattern::Uniform;
    double load = 0.0;       ///< offered load, data flits/node/cycle
    int msgLength = 0;       ///< data flits per message (0 = SimConfig's)
    /// Injection precedence: classes are offered in descending priority
    /// order each cycle, so higher-priority classes grab contested
    /// injection-queue slots first. Ties keep declaration order.
    int priority = 0;

    // --- Hotspot skew (layered over any pattern) ----------------------
    /// Fraction of this class's messages redirected to the hotspot set.
    double hotspotFraction = 0.0;
    /// Hotspot set size; nodes are spread evenly over the id space.
    int hotspotCount = 1;

    // --- On-off (bursty / 2-state MMPP) modulation --------------------
    /// Mean ON-burst length in cycles; 0 disables the on-off process.
    /// While ON the class generates at load/duty so the long-run mean
    /// offered load stays `load`.
    int burstLen = 0;
    /// Long-run fraction of time the source is ON (0 < duty <= 1).
    double burstDuty = 0.5;

    // --- Closed loop (request-reply) ----------------------------------
    /// Max outstanding request-reply transactions per node; 0 = open
    /// loop. A delivered request generates a reply (dst -> src); the
    /// budget slot frees when the reply retires (or the request dies).
    int outstanding = 0;
    /// Reply message length (0 = the class's request length).
    int replyLength = 0;

    bool operator==(const TrafficClassConfig &) const = default;

    /**
     * The key table: call @p visit with the ClassKey of every field, in
     * declaration order. The class parser and formatter, the --classes
     * help text and the config digest all walk it.
     */
    template <typename Visit>
    static void
    forEachField(Visit &&visit)
    {
        using C = TrafficClassConfig;
        visit(ClassKey{"pattern", &C::pattern, true});
        visit(ClassKey{"load", &C::load, true});
        visit(ClassKey{"len", &C::msgLength});
        visit(ClassKey{"prio", &C::priority});
        visit(ClassKey{"hotspot", &C::hotspotFraction});
        visit(ClassKey{"hotspots", &C::hotspotCount});
        visit(ClassKey{"burst", &C::burstLen});
        visit(ClassKey{"duty", &C::burstDuty});
        visit(ClassKey{"outstanding", &C::outstanding});
        visit(ClassKey{"replylen", &C::replyLength});
    }
};

/**
 * Default for SimConfig::eventEngine: true unless the environment
 * variable TPNET_EVENT_ENGINE is set to "off" or "0" (the CI matrix
 * leg that re-runs the suites against the time-stepped engine).
 */
bool defaultEventEngine();

/** Tunables of a single simulation run. See DESIGN.md Section 4. */
struct SimConfig
{
    // --- Network geometry -------------------------------------------------
    /// Topology family (--topology): the torus is the paper's network;
    /// a mesh keeps the same addressing but its wraparound channels are
    /// absent and the deterministic channels need no dateline classes.
    TopologyKind topology = TopologyKind::Torus;
    int k = 16;  ///< cube radix (nodes per dimension); unused by dragonfly
    int n = 2;   ///< cube dimensions; unused by dragonfly
    /// Express cube only: stride e of the express channels (2 <= e < k).
    int expressGap = 4;
    /// Dragonfly only: routers per group (a).
    int dfRouters = 4;
    /// Dragonfly only: global channels per router (h); the balanced
    /// g = a*h + 1 groups and g*a nodes follow.
    int dfGlobal = 1;

    // --- Virtual channel layout (per unidirectional physical link) --------
    int adaptiveVcs = 2;  ///< Duato's unrestricted partition
    int escapeVcs = 2;    ///< deterministic partition (dateline classes)
    int bufDepth = 4;     ///< data FIFO (DIBU) depth per VC, in flits

    // --- Messages ----------------------------------------------------------
    int msgLength = 32;   ///< data flits per message (header is 1 extra)

    // --- Protocol ----------------------------------------------------------
    Protocol protocol = Protocol::TwoPhase;
    int scoutK = 0;        ///< SR-mode scouting distance (TP: 0 = aggressive)
    int misrouteLimit = 6; ///< m, maximum outstanding misroutes
    int maxRetries = 3;    ///< source re-tries before declaring undeliverable
    /// Cycles a torn-down message waits before re-trying from the source.
    int retryBackoff = 32;

    // --- Traffic -----------------------------------------------------------
    TrafficPattern pattern = TrafficPattern::Uniform;
    double load = 0.1;     ///< offered load, data flits / node / cycle
    int injQueueLimit = 8; ///< messages buffered per injection channel
    /// Workload library: when non-empty these classes replace the single
    /// pattern/load source above (which the injector otherwise runs as
    /// its one class).
    std::vector<TrafficClassConfig> trafficClasses;

    // --- Faults ------------------------------------------------------------
    int staticNodeFaults = 0;  ///< failed PEs present at power-on
    int staticLinkFaults = 0;  ///< failed physical links at power-on
    /// Dynamic node failures: expected number over the measurement window
    /// (inserted as a Bernoulli process; 0 disables dynamic faults).
    double dynamicNodeFaults = 0.0;
    /// Dynamic physical-link failures, same process (Section 2.4: "a
    /// communication channel may fail" during operation).
    double dynamicLinkFaults = 0.0;
    /// Intermittent link failures over the run, same Bernoulli process:
    /// the link goes down (full kill-flit teardown of interrupted
    /// circuits) and is restored after intermittentDownCycles.
    double intermittentFaults = 0.0;
    /// How long an intermittent link failure lasts before the link is
    /// re-validated and returned to service.
    int intermittentDownCycles = 500;
    bool tailAck = false;      ///< hold path + message ack + retransmission
    /// Hardware acknowledgment signalling (the paper's conclusion /
    /// future work): SR acknowledgment flits travel on dedicated
    /// control signals instead of sharing the multiplexed control lane,
    /// removing their bandwidth cost (one ack per link per cycle on a
    /// separate lane). Logical behavior is unchanged.
    bool hardwareAcks = false;
    /// Mark channels adjacent to failures as unsafe (Section 2.4). The
    /// paper notes the aggressive transition "makes it not necessary
    /// marking channels as unsafe": with false, TP stays in pure WR
    /// until it is actually stuck and then constructs detours directly
    /// (the deadlock-freedom proofs do not rely on unsafe channels).
    bool markUnsafe = true;
    /// Keep the source/destination region fault-free so that validation
    /// traffic is always deliverable (tests only; evaluation uses false).
    bool protectPerimeter = false;

    // --- Measurement ---------------------------------------------------
    /// Cycles between per-VC metric samples during the measurement
    /// window (obs::MetricsRegistry); <= 0 disables sampling.
    int metricsPeriod = 64;
    std::uint64_t seed = 1;
    Cycle warmup = 2000;     ///< cycles discarded before measuring
    Cycle measure = 10000;   ///< measurement window
    Cycle drain = 20000;     ///< max extra cycles to wait for tagged messages
    /// Abort if no token moves (Network::lastActivity) for this many
    /// cycles while work is pending (deadlock watchdog, Theorem 3
    /// check). 0 disables.
    Cycle watchdog = 20000;

    // --- Engine --------------------------------------------------------
    /// Event-driven stepping (core/engine.hpp): phases visit only
    /// routers/wires registered in their activity sets, and drivers may
    /// cycle-skip straight to the next scheduled event while the
    /// network is provably idle. Bit-identical to the full-scan
    /// time-stepped engine by construction; kept switchable (env
    /// TPNET_EVENT_ENGINE=off, or --no-event-skip on the tools) for
    /// differential testing. Deliberately NOT part of the config
    /// digest: results are engine-agnostic.
    bool eventEngine = defaultEventEngine();

    // --- Verification --------------------------------------------------
    /// Run the channel-wait-for-graph deadlock analyzer (src/verify/):
    /// every Block decision records wait edges, cycles are detected
    /// incrementally and classified against Theorem 3. Read-only with
    /// respect to the simulation (results are bit-identical either
    /// way); off by default so the common path pays nothing.
    bool verifyCwg = false;

    // --- Deadlock recovery ---------------------------------------------
    /// Detect-and-heal instead of avoidance: the escape partition is
    /// released for fully adaptive use (deadlock can now actually form)
    /// and the CWG knot classifier becomes an active protocol layer —
    /// a confirmed knot selects a victim, aborts its circuit through
    /// the kill-walk machinery, and retransmits it from the source.
    /// Off by default; when off, behavior is bit-identical to before.
    bool recoveryMode = false;
    /// Which knot member is sacrificed per heal.
    VictimPolicy victimPolicy = VictimPolicy::YoungestMessage;
    /// Livelock guard: if the same knot re-forms more than this many
    /// times, healing escalates to a watchdog-style verdict.
    int maxHealAttempts = 8;

    // --- Derived helpers ---------------------------------------------------
    int nodes() const;            ///< node count of the configured topology
    int radix() const;            ///< network ports per router
    int vcsPerLink() const { return adaptiveVcs + escapeVcs; }
    /// True if any source can ever generate a message: legacy load > 0,
    /// or some traffic class with load > 0. Drivers use this to tell a
    /// genuinely idle config from a degenerate zero-offered run.
    bool trafficArmed() const;

    /** Die with a helpful message if the configuration is inconsistent. */
    void validate() const;

    /** One-line summary for bench output. */
    std::string summary() const;
};

/** Human-readable protocol name. */
const char *protocolName(Protocol p);

/** Human-readable topology name (torus | mesh | express | dragonfly). */
const char *topologyName(TopologyKind t);

/** Human-readable traffic pattern name. */
const char *patternName(TrafficPattern p);

/** Human-readable victim policy name. */
const char *victimPolicyName(VictimPolicy p);

/**
 * One row of an enum's name table. The first row of a value is its
 * printed name; the parser accepts every row that @c parses, so extra
 * spellings follow the printed one.
 */
template <typename E>
struct NameRow
{
    const char *name;
    E value;
    bool parses = true;
};

/** The name table of each named enum (the argument picks the table). */
std::span<const NameRow<Protocol>> nameTable(Protocol);
std::span<const NameRow<TopologyKind>> nameTable(TopologyKind);
std::span<const NameRow<TrafficPattern>> nameTable(TrafficPattern);
std::span<const NameRow<VictimPolicy>> nameTable(VictimPolicy);

/** Parse @p name through the name table of @p E. */
template <typename E>
bool
parseEnumName(const std::string &name, E *out)
{
    for (const NameRow<E> &row : nameTable(E{})) {
        if (row.parses && name == row.name) {
            *out = row.value;
            return true;
        }
    }
    return false;
}

/** The first spelling of @p value that parseEnumName() reads back. */
template <typename E>
const char *
enumSpelling(E value)
{
    for (const NameRow<E> &row : nameTable(E{}))
        if (row.parses && row.value == value)
            return row.name;
    return "?";
}

/** Every value of @p E by enumSpelling(), joined by " | ". */
template <typename E>
std::string
enumChoices()
{
    std::string out;
    for (const NameRow<E> &row : nameTable(E{})) {
        if (enumSpelling(row.value) == row.name)  // the value's own row
            out += (out.empty() ? "" : " | ") + std::string(row.name);
    }
    return out;
}

/**
 * The shortest decimal spelling of @p v that parses back to exactly
 * @p v (so loads the shrinker halved survive a replay line).
 */
std::string formatExact(double v);

/**
 * Parse a workload spec string into traffic classes. Classes are
 * separated by ';'; each class is a comma-separated key=value list
 * over the keys of TrafficClassConfig::forEachField, each value read
 * as the SimConfig options read theirs (whole numbers, finite floats,
 * pattern names). Returns false (with *err set) on malformed input;
 * range validation is left to SimConfig::validate().
 */
bool parseTrafficClasses(const std::string &spec,
                         std::vector<TrafficClassConfig> *out,
                         std::string *err);

/**
 * Format traffic classes back into the spec-string syntax accepted by
 * parseTrafficClasses (round-trips exactly): the always keys, then
 * every key whose value differs from TrafficClassConfig{}; "" for an
 * empty list.
 */
std::string formatTrafficClasses(const std::vector<TrafficClassConfig> &classes);

/** The --classes help text, its spec syntax spelled from the key table. */
const char *trafficClassesHelp();

} // namespace tpnet

#endif // TPNET_SIM_CONFIG_HPP
