/**
 * @file
 * The one list of SimConfig's fields. Option registration and parsing
 * (addSimConfigOptions), the replay formatter (formatSimConfigOptions)
 * and the config digest (chaos::configDigest) all walk it, so a field
 * added here reaches every one of them.
 */

#ifndef TPNET_SIM_CONFIG_FIELDS_HPP
#define TPNET_SIM_CONFIG_FIELDS_HPP

#include <type_traits>

#include "sim/config.hpp"

namespace tpnet {

/**
 * One SimConfig member. A shared simulator option also carries its
 * command-line spelling and help text; a field no tool sets from argv
 * has neither.
 */
template <typename T>
struct ConfigField
{
    using Type = T;

    T SimConfig::*member;
    const char *option = nullptr;  ///< spelling without the "--"
    const char *help = nullptr;
    bool inverted = false;  ///< a flag that clears the member when given
};

/**
 * Call @p visit with the ConfigField of every SimConfig member: the
 * shared simulator options in usage-text order, then the fields no
 * tool sets from argv.
 */
template <typename Visit>
void
forEachConfigField(Visit &&visit)
{
    using C = SimConfig;
    visit(ConfigField{&C::protocol, "protocol", "routing protocol"});
    visit(ConfigField{&C::topology, "topology", "topology family"});
    visit(ConfigField{&C::k, "k", "cube radix (nodes per dimension)"});
    visit(ConfigField{&C::n, "n", "cube dimensions"});
    visit(ConfigField{&C::expressGap, "express-gap",
                      "express-channel stride (--topology express)"});
    visit(ConfigField{&C::dfRouters, "df-routers",
                      "routers per group (--topology dragonfly)"});
    visit(ConfigField{&C::dfGlobal, "df-global",
                      "global channels per router (--topology dragonfly)"});
    visit(ConfigField{&C::msgLength, "length", "data flits per message"});
    visit(ConfigField{&C::scoutK, "scout-k", "scouting distance K"});
    visit(ConfigField{&C::misrouteLimit, "m", "misroute limit"});
    visit(ConfigField{&C::adaptiveVcs, "adaptive-vcs",
                      "adaptive VCs per link"});
    visit(ConfigField{&C::escapeVcs, "escape-vcs",
                      "escape (dateline) VCs per link"});
    visit(ConfigField{&C::bufDepth, "buffers", "DIBU depth in flits"});
    visit(ConfigField{&C::load, "load",
                      "offered load, data flits/node/cycle"});
    visit(ConfigField{&C::pattern, "pattern", "traffic pattern"});
    visit(ConfigField{&C::trafficClasses, "classes", trafficClassesHelp()});
    visit(ConfigField{&C::tailAck, "tail-ack",
                      "hold paths + message acks + retransmit"});
    visit(ConfigField{&C::hardwareAcks, "hardware-acks",
                      "dedicated acknowledgment signalling"});
    visit(ConfigField{&C::verifyCwg, "verify-cwg",
                      "run the channel-wait-for-graph deadlock analyzer "
                      "(Theorem 3 checked online)"});
    visit(ConfigField{&C::recoveryMode, "recovery",
                      "knot-triggered deadlock recovery: free the escape "
                      "bandwidth for adaptive use and heal detected "
                      "knots by victim abort + source retransmit"});
    visit(ConfigField{&C::victimPolicy, "victim", "recovery victim policy"});
    visit(ConfigField{&C::maxHealAttempts, "heal-budget",
                      "max heals per knot before livelock escalation"});
    visit(ConfigField{&C::seed, "seed", "RNG seed"});
    visit(ConfigField{&C::maxRetries, "retries",
                      "source retries before a message is undeliverable"});
    visit(ConfigField{&C::eventEngine, "no-event-skip",
                      "disable the event engine's idle-cycle fast path "
                      "(step every cycle; results are bit-identical)",
                      true});

    visit(ConfigField{&C::retryBackoff});
    visit(ConfigField{&C::injQueueLimit});
    visit(ConfigField{&C::staticNodeFaults});
    visit(ConfigField{&C::staticLinkFaults});
    visit(ConfigField{&C::dynamicNodeFaults});
    visit(ConfigField{&C::dynamicLinkFaults});
    visit(ConfigField{&C::intermittentFaults});
    visit(ConfigField{&C::intermittentDownCycles});
    visit(ConfigField{&C::markUnsafe});
    visit(ConfigField{&C::protectPerimeter});
    visit(ConfigField{&C::metricsPeriod});
    visit(ConfigField{&C::warmup});
    visit(ConfigField{&C::measure});
    visit(ConfigField{&C::drain});
    visit(ConfigField{&C::watchdog});
}

/** The option spelling of SimConfig member @p member (nullptr: none). */
template <typename T>
const char *
optionOf(T SimConfig::*member)
{
    const char *option = nullptr;
    forEachConfigField([&](const auto &f) {
        using F = typename std::remove_cvref_t<decltype(f)>::Type;
        if constexpr (std::is_same_v<F, T>) {
            if (f.member == member)
                option = f.option;
        }
    });
    return option;
}

} // namespace tpnet

#endif // TPNET_SIM_CONFIG_FIELDS_HPP
