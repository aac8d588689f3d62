#include "chaos/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <type_traits>

#include "chaos/oracle.hpp"
#include "chaos/snapshot.hpp"
#include "core/network.hpp"
#include "core/pool.hpp"
#include "core/run_loop.hpp"
#include "obs/checkpoint.hpp"
#include "obs/trace_format.hpp"
#include "sim/config_fields.hpp"
#include "sim/log.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace chaos {

namespace {

std::uint64_t
foldU64(std::uint64_t h, std::uint64_t v)
{
    std::uint8_t b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return obs::fnv1a64(b, sizeof(b), h);
}

std::uint64_t
foldI64(std::uint64_t h, long long v)
{
    return foldU64(h, static_cast<std::uint64_t>(v));
}

std::uint64_t
foldF64(std::uint64_t h, double v)
{
    std::uint64_t u;
    static_assert(sizeof(u) == sizeof(v));
    std::memcpy(&u, &v, sizeof(u));
    return foldU64(h, u);
}

/** Fold a config value: numbers and enums by value, classes field by
 *  field after their count. */
template <typename T>
std::uint64_t
foldValue(std::uint64_t h, const T &v)
{
    if constexpr (std::is_same_v<T, double>) {
        return foldF64(h, v);
    } else if constexpr (std::is_same_v<T, std::vector<TrafficClassConfig>>) {
        h = foldU64(h, v.size());
        for (const TrafficClassConfig &tc : v)
            TrafficClassConfig::forEachField(
                [&](const auto &k) { h = foldValue(h, tc.*k.member); });
        return h;
    } else {
        return foldU64(h, static_cast<std::uint64_t>(v));
    }
}

std::uint64_t
foldTag(const char *tag)
{
    return obs::fnv1a64(tag, std::strlen(tag));
}

} // namespace

std::uint64_t
configDigest(const SimConfig &cfg)
{
    // Versioned canonical encoding: every field of the config table but
    // the engine switch (checkpoints are engine-agnostic). Bump the tag
    // when the table changes so old checkpoints are refused, not
    // misread.
    std::uint64_t h = foldTag("tpnet-config-v5");
    forEachConfigField([&](const auto &f) {
        using T = typename std::remove_cvref_t<decltype(f)>::Type;
        if constexpr (std::is_same_v<T, bool>) {
            if (f.member == &SimConfig::eventEngine)
                return;
        }
        h = foldValue(h, cfg.*f.member);
    });
    return h;
}

std::uint64_t
campaignSpecDigest(const CampaignSpec &spec)
{
    std::uint64_t h = foldTag("tpnet-cell-v1");
    h = foldU64(h, configDigest(spec.cfg));
    h = foldU64(h, spec.seed);
    h = foldU64(h, spec.injectCycles);
    h = foldU64(h, spec.drainCycles);
    h = foldU64(h, spec.faults.horizon);
    h = foldU64(h, spec.faults.earliest);
    h = foldI64(h, spec.faults.nodeKills);
    h = foldI64(h, spec.faults.linkKills);
    h = foldI64(h, spec.faults.intermittents);
    h = foldU64(h, spec.faults.downMin);
    h = foldU64(h, spec.faults.downMax);
    h = foldU64(h, spec.scriptedFaults.size());
    for (const FaultEvent &ev : spec.scriptedFaults) {
        h = foldU64(h, ev.at);
        h = foldI64(h, static_cast<int>(ev.kind));
        h = foldI64(h, ev.node);
        h = foldI64(h, ev.port);
        h = foldU64(h, ev.downFor);
    }
    h = foldU64(h, spec.watchdog.globalStallBound);
    h = foldU64(h, spec.watchdog.msgStallBound);
    h = foldU64(h, spec.watchdog.validateEvery);
    h = foldU64(h, spec.watchdog.conserveEvery);
    h = foldU64(h, spec.watchdog.maxViolations);
    h = foldI64(h, spec.injectSkipKillBug);
    h = foldI64(h, spec.verifyCwg);
    return h;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::string
CampaignResult::summary() const
{
    std::ostringstream os;
    os << "seed " << seed << ": " << (passed ? "PASS" : "FAIL") << ", "
       << messages << " msgs in " << cycles << " cycles, "
       << counters.delivered << " delivered / " << counters.dropped
       << " undeliverable / " << counters.lost << " lost, "
       << faultsFired << " faults (" << counters.intermittentFaults
       << " intermittent, " << counters.linksRestored << " restored)";
    if (cwgCycles > 0 || cwgViolations > 0) {
        os << ", cwg " << cwgCycles << " cycles (" << cwgBenign
           << " benign, " << cwgViolations << " violations";
        if (cwgWarnings > 0)
            os << ", " << cwgWarnings << " warnings";
        os << ")";
    }
    if (counters.knotsDetected > 0) {
        os << ", recovery " << counters.knotsDetected << " knots ("
           << counters.victimsAborted << " victims, "
           << counters.healRetransmits << " retransmits";
        if (counters.healEscalations > 0)
            os << ", " << counters.healEscalations << " ESCALATED";
        os << ")";
    }
    if (!quiescent)
        os << ", NOT QUIESCENT";
    if (!violations.empty())
        os << ", " << violations.size() << " violations";
    return os.str();
}

CampaignResult
runCampaign(const CampaignSpec &spec)
{
    const PanicContext context("campaign seed " + std::to_string(spec.seed));
    SimConfig cfg = spec.cfg;
    cfg.seed = spec.seed;
    cfg.watchdog = 0;  // the chaos watchdog reports instead of panicking
    if (spec.verifyCwg)
        cfg.verifyCwg = true;
    cfg.validate();

    CampaignResult result;
    result.seed = spec.seed;

    Network net(cfg);
    if (spec.injectSkipKillBug)
        net.testHookSkipKillSweep(true);

    // The fault timeline gets its own stream, decorrelated from the
    // traffic RNG but fully determined by the campaign seed. A
    // scripted (pinned-victim) timeline consumes no fault RNG at all,
    // so replaying a subset of fired events perturbs nothing else.
    Rng faultRng = Rng(spec.seed ^ 0xC4A0C4A0C4A0C4A0ull).split();
    FaultSchedule schedule(spec.scriptedFaults);
    if (spec.scriptedFaults.empty()) {
        ScheduleSpec faults = spec.faults;
        if (faults.horizon > spec.injectCycles)
            faults.horizon = spec.injectCycles;
        schedule = FaultSchedule::randomized(faults, faultRng);
    }

    DeliveryOracle oracle(net);
    Watchdog watchdog(net, spec.watchdog);
    Injector injector(net);

    // Checkpoint/restore plumbing. The tee forwards every event to the
    // oracle unchanged and only folds a digest on the side, so arming
    // it cannot perturb the run; when it is off the oracle is attached
    // directly, exactly as before.
    const bool ckArmed = spec.checkpointEvery > 0 ||
                         !spec.checkpointPath.empty() ||
                         !spec.restorePath.empty();
    obs::DigestTee tee(&oracle);
    net.attachTrace(ckArmed ? static_cast<TraceSink *>(&tee) : &oracle);

    CampaignState st;
    st.net = &net;
    st.faultRng = &faultRng;
    st.schedule = &schedule;
    st.oracle = &oracle;
    st.watchdog = &watchdog;
    st.injector = &injector;

    const std::uint64_t specDigest =
        ckArmed ? campaignSpecDigest(spec) : 0;

    if (!spec.restorePath.empty()) {
        std::string err;
        if (!readCampaignCheckpoint(spec.restorePath, specDigest, st,
                                    &err)) {
            net.attachTrace(nullptr);
            result.checkpointError = err;
            result.violations.push_back("checkpoint: restore failed: " +
                                        err);
            result.passed = false;
            return result;
        }
        result.restored = true;
        result.restoredAt = net.now();
        tee.reset(net.now());
    }

    RunLoop loop(net, injector);
    loop.schedule = &schedule;
    loop.faultRng = &faultRng;
    loop.watchdog = &watchdog;
    if (spec.checkpointEvery > 0 && !spec.checkpointPath.empty()) {
        loop.checkpointEvery = spec.checkpointEvery;
        loop.checkpoint = [&] {
            std::string err;
            if (writeCampaignCheckpoint(spec.checkpointPath, specDigest,
                                        st, &err)) {
                ++result.checkpointsWritten;
                tee.reset(net.now());
            } else if (result.checkpointError.empty()) {
                result.checkpointError = err;
                result.violations.push_back(
                    "checkpoint: write failed: " + err);
            }
        };
    }

    if (st.phase == 0) {
        loop.run(spec.injectCycles);
        injector.stop();
    }
    // The drain budget ends at an absolute cycle, so a restore into the
    // drain phase resumes it where the checkpoint left off. A drained
    // network with a reply still waiting for queue space is not done:
    // the injector must keep flushing (it generates nothing new once
    // stopped). Late scripted faults still fire.
    st.phase = 1;
    loop.run(spec.injectCycles + spec.drainCycles, false,
             [&] { return net.quiescent() && !injector.repliesPending(); });

    if (ckArmed) {
        result.tailDigest = tee.digest();
        result.tailDigestFrom = tee.tailFrom();
        st.phase = 2;
        result.stateDigest = campaignStateDigest(st);
    }

    result.quiescent = net.quiescent();
    result.cycles = net.now();
    result.faultsFired = schedule.fired();
    result.faultsSkipped = schedule.skipped();
    result.firedEvents = schedule.firedEvents();

    watchdog.finalCheck();
    oracle.finalCheck();

    result.violations = watchdog.violations();
    for (const std::string &v : oracle.violations())
        result.violations.push_back(v);
    if (const verify::CwgTracker *cwg = net.cwg()) {
        result.cwgCycles = cwg->cyclesDetected();
        result.cwgBenign = cwg->benignCycles();
        result.cwgViolations = cwg->violations().size();
        result.cwgWarnings = cwg->warnings().size();
        for (const verify::CwgCycle &c : cwg->violations()) {
            std::ostringstream os;
            os << "cwg: cycle " << c.at << ": " << c.diagnosis;
            result.violations.push_back(os.str());
        }
        for (const verify::CwgCycle &c : cwg->warnings()) {
            std::ostringstream os;
            os << "cwg: cycle " << c.at << ": " << c.diagnosis;
            result.warnings.push_back(os.str());
        }
    }
    if (!result.quiescent && !watchdog.deadlocked()) {
        std::ostringstream os;
        os << "drain budget (" << spec.drainCycles
           << " cycles) exhausted with " << net.activeMessages()
           << " messages still live";
        result.violations.push_back(os.str());
    }
    if (cfg.trafficArmed() && injector.offered() == 0) {
        // Zero offered messages with traffic armed: the workload
        // degenerated (e.g. every source self-maps on this topology).
        // An empty run proves nothing — refuse to call it a pass.
        result.degenerate = true;
        result.violations.push_back(
            "traffic: degenerate workload: 0 messages offered over " +
            std::to_string(net.now()) + " cycles with traffic armed");
    }
    if (!result.quiescent) {
        net.messageStore().forEach([&](const Message &msg) {
            std::ostringstream os;
            os << "msg " << msg.id << ": state "
               << static_cast<int>(msg.state) << ", " << msg.src << "->"
               << msg.dst << " at " << msg.hdr.cur << ", epoch "
               << msg.epoch << ", retries " << msg.retries << ", heals "
               << msg.healAttempts << ", lastHealAt " << msg.lastHealAt
               << ", path " << msg.path.size() << " hops, inRcu "
               << msg.inRcu << ", teardown "
               << static_cast<int>(msg.teardown) << ", retryAt "
               << msg.retryAt << ", flits " << msg.injectedFlits << "/"
               << msg.arrivedFlits << ", srcCtr " << msg.srcCounter
               << "/" << msg.srcK << (msg.srcHold ? " HELD" : "")
               << ", leadHop " << msg.leadHop;
            for (const PathHop &hop : msg.path) {
                const VcState &vc = net.vc(hop.link, hop.vc);
                os << " [" << hop.link << ":" << hop.vc
                   << (vc.owner == msg.id ? "" : " NOTOWN") << " ctr "
                   << vc.counter << "/" << vc.kReg
                   << (vc.hold ? " HOLD" : "")
                   << (vc.routed ? "" : " UNROUTED") << " q"
                   << vc.size() << "]";
            }
            if (const verify::CwgTracker *cwg = net.cwg()) {
                const std::string waits = cwg->describeWaits(msg.id);
                if (!waits.empty())
                    os << ", waits on " << waits;
            }
            result.liveDump.push_back(os.str());
        });
    }

    for (const Network::HealRecord &h : net.healLog())
        result.healEvents.push_back(
            {h.at, h.knotHash, h.victim, h.attempt});

    net.attachTrace(nullptr);
    result.messages = net.counters().generated;
    result.counters = net.counters();
    result.passed = result.violations.empty();
    return result;
}

std::vector<CampaignResult>
runCampaigns(const std::vector<CampaignSpec> &specs, int jobs)
{
    std::vector<CampaignResult> results(specs.size());
    parallelFor(specs.size(),
                std::min(resolveJobs(jobs), specs.size()),
                [&](std::size_t i) { results[i] = runCampaign(specs[i]); });
    return results;
}

} // namespace chaos
} // namespace tpnet
