#include "chaos/campaign.hpp"

#include <algorithm>
#include <sstream>

#include "chaos/manifest.hpp"
#include "chaos/oracle.hpp"
#include "chaos/snapshot.hpp"
#include "core/network.hpp"
#include "core/pool.hpp"
#include "core/run_loop.hpp"
#include "obs/checkpoint.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace chaos {

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
    FaultSchedule schedule;
    if (!spec.scriptedFaults.empty()) {
        for (const FaultEvent &ev : spec.scriptedFaults)
            schedule.add(ev);
    } else {
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
        for (MsgId id : net.liveMessageIds()) {
            const Message *msg = net.findMessage(id);
            if (!msg)
                continue;
            std::ostringstream os;
            os << "msg " << id << ": state "
               << static_cast<int>(msg->state) << ", " << msg->src
               << "->" << msg->dst << " at " << msg->hdr.cur
               << ", epoch " << msg->epoch << ", retries "
               << msg->retries << ", heals " << msg->healAttempts
               << ", lastHealAt " << msg->lastHealAt << ", path "
               << msg->path.size()
               << " hops, inRcu " << msg->inRcu << ", beingKilled "
               << msg->beingKilled << ", retryAt " << msg->retryAt
               << ", flits " << msg->injectedFlits << "/"
               << msg->arrivedFlits << ", srcCtr " << msg->srcCounter
               << "/" << msg->srcK << (msg->srcHold ? " HELD" : "")
               << ", leadHop " << msg->leadHop;
            for (const PathHop &hop : msg->path) {
                const VcState &vc = net.vc(hop.link, hop.vc);
                os << " [" << hop.link << ":" << hop.vc
                   << (vc.owner == msg->id ? "" : " NOTOWN") << " ctr "
                   << vc.counter << "/" << vc.kReg
                   << (vc.hold ? " HOLD" : "")
                   << (vc.routed ? "" : " UNROUTED") << " q"
                   << vc.size() << "]";
            }
            if (const verify::CwgTracker *cwg = net.cwg()) {
                const std::string waits = cwg->describeWaits(id);
                if (!waits.empty())
                    os << ", waits on " << waits;
            }
            result.liveDump.push_back(os.str());
        }
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
