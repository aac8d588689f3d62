#include "workloads.hpp"

#include <string_view>

#include "sim/log.hpp"

namespace perfbench {

using namespace tpnet;

namespace {

/** The paper's evaluation system (Section 6.0), full-length windows. */
SimConfig
paperConfig()
{
    SimConfig cfg;
    cfg.k = 16;
    cfg.n = 2;
    cfg.protocol = Protocol::TwoPhase;
    cfg.msgLength = 32;
    cfg.warmup = 2000;
    cfg.measure = 6000;
    cfg.drain = 30000;
    cfg.eventEngine = true;  // independent of TPNET_EVENT_ENGINE
    return cfg;
}

/** The verify grid's closed-loop cell at fault intensity 2. */
chaos::CampaignSpec
closedLoopSpec(std::uint64_t campaignSeed)
{
    chaos::CampaignSpec spec;
    spec.cfg.k = 8;
    spec.cfg.n = 2;
    spec.cfg.protocol = Protocol::TwoPhase;
    spec.cfg.scoutK = 3;
    spec.cfg.load = 0.15;
    spec.cfg.maxRetries = 6;
    spec.cfg.eventEngine = true;
    std::string err;
    if (!parseTrafficClasses(
            "pattern=uniform,load=0.10,outstanding=2,replylen=4",
            &spec.cfg.trafficClasses, &err))
        tpnet_panic("bad closed-loop workload spec: ", err);
    spec.seed = campaignSeed;
    spec.injectCycles = 4000;
    spec.drainCycles = 200000;
    spec.verifyCwg = true;
    spec.faults.horizon = spec.injectCycles;
    spec.faults.earliest = spec.injectCycles / 100;
    spec.faults.nodeKills = 4;
    spec.faults.linkKills = 4;
    spec.faults.intermittents = 6;
    spec.faults.downMin = 100;
    spec.faults.downMax = 2000;
    return spec;
}

} // namespace

SimConfig
simulatorConfig(const Workload &w, std::uint64_t seed)
{
    SimConfig cfg = paperConfig();
    cfg.seed = mix(seed);
    if (std::string_view(w.name) == "uniform_sat") {
        cfg.load = 0.30;
    } else if (std::string_view(w.name) == "fault_setup") {
        cfg.scoutK = 3;
        cfg.staticNodeFaults = 10;
        cfg.msgLength = 4;
        cfg.load = 0.03;
    } else {
        tpnet_panic(w.name, " is not a Simulator workload");
    }
    return cfg;
}

chaos::CampaignSpec
campaignSpec(const Workload &w, std::uint64_t campaignSeed)
{
    if (std::string_view(w.name) == "chaos_closedloop")
        return closedLoopSpec(campaignSeed);
    tpnet_panic(w.name, " is not a campaign workload");
}

SimConfig
itemNetworkConfig(const Workload &w, std::uint64_t seed,
                  std::uint64_t item)
{
    if (w.kind == Kind::Simulator) {
        SimConfig cfg = simulatorConfig(w, seed);
        cfg.seed += 0x9e3779b97f4a7c15ull * (item + 1);
        return cfg;
    }
    const chaos::CampaignSpec spec =
        campaignSpec(w, campaignSeed(seed, item));
    SimConfig cfg = spec.cfg;
    cfg.seed = spec.seed;
    cfg.watchdog = 0;
    cfg.verifyCwg = cfg.verifyCwg || spec.verifyCwg;
    return cfg;
}

} // namespace perfbench
