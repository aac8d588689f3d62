/**
 * @file
 * Chaos campaigns: one seeded adversarial run, end to end.
 *
 * A campaign wires together the full harness around one Network:
 * randomized traffic (Injector), a randomized or scripted fault
 * timeline (FaultSchedule), the progress watchdog, and the delivery
 * oracle. It runs the injection window, stops traffic, drains to
 * quiescence, then audits everything. The result carries every
 * violation found; a campaign is reproducible from (spec, seed) alone,
 * so any failure can be replayed with one command.
 */

#ifndef TPNET_CHAOS_CAMPAIGN_HPP
#define TPNET_CHAOS_CAMPAIGN_HPP

#include <string>
#include <vector>

#include "chaos/fault_schedule.hpp"
#include "chaos/watchdog.hpp"
#include "metrics/collector.hpp"
#include "sim/config.hpp"

namespace tpnet {
namespace chaos {

/** Everything that defines one campaign (reproducible by value). */
struct CampaignSpec
{
    /// Base simulation configuration: geometry, protocol, load,
    /// K-policy, tail acknowledgments. The seed field is overridden by
    /// `seed` below; the built-in panic watchdog is disabled (the
    /// chaos watchdog reports stalls instead of aborting).
    SimConfig cfg;

    std::uint64_t seed = 1;

    Cycle injectCycles = 20000;  ///< cycles of traffic generation
    Cycle drainCycles = 100000;  ///< extra budget to reach quiescence

    ScheduleSpec faults;         ///< randomized fault timeline shape

    /// When non-empty, this exact pinned event list replaces the
    /// randomized timeline (victims must be resolved; no fault RNG is
    /// consumed). This is how shrunken fault schedules replay: the
    /// traffic stream is untouched, so the run is bit-identical to the
    /// original up to the removed events.
    std::vector<FaultEvent> scriptedFaults;

    WatchdogConfig watchdog;

    /// TEST ONLY: arm Network::testHookSkipKillSweep, deliberately
    /// breaking fault recovery so the harness's detection can be
    /// demonstrated (the campaign must then FAIL).
    bool injectSkipKillBug = false;

    /// Run the CWG deadlock analyzer alongside the campaign: every
    /// violation it detects (escape-class cycle, knot) joins the
    /// campaign's violation list with its full diagnosis; persistent
    /// benign cycles are collected as warnings (advisory, non-fatal).
    bool verifyCwg = false;

    /// Inert: no library code or tool reads these three fields. A
    /// campaign is replayed from (spec, seed), not restored. They stay
    /// only because the perfbench replica (perfbench/replica.cpp) still
    /// names them, and they go with it (ROADMAP item 9).
    Cycle checkpointEvery = 0;
    std::string checkpointPath;
    std::string restorePath;
};

/** Outcome of one campaign. */
struct CampaignResult
{
    std::uint64_t seed = 0;
    bool passed = false;
    std::vector<std::string> violations;
    /// Advisory diagnoses (CWG persistent-cycle warnings): never fail
    /// a campaign, but worth a look when a run is slow or saturated.
    std::vector<std::string> warnings;

    Cycle cycles = 0;            ///< total cycles simulated
    bool quiescent = false;      ///< network drained completely
    /// Traffic was armed but zero messages were offered (degenerate
    /// workload); always accompanied by a violation.
    bool degenerate = false;
    std::uint64_t messages = 0;  ///< messages created
    std::size_t faultsFired = 0;
    std::size_t faultsSkipped = 0;
    Counters counters;

    /// CWG statistics (all zero unless spec.verifyCwg or recovery).
    std::uint64_t cwgCycles = 0;        ///< wait cycles detected
    std::uint64_t cwgBenign = 0;        ///< classified benign-transient
    std::size_t cwgViolations = 0;      ///< escape cycles + knots
    std::size_t cwgWarnings = 0;        ///< persistent-cycle warnings

    /// One victimization per heal, in simulation order (recovery mode).
    /// Campaigns are shared-nothing, so this list is bit-identical for
    /// any --jobs — the determinism regression checks exactly that.
    struct HealEvent
    {
        Cycle at = 0;
        std::uint64_t knotHash = 0;
        MsgId victim = invalidMsg;
        int attempt = 0;

        bool
        operator==(const HealEvent &o) const
        {
            return at == o.at && knotHash == o.knotHash &&
                   victim == o.victim && attempt == o.attempt;
        }
    };
    std::vector<HealEvent> healEvents;

    /// The fault timeline as it actually played out: every event that
    /// fired, victims resolved. Feed back into
    /// CampaignSpec::scriptedFaults to replay (or shrink) the exact
    /// fault history of this run.
    std::vector<FaultEvent> firedEvents;

    /// When the drain failed, one line of state per live message (what
    /// it is, where it is, and what the CWG says it waits on) — the
    /// starting point of every wedge diagnosis.
    std::vector<std::string> liveDump;

    /** One-line human summary. */
    std::string summary() const;
};

/**
 * Stable digest of a simulation configuration (versioned encoding of
 * every SimConfig field but the engine switch).
 */
std::uint64_t configDigest(const SimConfig &cfg);

/** 16-digit lowercase hex. */
std::string hex64(std::uint64_t v);

/**
 * Whole-run digests of one campaign. Two runs of one spec that must
 * agree (event engine on vs off, a replay) compare them.
 */
struct CampaignDigests
{
    std::uint64_t trace = 0;    ///< FNV-1a over every trace record
    std::uint64_t records = 0;  ///< trace records folded into `trace`
    std::uint64_t state = 0;    ///< campaignStateDigest of the final harness
};

/**
 * Run one campaign to completion. With @p digests non-null, a digest
 * tee sits in front of the oracle for the whole run and the final
 * harness state is hashed; both cost time, so sweeps pass null.
 */
CampaignResult runCampaign(const CampaignSpec &spec,
                           CampaignDigests *digests = nullptr);

/**
 * Run several campaigns across @p jobs worker threads (0 resolves via
 * TPNET_JOBS / hardware concurrency). Campaigns are shared-nothing and
 * reproducible from their spec alone, so results[i] is bit-identical
 * to runCampaign(specs[i]) regardless of jobs.
 */
std::vector<CampaignResult>
runCampaigns(const std::vector<CampaignSpec> &specs, int jobs = 0);

} // namespace chaos
} // namespace tpnet

#endif // TPNET_CHAOS_CAMPAIGN_HPP
