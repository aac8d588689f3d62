#include "chaos/shrink.hpp"

#include <cstddef>

namespace tpnet {
namespace chaos {

namespace {

bool
stillFails(const CampaignSpec &spec, const CampaignRunner &run)
{
    return !run(spec).passed;
}

/**
 * Greedy class-level pass: propose one reduction at a time, keep it
 * only if the campaign still fails, restart after every acceptance so
 * e.g. the injection window keeps halving until it stops reproducing.
 * With a scripted timeline the fault-class counts are meaningless and
 * the topology is pinned by the resolved victims, so only the
 * injection window and the load are tried.
 */
CampaignSpec
shrinkClasses(CampaignSpec spec, const CampaignRunner &run, int *steps)
{
    const bool scripted = !spec.scriptedFaults.empty();
    bool improved = true;
    while (improved) {
        improved = false;

        if (spec.injectCycles >= 1000) {
            CampaignSpec cand = spec;
            cand.injectCycles /= 2;
            cand.faults.horizon = cand.injectCycles;
            cand.faults.earliest = cand.injectCycles / 100;
            if (stillFails(cand, run)) {
                spec = cand;
                improved = true;
                ++*steps;
                continue;
            }
        }
        if (!scripted) {
            for (int dim = 0; dim < 3; ++dim) {
                int *field = dim == 0   ? &spec.faults.nodeKills
                             : dim == 1 ? &spec.faults.linkKills
                                        : &spec.faults.intermittents;
                if (*field == 0)
                    continue;
                CampaignSpec cand = spec;
                int *cfield = dim == 0   ? &cand.faults.nodeKills
                              : dim == 1 ? &cand.faults.linkKills
                                         : &cand.faults.intermittents;
                *cfield = 0;
                if (stillFails(cand, run)) {
                    spec = cand;
                    improved = true;
                    ++*steps;
                    break;
                }
            }
            if (improved)
                continue;

            // Radix shrinking only means something on cube kinds; a
            // dragonfly's size is (routers, global), which the replay
            // line pins instead.
            if (spec.cfg.topology != TopologyKind::Dragonfly &&
                spec.cfg.k > 4 &&
                (spec.cfg.topology != TopologyKind::Express ||
                 spec.cfg.expressGap < 4)) {
                CampaignSpec cand = spec;
                cand.cfg.k = 4;
                if (stillFails(cand, run)) {
                    spec = cand;
                    improved = true;
                    ++*steps;
                    continue;
                }
            }
        }
        if (spec.cfg.load > 0.02) {
            CampaignSpec cand = spec;
            cand.cfg.load /= 2.0;
            if (stillFails(cand, run)) {
                spec = cand;
                improved = true;
                ++*steps;
            }
        }
    }
    return spec;
}

/**
 * Event-level delta debugging over a pinned timeline: remove one event
 * at a time, keep the removal when the failure survives, and repeat
 * until a full pass removes nothing. Removing the last event also
 * zeroes the fault counts: an empty pinned timeline means no faults,
 * not the randomized timeline an empty list asks runCampaign for.
 */
CampaignSpec
shrinkEvents(CampaignSpec spec, const CampaignRunner &run, int *steps)
{
    bool improved = true;
    while (improved && spec.scriptedFaults.size() > 0) {
        improved = false;
        for (std::size_t i = 0; i < spec.scriptedFaults.size(); ++i) {
            CampaignSpec cand = spec;
            cand.scriptedFaults.erase(
                cand.scriptedFaults.begin() +
                static_cast<std::ptrdiff_t>(i));
            if (cand.scriptedFaults.empty())
                cand.faults.nodeKills = cand.faults.linkKills =
                    cand.faults.intermittents = 0;
            if (stillFails(cand, run)) {
                spec = std::move(cand);
                improved = true;
                ++*steps;
                break;
            }
        }
    }
    return spec;
}

} // namespace

ShrinkOutcome
shrinkCampaign(CampaignSpec spec, const CampaignRunner &run)
{
    ShrinkOutcome out;

    // Class-level first: cheap big cuts (shorter runs make every
    // event-level probe cheaper too).
    spec = shrinkClasses(std::move(spec), run, &out.classSteps);

    // Pin the fault timeline to the events that actually fired. A
    // pinned replay consumes no fault RNG and the traffic stream is
    // independent, so this reproduces the run exactly — the check is
    // defensive.
    if (spec.scriptedFaults.empty()) {
        const CampaignResult base = run(spec);
        if (!base.passed) {
            CampaignSpec pinned = spec;
            pinned.scriptedFaults = base.firedEvents;
            if (stillFails(pinned, run)) {
                spec = std::move(pinned);
                out.eventsPinned = true;
            }
        }
    } else {
        out.eventsPinned = true;
    }

    if (out.eventsPinned) {
        spec = shrinkEvents(std::move(spec), run, &out.eventSteps);
        // With the timeline minimized, the class pass may bite again
        // (e.g. the injection window can now halve past the last
        // surviving event).
        spec = shrinkClasses(std::move(spec), run, &out.classSteps);
    }

    out.spec = std::move(spec);
    return out;
}

} // namespace chaos
} // namespace tpnet
