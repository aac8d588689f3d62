/**
 * @file
 * Structured campaign-result emitter behind tpnet_verify's
 * `--json out.json`. Sweeps, replays and --compare all write the one
 * campaign document below.
 *
 * One object per campaign: verdict, cycle/message totals, fault
 * counts, the CWG tally (cycles / benign / violations / persistent
 * warnings as structured counts, not log lines), and — in recovery
 * mode — the recovery block (knots detected, victims aborted,
 * retransmissions, escalations, heal-latency stats) plus the ordered
 * heal-event list that the jobs-determinism regression compares.
 */

#ifndef TPNET_CHAOS_REPORT_HPP
#define TPNET_CHAOS_REPORT_HPP

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "chaos/campaign.hpp"

namespace tpnet {
namespace chaos {

/**
 * Escape @p s for a JSON string: quotes and backslashes get a
 * backslash, control characters become spaces. The bench reports use
 * it too.
 */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
            continue;
        }
        out += c;
    }
    return out;
}

/** One campaign as a JSON object (no trailing newline). */
inline std::string
campaignJson(const CampaignResult &r)
{
    std::ostringstream os;
    os.precision(17);
    os << "{ \"seed\": " << r.seed
       << ", \"passed\": " << (r.passed ? "true" : "false")
       << ", \"cycles\": " << r.cycles
       << ", \"quiescent\": " << (r.quiescent ? "true" : "false")
       << ", \"messages\": " << r.messages
       << ", \"delivered\": " << r.counters.delivered
       << ", \"undeliverable\": " << r.counters.dropped
       << ", \"lost\": " << r.counters.lost
       << ", \"rejected\": " << r.counters.notAccepted
       << ", \"uniform_fallbacks\": " << r.counters.uniformFallbacks
       << ", \"faults_fired\": " << r.faultsFired
       << ", \"faults_skipped\": " << r.faultsSkipped
       << ", \"cwg\": { \"cycles\": " << r.cwgCycles
       << ", \"benign\": " << r.cwgBenign
       << ", \"violations\": " << r.cwgViolations
       << ", \"persistent_warnings\": " << r.cwgWarnings << " }";
    if (r.counters.knotsDetected > 0 || !r.healEvents.empty()) {
        os << ", \"recovery\": { \"knots\": "
           << r.counters.knotsDetected
           << ", \"victims\": " << r.counters.victimsAborted
           << ", \"heal_retransmits\": " << r.counters.healRetransmits
           << ", \"heal_escalations\": " << r.counters.healEscalations
           << ", \"heal_latency_mean\": "
           << r.counters.healLatency.mean()
           << ", \"heal_events\": [";
        for (std::size_t i = 0; i < r.healEvents.size(); ++i) {
            const CampaignResult::HealEvent &h = r.healEvents[i];
            os << (i ? ", " : "") << "{ \"at\": " << h.at
               << ", \"knot\": " << h.knotHash
               << ", \"victim\": " << h.victim
               << ", \"attempt\": " << h.attempt << " }";
        }
        os << "] }";
    }
    if (r.degenerate)
        os << ", \"degenerate\": true";
    if (!r.counters.classes.empty()) {
        os << ", \"classes\": [";
        for (std::size_t i = 0; i < r.counters.classes.size(); ++i) {
            const ClassStat &cs = r.counters.classes[i];
            os << (i ? ", " : "") << "{ \"generated\": " << cs.generated
               << ", \"delivered\": " << cs.delivered
               << ", \"dropped\": " << cs.dropped
               << ", \"latency\": " << cs.latency.mean() << " }";
        }
        os << "]";
    }
    if (r.counters.repliesGenerated > 0 ||
        r.counters.repliesAbandoned > 0) {
        os << ", \"closed_loop\": { \"replies_generated\": "
           << r.counters.repliesGenerated
           << ", \"replies_delivered\": " << r.counters.repliesDelivered
           << ", \"replies_abandoned\": " << r.counters.repliesAbandoned
           << ", \"e2e_latency_mean\": " << r.counters.e2eLatency.mean()
           << ", \"e2e_count\": " << r.counters.e2eLatency.count()
           << " }";
    }
    os << ", \"violations\": [";
    for (std::size_t i = 0; i < r.violations.size(); ++i)
        os << (i ? ", " : "") << "\""
           << jsonEscape(r.violations[i]) << "\"";
    os << "], \"warnings\": [";
    for (std::size_t i = 0; i < r.warnings.size(); ++i)
        os << (i ? ", " : "") << "\""
           << jsonEscape(r.warnings[i]) << "\"";
    os << "] }";
    return os.str();
}

/**
 * Write a campaign batch as the one campaign document, one campaign
 * object per line:
 *   { "tool": ..., "campaigns": [ {...}, ... ] }
 * @return false on I/O error.
 */
inline bool
writeCampaignJson(const std::string &path, const std::string &tool,
                  const std::vector<CampaignResult> &results)
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\n  \"tool\": \"" << jsonEscape(tool)
       << "\",\n  \"campaigns\": [";
    for (std::size_t i = 0; i < results.size(); ++i)
        os << (i ? ",\n    " : "\n    ") << campaignJson(results[i]);
    os << "\n  ]\n}\n";
    return static_cast<bool>(os);
}

} // namespace chaos
} // namespace tpnet

#endif // TPNET_CHAOS_REPORT_HPP
