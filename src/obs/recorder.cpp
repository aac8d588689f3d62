#include "obs/recorder.hpp"

#include <ostream>

#include "chaos/fault_schedule.hpp"
#include "core/network.hpp"
#include "core/pool.hpp"
#include "core/run_loop.hpp"
#include "sim/log.hpp"
#include "traffic/injector.hpp"

namespace tpnet::obs {

void
TraceRecorder::onEvent(const TraceEvent &ev)
{
    digest_ = foldTraceEvent(ev, digest_);
    events_.push_back(ev);
}

void
TraceRecorder::writeBinary(std::ostream &os, std::uint64_t seed) const
{
    TraceWriter w(os, seed);
    for (const TraceEvent &ev : events_)
        w.write(ev);
}

void
TraceRecorder::writeJsonl(std::ostream &os) const
{
    for (const TraceEvent &ev : events_)
        os << traceEventJson(ev) << '\n';
}

void
TraceRecorder::clear()
{
    events_.clear();
    digest_ = 14695981039346656037ull;
}

std::vector<RecordSpec>
goldenSpecs(std::uint64_t seed)
{
    SimConfig base;
    base.k = 4;
    base.n = 2;
    base.msgLength = 8;
    base.load = 0.15;
    base.seed = seed;

    std::vector<RecordSpec> specs(4);

    // Fault-free wormhole routing (DP is the paper's WR protocol).
    specs[0].cfg = base;
    specs[0].cfg.protocol = Protocol::Duato;

    // Scouting with a fixed scouting distance K = 3.
    specs[1].cfg = base;
    specs[1].cfg.protocol = Protocol::Scouting;
    specs[1].cfg.scoutK = 3;

    // Two-Phase around a static link fault present at power-on.
    specs[2].cfg = base;
    specs[2].cfg.protocol = Protocol::TwoPhase;
    specs[2].cfg.staticLinkFaults = 1;

    // Two-Phase with a node killed mid-run (kill walks + retries).
    specs[3].cfg = base;
    specs[3].cfg.protocol = Protocol::TwoPhase;
    specs[3].faults = {{120, FaultKind::NodeKill, 5}};

    // Decorrelate the scenarios' traffic without extra knobs.
    for (std::size_t i = 0; i < specs.size(); ++i)
        specs[i].cfg.seed = seed + 0x9e3779b97f4a7c15ull * i;
    return specs;
}

const char *
goldenSpecName(std::size_t i)
{
    switch (i) {
      case 0: return "wr-faultfree";
      case 1: return "sr-k3";
      case 2: return "tp-staticfault";
      case 3: return "tp-dynkill";
    }
    return "?";
}

namespace {

TraceRecorder
recordOne(const RecordSpec &spec)
{
    Network net(spec.cfg);
    Injector inj(net);
    TraceRecorder rec;
    net.attachTrace(&rec);
    chaos::FaultSchedule schedule(spec.faults);
    RunLoop loop(net, inj);
    loop.schedule = &schedule;
    loop.faultRng = &net.rng();
    loop.run(spec.cycles);
    inj.stop();
    // Keep stepping the (stopped) injector through the drain so
    // closed-loop replies still flush; a stopped open-loop injector
    // draws nothing, so legacy trace digests are unchanged.
    loop.run(spec.cycles + spec.drain, false,
             [&] { return net.quiescent() && !inj.repliesPending(); });
    net.attachTrace(nullptr);
    return rec;
}

} // namespace

TraceRecorder
recordRun(const RecordSpec &spec, std::size_t jobs)
{
    if (jobs <= 1)
        return recordOne(spec);

    // Record the identical scenario on every worker concurrently; any
    // cross-thread interference or hidden shared state shows up as a
    // digest divergence here.
    std::vector<TraceRecorder> recs(jobs);
    parallelFor(jobs, jobs,
                [&](std::size_t i) { recs[i] = recordOne(spec); });
    for (std::size_t i = 1; i < recs.size(); ++i) {
        if (recs[i].digest() != recs[0].digest() ||
            recs[i].size() != recs[0].size()) {
            tpnet_panic("concurrent record runs diverged: worker ", i,
                        " digest ", recs[i].digest(), " (", recs[i].size(),
                        " events) vs worker 0 digest ", recs[0].digest(),
                        " (", recs[0].size(), " events)");
        }
    }
    return recs[0];
}

} // namespace tpnet::obs
