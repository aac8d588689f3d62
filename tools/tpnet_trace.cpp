/**
 * @file
 * tpnet_trace — record, inspect, and replay flit-level event traces
 * (DESIGN.md §6e), and render the Fig. 1 time-space diagram either from
 * a live run (legacy mode) or offline from a recorded trace.
 *
 * Subcommands:
 *   record  run a canonical seeded scenario (simulator options apply
 *           on top of its config) with a TraceRecorder attached and
 *           write the binary trace (plus optional JSONL);
 *           --jobs N records N concurrent copies and verifies their
 *           digests match before writing. Prints the 64-bit digest.
 *   dump    print recorded events as JSONL, filterable by kind/message.
 *   replay  rebuild the Fig. 1 time-space diagram from a recorded
 *           trace (no simulation) and print the re-computed digest.
 *   digest  print the digest and record count of a trace file.
 *   check   run the trace-level property checks (VC conservation and,
 *           with --scout-k, the Section 2.2 scout-gap invariant).
 *
 * Without a subcommand, the legacy live mode renders the diagram of a
 * single freshly simulated message:
 *   tpnet_trace --protocol SR --scout-k 3 --hops 5 --length 8
 *
 * Examples:
 *   tpnet_trace --seed 7 record --scenario sr-k3 --out t.bin
 *   tpnet_trace replay --in t.bin
 *   tpnet_trace dump --in t.bin --kind vc-alloc | head
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/pool.hpp"
#include "core/run_loop.hpp"
#include "core/tpnet.hpp"
#include "metrics/timespace.hpp"
#include "obs/recorder.hpp"
#include "obs/replay.hpp"
#include "obs/trace_format.hpp"
#include "sim/options.hpp"

namespace {

using namespace tpnet;

int
scenarioIndex(const std::string &name)
{
    for (std::size_t i = 0; i < 4; ++i) {
        if (name == obs::goldenSpecName(i))
            return static_cast<int>(i);
    }
    return -1;
}

/** A recorded trace file, read whole. */
struct LoadedTrace
{
    std::vector<obs::TraceEvent> events;
    std::uint64_t digest = 0;
    std::uint64_t seed = 0;
};

bool
loadTrace(const std::string &path, LoadedTrace *trace)
{
    std::ifstream is(path, std::ios::binary);
    if (!is) {
        std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
        return false;
    }
    obs::TraceReader reader(is);
    const obs::CheckResult read =
        reader.ok() ? obs::readAll(reader, &trace->events)
                    : obs::CheckResult{false, reader.error()};
    if (!read.ok) {
        std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                     read.error.c_str());
        return false;
    }
    trace->digest = reader.digest();
    trace->seed = reader.info().seed;
    return true;
}

int
cmdRecord(OptionParser &parser, int argc, const char *const *argv)
{
    std::string out = "trace.bin";
    std::string jsonl;
    int scenario = scenarioIndex("sr-k3");
    SimConfigOptions simopts;
    int jobs = 1;
    int cycles = 0;
    addSimConfigOptions(parser, &simopts);
    parser.addString("out", "output trace file", &out);
    parser.addString("jsonl", "also write a JSONL text dump here",
                     &jsonl);
    parser.addValue("scenario", "<name>",
                    "wr-faultfree | sr-k3 | tp-staticfault | tp-dynkill",
                    [&scenario](const std::string &v, std::string *why) {
                        scenario = scenarioIndex(v);
                        *why = "expected wr-faultfree | sr-k3 | "
                               "tp-staticfault | tp-dynkill";
                        return scenario >= 0;
                    });
    parser.addNumber("cycles", "injection window override (0: default)",
                     &cycles);
    parser.addJobs(&jobs);
    parser.parseOrExit(argc, argv);

    // --seed picks the scenario family (each scenario derives its own
    // seed from it); every other simulator option applies on top of
    // the scenario's config.
    SimConfig given;
    simopts.apply(&given);
    const std::uint64_t seed = given.seed;
    obs::RecordSpec spec =
        obs::goldenSpecs(seed)[static_cast<std::size_t>(scenario)];
    const std::uint64_t scenario_seed = spec.cfg.seed;
    simopts.apply(&spec.cfg);
    spec.cfg.seed = scenario_seed;
    if (cycles > 0)
        spec.cycles = static_cast<Cycle>(cycles);

    const obs::TraceRecorder rec =
        obs::recordRun(spec, resolveJobs(jobs));

    std::ofstream os(out, std::ios::binary);
    if (!os) {
        std::fprintf(stderr, "error: cannot write %s\n", out.c_str());
        return 1;
    }
    rec.writeBinary(os, seed);
    if (!jsonl.empty()) {
        std::ofstream js(jsonl);
        if (!js) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         jsonl.c_str());
            return 1;
        }
        rec.writeJsonl(js);
    }
    std::printf("recorded %s seed %" PRIu64 ": %zu events -> %s\n",
                obs::goldenSpecName(static_cast<std::size_t>(scenario)),
                seed, rec.size(), out.c_str());
    std::printf("digest %016" PRIx64 "\n", rec.digest());
    return 0;
}

int
cmdDump(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "trace.bin";
    std::string kind;
    std::uint64_t msg = ~0ull;
    int limit = 0;
    parser.addString("in", "input trace file", &in);
    parser.addString("kind",
                     "only this record kind (cross | inject | deliver | "
                     "vc-alloc | vc-release | probe | msg-create | "
                     "msg-terminal)",
                     &kind);
    parser.addNumber("msg", "only this message id", &msg);
    parser.addNumber("limit", "stop after N matching events (0: all)",
                     &limit);

    parser.parseOrExit(argc, argv);

    LoadedTrace trace;
    if (!loadTrace(in, &trace))
        return 1;

    int printed = 0;
    for (const obs::TraceEvent &ev : trace.events) {
        if (!kind.empty() && kind != obs::traceEventKindName(ev.kind))
            continue;
        if (msg != ~0ull && ev.msg != static_cast<std::int64_t>(msg))
            continue;
        std::printf("%s\n", obs::traceEventJson(ev).c_str());
        if (limit > 0 && ++printed >= limit)
            break;
    }
    return 0;
}

int
cmdReplay(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "trace.bin";
    std::uint64_t msg = ~0ull;
    int width = 120;
    parser.addString("in", "input trace file", &in);
    parser.addNumber("msg",
                     "message to diagram (default: first delivered)",
                     &msg);
    parser.addNumber("width", "max diagram columns", &width);

    parser.parseOrExit(argc, argv);

    LoadedTrace trace;
    if (!loadTrace(in, &trace))
        return 1;

    const MsgId target = msg == ~0ull ? invalidMsg
                                      : static_cast<MsgId>(msg);
    const TimeSpaceTrace ts = obs::replayTimeSpace(trace.events, target);
    std::printf("# replay of %s  seed %" PRIu64 "  (%zu events)\n",
                in.c_str(), trace.seed, trace.events.size());
    std::fputs(ts.render(static_cast<std::size_t>(width)).c_str(),
               stdout);
    std::printf("max header lead %d links\n", ts.maxHeaderLead());
    std::printf("digest %016" PRIx64 "\n", trace.digest);
    return 0;
}

int
cmdDigest(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "trace.bin";
    parser.addString("in", "input trace file", &in);

    parser.parseOrExit(argc, argv);

    LoadedTrace trace;
    if (!loadTrace(in, &trace))
        return 1;
    std::printf("%016" PRIx64 "  %zu events  seed %" PRIu64 "\n",
                trace.digest, trace.events.size(), trace.seed);
    return 0;
}

int
cmdCheck(OptionParser &parser, int argc, const char *const *argv)
{
    std::string in = "trace.bin";
    SimConfigOptions simopts;
    bool partial = false;
    parser.addString("in", "input trace file", &in);
    // --scout-k names the K the trace was recorded with; given, the
    // scout-gap invariant is checked against it.
    addSimConfigOptions(parser, &simopts, {optionOf(&SimConfig::scoutK)});
    parser.addFlag("partial",
                   "trace did not run to quiescence (skip the "
                   "all-released check)",
                   &partial);

    parser.parseOrExit(argc, argv);
    SimConfig recorded;
    simopts.apply(&recorded);
    const int scout_k =
        simopts.given(&SimConfig::scoutK) ? recorded.scoutK : -1;

    LoadedTrace trace;
    if (!loadTrace(in, &trace))
        return 1;

    int failures = 0;
    const obs::CheckResult vc = obs::checkVcBalance(trace.events, !partial);
    if (vc.ok) {
        std::printf("vc-balance: ok (%zu alloc/release events)\n",
                    vc.checked);
    } else {
        std::printf("vc-balance: FAIL — %s\n", vc.error.c_str());
        ++failures;
    }
    if (scout_k >= 0) {
        const obs::CheckResult gap =
            obs::checkScoutGap(trace.events, scout_k);
        if (gap.ok) {
            std::printf("scout-gap (K=%d): ok (%zu data crossings)\n",
                        scout_k, gap.checked);
        } else {
            std::printf("scout-gap (K=%d): FAIL — %s\n", scout_k,
                        gap.error.c_str());
            ++failures;
        }
    }
    return failures ? 1 : 0;
}

int
legacyLive(int argc, const char *const *argv)
{
    SimConfig cfg;
    cfg.protocol = Protocol::Scouting;
    cfg.msgLength = 8;
    cfg.load = 0.0;
    SimConfigOptions simopts;
    std::vector<int> failed;
    int hops = 5;
    int dst = -1;
    int src = 0;
    int width = 120;

    OptionParser parser("tpnet_trace",
                        "time-space diagram of one message (Fig. 1); "
                        "see also the record/dump/replay/digest/check "
                        "subcommands");
    addSimConfigOptions(parser, &simopts);
    parser.addNumber("hops", "path length along dim 0 (ignored with --dst)",
                     &hops);
    parser.addNumber("src", "source node id", &src);
    parser.addNumber("dst", "destination node id (-1: use --hops)", &dst);
    parser.addValue("fail", "<nodes>", "comma-separated failed node ids",
                    [&failed](const std::string &v, std::string *why) {
                        *why = "expected node ids joined by ','";
                        return parseNumbers(v, &failed);
                    });
    parser.addNumber("width", "max diagram columns", &width);
    parser.parseOrExit(argc, argv);
    simopts.apply(&cfg);
    if (cfg.topology != TopologyKind::Torus &&
        cfg.topology != TopologyKind::Mesh) {
        // The hop-count synthesizer walks cube coordinates.
        std::fprintf(stderr,
                     "error: the time-space synthesizer only draws "
                     "torus/mesh paths; record a trace with "
                     "`tpnet_trace record --topology %s` and use the "
                     "dump/replay subcommands instead\n",
                     topologyName(cfg.topology));
        return 2;
    }
    cfg.validate();
    const int nodes = cfg.nodes();
    if (src < 0 || src >= nodes || dst >= nodes) {
        std::fprintf(stderr, "error: --src/--dst must be node ids below "
                             "%d\n", nodes);
        return 2;
    }

    if (cfg.protocol == Protocol::Scouting && cfg.scoutK == 0)
        cfg.scoutK = 3;  // an SR diagram with K = 0 is just WR
    if (dst < 0) {
        const int dx = std::min(hops, cfg.k / 2 - 1);
        const int dy = hops - dx;
        OffsetVec coords{};
        TorusTopology topo(cfg.k, cfg.n);
        for (int d = 0; d < cfg.n; ++d)
            coords[d] = topo.coord(src, d);
        coords[0] = (coords[0] + dx) % cfg.k;
        if (cfg.n > 1)
            coords[1] = (coords[1] + dy) % cfg.k;
        dst = topo.nodeAt(coords);
    }

    // The one message offered below is the whole workload: the network
    // sees no traffic classes, so a closed-loop class has no request
    // to answer, and the injector is stopped before the first cycle.
    SimConfig single = cfg;
    single.trafficClasses.clear();
    Network net(single);
    for (NodeId f : failed) {
        if (f < 0 || f >= nodes || f == src || f == dst) {
            std::fprintf(stderr, "error: cannot fail node %d (out of "
                                 "range, or the src/dst)\n", f);
            return 2;
        }
        net.failNode(f);
    }

    Injector inj(net);
    inj.stop();
    TimeSpaceTrace trace(0);
    net.attachTrace(&trace);
    net.setMeasuring(true);
    net.offerMessage(src, dst);
    RunLoop(net, inj).run(100000, false,
                          [&] { return net.activeMessages() == 0; });

    std::printf("# %s   src=%d dst=%d\n", cfg.summary().c_str(), src,
                dst);
    std::fputs(trace.render(static_cast<std::size_t>(width)).c_str(),
               stdout);
    if (net.counters().delivered == 1) {
        std::printf("delivered: latency %.0f cycles, max header lead "
                    "%d links\n",
                    net.counters().latency.mean(),
                    trace.maxHeaderLead());
    } else {
        std::printf("NOT delivered (undeliverable or still searching)\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    static const struct
    {
        const char *name;
        const char *description;
        int (*run)(OptionParser &, int, const char *const *);
    } commands[] = {
        {"record", "record a canonical seeded scenario", cmdRecord},
        {"dump", "print recorded events as JSONL", cmdDump},
        {"replay", "time-space diagram from a recorded trace", cmdReplay},
        {"digest", "digest and record count of a trace file", cmdDigest},
        {"check", "trace-level property checks", cmdCheck},
    };

    // The subcommand is the first argument matching a known name; flags
    // may precede it (`tpnet_trace --seed 7 record` works). Everything
    // else is passed on to the subcommand's parser.
    const auto *cmd = std::end(commands);
    std::vector<const char *> rest;
    rest.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (cmd == std::end(commands)) {
            cmd = std::find_if(std::begin(commands), std::end(commands),
                               [&](const auto &c) {
                                   return std::strcmp(argv[i], c.name) ==
                                          0;
                               });
            if (cmd != std::end(commands))
                continue;
        }
        rest.push_back(argv[i]);
    }
    const int rargc = static_cast<int>(rest.size());
    const char *const *rargv = rest.data();

    if (cmd == std::end(commands))
        return legacyLive(rargc, rargv);
    OptionParser parser(std::string("tpnet_trace ") + cmd->name,
                        cmd->description);
    return cmd->run(parser, rargc, rargv);
}
