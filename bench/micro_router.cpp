/**
 * @file
 * Google-benchmark micro suite: costs of the router-architecture
 * primitives of Section 5.0 (header codec, CMU-style bookkeeping) and
 * of the simulation engine itself (cycle cost idle/loaded, fault
 * machinery), plus ablation handles (misroute budget m, VC count).
 */

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common.hpp"

namespace {

using namespace tpnet;

void
BM_HeaderCodecPack(benchmark::State &state)
{
    HeaderCodec codec(16, 2);
    HeaderState hdr;
    hdr.misroutes = 3;
    hdr.offset[0] = -5;
    hdr.offset[1] = 7;
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.pack(hdr));
}
BENCHMARK(BM_HeaderCodecPack);

void
BM_HeaderCodecUnpack(benchmark::State &state)
{
    HeaderCodec codec(16, 2);
    HeaderState hdr;
    hdr.offset[0] = -5;
    hdr.offset[1] = 7;
    const std::uint64_t raw = codec.pack(hdr);
    for (auto _ : state)
        benchmark::DoNotOptimize(codec.unpack(raw));
}
BENCHMARK(BM_HeaderCodecUnpack);

void
BM_TorusOffsets(benchmark::State &state)
{
    TorusTopology topo(16, 2);
    NodeId a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(topo.offsets(a, 255 - a));
        a = (a + 17) % 256;
    }
}
BENCHMARK(BM_TorusOffsets);

void
BM_RngDraw(benchmark::State &state)
{
    Rng rng(1);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.below(256));
}
BENCHMARK(BM_RngDraw);

/**
 * Cost of one network cycle at a given offered load (x1000 cycles).
 * Arg(30) is the uniform_sat load, the saturation knee. The step's work
 * per cycle — visits per phase, route() calls and blocked re-routes,
 * move attempts, moves, rejects by reason, injection attempts,
 * message-table lookups — is reported as user counters from
 * Network::stepWork(), so a speedup can be told apart from less work.
 */
void
BM_NetworkCycle(benchmark::State &state)
{
    SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
    cfg.load = static_cast<double>(state.range(0)) / 100.0;
    Network net(cfg);
    Injector inj(net);
    // Warm the network into steady state.
    for (int c = 0; c < 2000; ++c) {
        inj.step();
        net.step();
    }
    const StepWork before = net.stepWork();
    for (auto _ : state) {
        inj.step();
        net.step();
    }
    benchmark::DoNotOptimize(net.counters().dataCrossings);
    state.SetItemsProcessed(state.iterations());

    const StepWork &after = net.stepWork();
    const auto perCycle = [&](const char *name, std::uint64_t a,
                              std::uint64_t b) {
        state.counters[name] = benchmark::Counter(
            static_cast<double>(a - b) /
            static_cast<double>(state.iterations()));
    };
    perCycle("rcu_visits", after.rcuVisits, before.rcuVisits);
    perCycle("ctrl_visits", after.ctrlVisits, before.ctrlVisits);
    perCycle("data_visits", after.dataVisits, before.dataVisits);
    perCycle("route_calls", after.routeCalls, before.routeCalls);
    perCycle("blocked_reroutes", after.blockedReroutes,
             before.blockedReroutes);
    perCycle("move_attempts", after.moveAttempts, before.moveAttempts);
    perCycle("moves", after.moves, before.moves);
    perCycle("rej_empty", after.rejectEmpty, before.rejectEmpty);
    perCycle("rej_gated", after.rejectGated, before.rejectGated);
    perCycle("rej_not_ready", after.rejectNotReady, before.rejectNotReady);
    perCycle("rej_unmapped", after.rejectUnmapped, before.rejectUnmapped);
    perCycle("rej_faulty", after.rejectFaulty, before.rejectFaulty);
    perCycle("rej_full", after.rejectFull, before.rejectFull);
    perCycle("rej_owner", after.rejectOwner, before.rejectOwner);
    perCycle("inject_attempts", after.injectAttempts, before.injectAttempts);
    perCycle("injections", after.injections, before.injections);
    perCycle("msg_lookups", after.messageLookups, before.messageLookups);
}
BENCHMARK(BM_NetworkCycle)->Arg(0)->Arg(10)->Arg(25)->Arg(30);

/** End-to-end single message setup+delivery, per protocol. */
void
BM_OneMessage(benchmark::State &state)
{
    const Protocol proto = static_cast<Protocol>(state.range(0));
    SimConfig cfg = bench::paperConfig(proto);
    cfg.load = 0.0;
    for (auto _ : state) {
        Network net(cfg);
        net.offerMessage(0, 8 + 16 * 4);
        while (net.activeMessages() > 0)
            net.step();
        benchmark::DoNotOptimize(net.counters().delivered);
    }
}
BENCHMARK(BM_OneMessage)
    ->Arg(static_cast<int>(Protocol::Duato))
    ->Arg(static_cast<int>(Protocol::TwoPhase))
    ->Arg(static_cast<int>(Protocol::MBm));

/** Unsafe-region recomputation with a 20-fault pattern. */
void
BM_RecomputeUnsafe(benchmark::State &state)
{
    SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
    cfg.staticNodeFaults = 20;
    Network net(cfg);
    for (auto _ : state)
        net.recomputeUnsafe();
}
BENCHMARK(BM_RecomputeUnsafe);

/**
 * Ablation: misroute budget m (Theorem 2 uses 6). Measures cycles to
 * deliver one message through a Fig. 5-style blocked destination.
 */
void
BM_DetourSearchBudget(benchmark::State &state)
{
    SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
    cfg.load = 0.0;
    cfg.misrouteLimit = static_cast<int>(state.range(0));
    std::uint64_t delivered = 0, cycles = 0;
    for (auto _ : state) {
        Network net(cfg);
        const NodeId dst = 8 + 16 * 4;
        net.failNode(dst + 1);
        net.failNode(dst - 1);
        net.failNode(dst + 16);
        net.offerMessage(0, dst);
        Cycle c = 0;
        while (net.activeMessages() > 0 && c < 50000) {
            net.step();
            ++c;
        }
        delivered += net.counters().delivered;
        cycles += c;
    }
    state.counters["delivered"] =
        static_cast<double>(delivered) /
        static_cast<double>(state.iterations());
    state.counters["cycles"] =
        static_cast<double>(cycles) /
        static_cast<double>(state.iterations());
}
BENCHMARK(BM_DetourSearchBudget)->Arg(1)->Arg(3)->Arg(6);

} // namespace

/**
 * Custom main so micro_router speaks the same CLI as the figure
 * benches: `--json out.json` maps onto Google-benchmark's JSON
 * reporter (`--benchmark_out`), and `--jobs` is accepted and ignored
 * (the micro benches are inherently single-threaded). Everything else
 * is passed through to the benchmark library untouched.
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> args;
    args.reserve(static_cast<std::size_t>(argc) + 2);
    args.emplace_back(argc > 0 ? argv[0] : "micro_router");
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--json" && i + 1 < argc) {
            args.push_back("--benchmark_out=" + std::string(argv[++i]));
            args.emplace_back("--benchmark_out_format=json");
        } else if (a.rfind("--json=", 0) == 0) {
            args.push_back("--benchmark_out=" + a.substr(7));
            args.emplace_back("--benchmark_out_format=json");
        } else if (a == "--jobs" && i + 1 < argc) {
            ++i;
        } else if (a.rfind("--jobs=", 0) != 0) {
            args.push_back(a);
        }
    }
    std::vector<char *> cargs;
    cargs.reserve(args.size());
    for (std::string &s : args)
        cargs.push_back(s.data());
    int cargc = static_cast<int>(cargs.size());

    ::benchmark::Initialize(&cargc, cargs.data());
    if (::benchmark::ReportUnrecognizedArguments(cargc, cargs.data()))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();
    return 0;
}
