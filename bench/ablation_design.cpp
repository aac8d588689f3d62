/**
 * @file
 * Ablations of the design choices DESIGN.md calls out:
 *
 *  - adaptive VC count (Duato's unrestricted partition width),
 *  - data buffer (DIBU) depth,
 *  - injection-queue limit (the Section 6.0 congestion control),
 *  - misroute budget m under faults (Theorem 2 uses 6),
 *  - torus vs mesh.
 *
 * Each knob is swept at a moderate and a near-saturation load on the
 * paper's 16-ary 2-cube with the TP protocol. Every row is one series
 * of the bench's sweep plan.
 */

#include "common.hpp"

namespace {

using namespace tpnet;

/**
 * Queue one table row as a one-point series of the plan; @p last closes
 * its block with a blank line.
 */
void
addRow(bench::Harness &h, const char *group, const std::string &tag,
       const SimConfig &cfg, bool last)
{
    h.add({std::string(group) + " " + tag, {{cfg.load, cfg, {}}}},
          "offered", [group, tag, last](const Series &s) {
              const RunResult &r = s.points.front().result.mean;
              std::printf("%-14s %-22s load=%.2f  thr=%.4f  lat=%7.1f  "
                          "del=%5.1f%%\n",
                          group, tag.c_str(), r.offeredLoad, r.throughput,
                          r.avgLatency, r.deliveredFraction * 100.0);
              if (last)
                  std::printf("\n");
          });
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace tpnet;
    bench::Harness h(argc, argv,
                     "ablation_design — VCs, buffers, queues, m, mesh",
                     "DESIGN.md section 7 (design-choice ablations)");

    const double loads[] = {0.15, 0.30};

    struct Knob
    {
        const char *group;
        std::vector<int> values;
        void (*set)(SimConfig &, int);
    };
    const Knob knobs[] = {
        {"adaptive-vcs", {1, 2, 4},
         [](SimConfig &c, int v) { c.adaptiveVcs = v; }},
        {"buffer-depth", {2, 4, 8, 16},
         [](SimConfig &c, int v) { c.bufDepth = v; }},
        {"inj-queue", {2, 8, 32},
         [](SimConfig &c, int v) { c.injQueueLimit = v; }},
    };
    for (const Knob &knob : knobs) {
        for (double load : loads) {
            for (int v : knob.values) {
                SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
                knob.set(cfg, v);
                cfg.load = load;
                addRow(h, knob.group, std::to_string(v), cfg,
                       v == knob.values.back());
            }
        }
    }

    // Misroute budget under faults: too small fails detours, larger
    // budgets buy reachability at the price of longer searches.
    for (int m : {1, 3, 6}) {
        SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
        cfg.misrouteLimit = m;
        cfg.staticNodeFaults = 10;
        cfg.load = 0.15;
        addRow(h, "misroute-m", std::to_string(m), cfg, m == 6);
    }

    // Torus vs mesh at equal load: the mesh's smaller bisection and
    // longer paths saturate earlier.
    for (double load : loads) {
        for (TopologyKind topo : {TopologyKind::Torus, TopologyKind::Mesh}) {
            SimConfig cfg = bench::paperConfig(Protocol::TwoPhase);
            cfg.topology = topo;
            cfg.load = load;
            addRow(h, "topology", topologyName(topo), cfg,
                   topo == TopologyKind::Mesh);
        }
    }
    return h.finish();
}
