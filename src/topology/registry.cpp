#include "topology/registry.hpp"

#include "sim/log.hpp"
#include "topology/dragonfly.hpp"
#include "topology/express.hpp"
#include "topology/torus.hpp"

namespace tpnet {

namespace {

std::unique_ptr<const Topology>
makeTorus(const SimConfig &cfg)
{
    return std::make_unique<TorusTopology>(cfg.k, cfg.n, true);
}

std::unique_ptr<const Topology>
makeMesh(const SimConfig &cfg)
{
    return std::make_unique<MeshTopology>(cfg.k, cfg.n);
}

std::unique_ptr<const Topology>
makeExpress(const SimConfig &cfg)
{
    return std::make_unique<ExpressCubeTopology>(cfg.k, cfg.n,
                                                 cfg.expressGap);
}

std::unique_ptr<const Topology>
makeDragonfly(const SimConfig &cfg)
{
    return std::make_unique<DragonflyTopology>(cfg.dfRouters, cfg.dfGlobal);
}

SimConfig
smallCube(TopologyKind kind, int k)
{
    SimConfig cfg;
    cfg.topology = kind;
    cfg.k = k;
    cfg.n = 2;
    cfg.msgLength = 4;
    return cfg;
}

SimConfig
wallTorus()
{
    return smallCube(TopologyKind::Torus, 4); // 16 nodes, radix 4
}

SimConfig
wallMesh()
{
    return smallCube(TopologyKind::Mesh, 4); // 16 nodes, radix 4
}

SimConfig
wallExpress()
{
    SimConfig cfg = smallCube(TopologyKind::Express, 6); // 36 nodes, radix 8
    cfg.expressGap = 2;
    return cfg;
}

SimConfig
wallDragonfly()
{
    SimConfig cfg;
    cfg.topology = TopologyKind::Dragonfly;
    cfg.dfRouters = 4; // g = 5 groups, 20 nodes, radix 4
    cfg.dfGlobal = 1;
    cfg.msgLength = 4;
    return cfg;
}

} // namespace

const std::vector<TopologyEntry> &
topologyRegistry()
{
    static const std::vector<TopologyEntry> registry = {
        {"torus", TopologyKind::Torus, makeTorus, wallTorus},
        {"mesh", TopologyKind::Mesh, makeMesh, wallMesh},
        {"express", TopologyKind::Express, makeExpress, wallExpress},
        {"dragonfly", TopologyKind::Dragonfly, makeDragonfly,
         wallDragonfly},
    };
    return registry;
}

const TopologyEntry &
topologyEntry(TopologyKind kind)
{
    for (const TopologyEntry &entry : topologyRegistry()) {
        if (entry.kind == kind)
            return entry;
    }
    tpnet_fatal("unregistered topology kind ", static_cast<int>(kind));
}

std::unique_ptr<const Topology>
makeTopology(const SimConfig &cfg)
{
    return topologyEntry(cfg.topology).make(cfg);
}

} // namespace tpnet
