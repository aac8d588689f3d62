/** @file Checkpoint/restore: container-level validation (magic,
 *  version, digests, truncation), write-twice determinism, state
 *  round-trips, and the golden property — a campaign restored from a
 *  checkpoint finishes bit-identical to the straight-through run. */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "chaos/campaign.hpp"
#include "chaos/shard.hpp"
#include "chaos/oracle.hpp"
#include "chaos/report.hpp"
#include "chaos/snapshot.hpp"
#include "core/network.hpp"
#include "helpers.hpp"
#include "obs/checkpoint.hpp"
#include "traffic/injector.hpp"

namespace tpnet {
namespace {

using namespace chaos;
namespace fs = std::filesystem;

fs::path
scratchFile(const std::string &name)
{
    const fs::path path = fs::path(::testing::TempDir()) / name;
    fs::remove(path);
    return path;
}

std::string
slurp(const fs::path &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

void
spit(const fs::path &path, const std::string &bytes)
{
    std::ofstream os(path, std::ios::binary);
    os << bytes;
}

/** A small three-field container used by the corruption tests. */
std::string
tinyContainer(std::uint64_t config_digest)
{
    obs::CkWriter w;
    std::uint64_t a = 0x1111, b = 0x2222, c = 0x3333;
    w.u64(a);
    w.u64(b);
    w.u64(c);
    std::ostringstream os(std::ios::binary);
    w.writeTo(os, config_digest);
    return os.str();
}

TEST(CheckpointContainer, PrimitivesRoundTrip)
{
    obs::CkWriter w;
    std::uint8_t u8v = 0xab;
    std::uint16_t u16v = 0xcdef;
    std::uint32_t u32v = 0xdeadbeef;
    std::uint64_t u64v = 0x0123456789abcdefull;
    std::int32_t i32v = -12345;
    std::int64_t i64v = -9876543210ll;
    double f64v = -0.125e-3;
    bool bv = true;
    std::string sv = "knot \"quoted\"\nline";
    w.u8(u8v);
    w.u16(u16v);
    w.u32(u32v);
    w.u64(u64v);
    w.i32(i32v);
    w.i64(i64v);
    w.f64(f64v);
    w.b(bv);
    w.str(sv);

    std::ostringstream os(std::ios::binary);
    w.writeTo(os, 77);
    std::istringstream is(os.str(), std::ios::binary);
    obs::CkReader r(is);
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(r.info().version, obs::checkpointFormatVersion);
    EXPECT_EQ(r.info().configDigest, 77u);
    EXPECT_EQ(r.info().payloadSize, w.bytes());

    std::uint8_t u8r = 0;
    std::uint16_t u16r = 0;
    std::uint32_t u32r = 0;
    std::uint64_t u64r = 0;
    std::int32_t i32r = 0;
    std::int64_t i64r = 0;
    double f64r = 0;
    bool br = false;
    std::string sr;
    r.u8(u8r);
    r.u16(u16r);
    r.u32(u32r);
    r.u64(u64r);
    r.i32(i32r);
    r.i64(i64r);
    r.f64(f64r);
    r.b(br);
    r.str(sr);
    r.finish();
    ASSERT_TRUE(r.ok()) << r.error();
    EXPECT_EQ(u8r, u8v);
    EXPECT_EQ(u16r, u16v);
    EXPECT_EQ(u32r, u32v);
    EXPECT_EQ(u64r, u64v);
    EXPECT_EQ(i32r, i32v);
    EXPECT_EQ(i64r, i64v);
    EXPECT_EQ(f64r, f64v);
    EXPECT_EQ(br, bv);
    EXPECT_EQ(sr, sv);
}

TEST(CheckpointContainer, RejectsEveryCorruptionMode)
{
    const std::string good = tinyContainer(42);

    {  // sanity: the untampered container parses
        std::istringstream is(good, std::ios::binary);
        obs::CkReader r(is);
        EXPECT_TRUE(r.ok()) << r.error();
    }
    {  // bad magic
        std::string bad = good;
        bad[0] = 'X';
        std::istringstream is(bad, std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
    }
    {  // future version
        std::string bad = good;
        bad[4] = static_cast<char>(obs::checkpointFormatVersion + 1);
        std::istringstream is(bad, std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
    }
    {  // version 1 (it also serialized the CWG's topological order)
        std::string bad = good;
        bad[4] = 1;
        std::istringstream is(bad, std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
        EXPECT_NE(r.error().find("unsupported checkpoint version 1"),
                  std::string::npos)
            << r.error();
    }
    {  // version 2 (separate kill/abort/heal flags per message)
        std::string bad = good;
        bad[4] = 2;
        std::istringstream is(bad, std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
        EXPECT_NE(r.error().find(
                      "unsupported checkpoint version 2 (reader supports 5)"),
                  std::string::npos)
            << r.error();
    }
    {  // version 3 (the CWG waiter index, edge counts and DAG list)
        std::string bad = good;
        bad[4] = 3;
        std::istringstream is(bad, std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
        EXPECT_NE(r.error().find(
                      "unsupported checkpoint version 3 (reader supports 5)"),
                  std::string::npos)
            << r.error();
    }
    {  // version 4 (the watchdog's own activity sum and clock)
        std::string bad = good;
        bad[4] = 4;
        std::istringstream is(bad, std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
        EXPECT_NE(r.error().find(
                      "unsupported checkpoint version 4 (reader supports 5)"),
                  std::string::npos)
            << r.error();
    }
    {  // truncated header
        std::istringstream is(good.substr(0, 20), std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
    }
    {  // truncated payload
        std::istringstream is(good.substr(0, good.size() - 1),
                              std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
    }
    {  // flipped payload byte: digest check refuses
        std::string bad = good;
        bad[good.size() - 5] ^= 0x01;
        std::istringstream is(bad, std::ios::binary);
        obs::CkReader r(is);
        EXPECT_FALSE(r.ok());
    }
    {  // unread payload bytes are layout drift, not silence
        std::istringstream is(good, std::ios::binary);
        obs::CkReader r(is);
        ASSERT_TRUE(r.ok());
        std::uint64_t v = 0;
        r.u64(v);
        EXPECT_EQ(v, 0x1111u);
        r.finish();
        EXPECT_FALSE(r.ok());
    }
    {  // reading past the payload end fails
        std::istringstream is(good, std::ios::binary);
        obs::CkReader r(is);
        ASSERT_TRUE(r.ok());
        std::uint64_t v = 0;
        r.u64(v);
        r.u64(v);
        r.u64(v);
        r.u64(v);  // one too many
        EXPECT_FALSE(r.ok());
    }
}

TEST(CheckpointContainer, HeaderOnlyInspection)
{
    const std::string good = tinyContainer(4242);
    std::istringstream is(good, std::ios::binary);
    obs::CheckpointFileInfo info;
    std::string error;
    ASSERT_TRUE(obs::readCheckpointInfo(is, &info, &error)) << error;
    EXPECT_EQ(info.version, obs::checkpointFormatVersion);
    EXPECT_EQ(info.configDigest, 4242u);
    EXPECT_EQ(info.payloadSize, 24u);
}

/** Build a live harness, step it, and hand back the pieces. */
struct Harness
{
    SimConfig cfg;
    Network net;
    Rng faultRng;
    FaultSchedule schedule;
    DeliveryOracle oracle;
    Watchdog watchdog;
    Injector injector;

    explicit Harness(const SimConfig &c)
        : cfg(c), net(cfg), faultRng(5), oracle(net),
          watchdog(net, WatchdogConfig{}), injector(net)
    {
        schedule.add({40, FaultKind::NodeKill, 5, -1, 0});
        net.attachTrace(&oracle);
    }

    ~Harness() { net.attachTrace(nullptr); }

    void
    run(Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            schedule.apply(net, faultRng);
            injector.step();
            net.step();
            watchdog.observe();
        }
    }

    CampaignState
    state()
    {
        CampaignState st;
        st.net = &net;
        st.faultRng = &faultRng;
        st.schedule = &schedule;
        st.oracle = &oracle;
        st.watchdog = &watchdog;
        st.injector = &injector;
        return st;
    }
};

SimConfig
harnessConfig()
{
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    cfg.msgLength = 8;
    cfg.load = 0.05;
    cfg.watchdog = 0;
    cfg.validate();
    return cfg;
}

TEST(CheckpointState, WriteTwiceIsDeterministic)
{
    Harness h(harnessConfig());
    h.run(200);
    CampaignState st = h.state();

    obs::CkWriter w1, w2;
    serializeCampaign(w1, st);
    serializeCampaign(w2, st);
    EXPECT_GT(w1.bytes(), 0u);
    EXPECT_EQ(w1.bytes(), w2.bytes());
    EXPECT_EQ(w1.payloadDigest(), w2.payloadDigest());
    EXPECT_EQ(campaignStateDigest(st), campaignStateDigest(st));
}

TEST(CheckpointState, StateRoundTripsIntoFreshHarness)
{
    const SimConfig cfg = harnessConfig();
    Harness a(cfg);
    a.run(200);
    CampaignState stA = a.state();
    const std::uint64_t digestA = campaignStateDigest(stA);

    obs::CkWriter w;
    serializeCampaign(w, stA);
    std::ostringstream os(std::ios::binary);
    w.writeTo(os, 1);

    Harness b(cfg);  // freshly constructed, never stepped
    CampaignState stB = b.state();
    std::istringstream is(os.str(), std::ios::binary);
    obs::CkReader r(is);
    ASSERT_TRUE(r.ok()) << r.error();
    ASSERT_TRUE(deserializeCampaign(r, stB)) << r.error();
    r.finish();
    ASSERT_TRUE(r.ok()) << r.error();

    EXPECT_EQ(b.net.now(), a.net.now());
    EXPECT_EQ(b.net.activeMessages(), a.net.activeMessages());
    EXPECT_EQ(campaignStateDigest(stB), digestA);
}

/** Serialize @p a's state and restore it into a fresh harness. */
bool
roundTrip(Harness &a, std::string &error)
{
    CampaignState st = a.state();
    obs::CkWriter w;
    serializeCampaign(w, st);
    std::ostringstream os(std::ios::binary);
    w.writeTo(os, 1);
    Harness b(harnessConfig());
    CampaignState stB = b.state();
    std::istringstream is(os.str(), std::ios::binary);
    obs::CkReader r(is);
    const bool ok = r.ok() && deserializeCampaign(r, stB);
    error = r.error();
    return ok;
}

TEST(CheckpointState, RejectsDataPlaneStateItCannotIndex)
{
    // The data phase indexes the plane by a routed VC's mapping and by
    // crossbar entries, so a restore refuses ones that name nothing.
    std::string error;
    {
        Harness a(harnessConfig());
        a.run(100);
        VcState &vc = a.net.vc(0, 0);
        vc.routed = true;
        vc.outPort = -1;
        EXPECT_FALSE(roundTrip(a, error));
        EXPECT_NE(error.find("routed"), std::string::npos) << error;
    }
    {
        Harness a(harnessConfig());
        a.run(100);
        a.net.router(0).mapInput(1, static_cast<VcIndex>(
                                        a.net.dataPlane().size() + 3));
        EXPECT_FALSE(roundTrip(a, error));
        EXPECT_NE(error.find("names no VC"), std::string::npos) << error;
    }
}

TEST(CheckpointState, RejectsOutOfRangeTeardownCause)
{
    Harness a(harnessConfig());
    a.run(100);
    MsgId first = invalidMsg;
    a.net.messageStore().forEach([&first](const Message &m) {
        if (first == invalidMsg)
            first = m.id;
    });
    ASSERT_NE(first, invalidMsg);
    a.net.message(first).teardown = static_cast<Teardown>(4);
    std::string error;
    EXPECT_FALSE(roundTrip(a, error));
    EXPECT_NE(error.find("teardown cause 4 out of range"), std::string::npos)
        << error;
}

/** The bytes @p write puts into a fresh payload. */
template <class F>
std::string
bytesOf(F write)
{
    obs::CkWriter w;
    write(w);
    std::ostringstream os(std::ios::binary);
    w.writeTo(os, 1);
    const std::string all = os.str();
    return all.substr(all.size() - w.bytes());
}

/** Restore raw payload bytes into a fresh harness. */
bool
restorePayload(const std::string &payload, std::string &error,
               const SimConfig &cfg = harnessConfig())
{
    obs::CkWriter w;
    for (const char ch : payload) {
        std::uint8_t b = static_cast<std::uint8_t>(ch);
        w.u8(b);
    }
    std::ostringstream os(std::ios::binary);
    w.writeTo(os, 1);
    Harness b(cfg);
    CampaignState st = b.state();
    std::istringstream is(os.str(), std::ios::binary);
    obs::CkReader r(is);
    bool ok = r.ok() && deserializeCampaign(r, st);
    if (ok) {
        r.finish();
        ok = r.ok();
    }
    error = r.error();
    return ok;
}

TEST(CheckpointState, RejectsDisorderedRecordIds)
{
    // The oracle's and the watchdog's tables travel as (id, fields...)
    // records in id order; a restore indexes by those ids, so it refuses
    // them out of order, repeated, or at or past the next id to issue.
    // Three messages (ids 0..2, next id 3) are offered and stepped
    // until their probes are out, then one table's ids are rewritten
    // in the payload.
    const NodeId ends[3][2] = {{13, 2}, {14, 7}, {15, 9}};
    auto build = [&ends](Harness &h) {
        for (const auto &e : ends)
            h.net.offerMessage(e[0], e[1]);
        for (int c = 0; c < 2; ++c) {
            h.net.step();
            h.watchdog.observe();
        }
        for (MsgId id = 0; id < 3; ++id)
            ASSERT_EQ(h.net.message(id).state, MsgState::Active);
    };
    Harness a(harnessConfig());
    build(a);
    CampaignState st = a.state();
    const std::string payload = bytesOf(
        [&st](obs::CkWriter &w) { serializeCampaign(w, st); });

    // Locate the oracle's records (count, then three untouched records)
    // and the watchdog's tracks 147 bytes on (the oracle's empty
    // violations and four counters, the watchdog's empty violations
    // and its deadlock flag).
    const std::string oracleRecords = bytesOf([&ends](obs::CkWriter &w) {
        std::uint64_t n = 3;
        w.u64(n);
        for (MsgId id = 0; id < 3; ++id) {
            std::int64_t i = id;
            std::int32_t src = ends[id][0], dst = ends[id][1], tails = 0;
            std::uint64_t created = 0;
            bool terminated = false;
            std::uint8_t outcome = 0;
            w.i64(i);
            w.i32(src);
            w.i32(dst);
            w.u64(created);
            w.i32(tails);
            w.b(terminated);
            w.u8(outcome);
        }
    });
    const std::size_t oracleAt = payload.find(oracleRecords);
    ASSERT_NE(oracleAt, std::string::npos);
    ASSERT_EQ(payload.rfind(oracleRecords), oracleAt);
    const std::size_t tracksAt = oracleAt + 147;
    ASSERT_EQ(payload.substr(tracksAt, 8), bytesOf([](obs::CkWriter &w) {
                  std::uint64_t n = 3;
                  w.u64(n);
              }));

    struct Row
    {
        const char *table;
        std::size_t firstId;  ///< payload offset of the first record's id
        std::size_t stride;   ///< bytes per record
        MsgId ids[3];
    };
    const Row rows[] = {
        {"oracle", oracleAt + 8, 30, {0, 2, 1}},
        {"oracle", oracleAt + 8, 30, {0, 0, 2}},
        {"oracle", oracleAt + 8, 30, {0, 1, 3}},
        {"watchdog", tracksAt + 8, 41, {0, 2, 1}},
        {"watchdog", tracksAt + 8, 41, {0, 0, 2}},
        {"watchdog", tracksAt + 8, 41, {0, 1, 3}},
    };
    std::string error;
    ASSERT_TRUE(restorePayload(payload, error)) << error;
    for (const Row &row : rows) {
        std::string bad = payload;
        for (int k = 0; k < 3; ++k) {
            const std::string id = bytesOf([&row, k](obs::CkWriter &w) {
                std::int64_t v = row.ids[k];
                w.i64(v);
            });
            bad.replace(row.firstId + row.stride * k, 8, id);
        }
        EXPECT_FALSE(restorePayload(bad, error)) << row.table;
        EXPECT_NE(error.find(std::string("checkpoint ") + row.table +
                             " ids out of order or beyond the next id"),
                  std::string::npos)
            << row.table << ": " << error;
    }
}

TEST(CheckpointState, CwgRecordsRoundTripUnderLoad)
{
    // A restore rebuilds the tracker's waiter lists from the records'
    // waits. Restored mid-run with a live wait graph, the tracker must
    // go on to report exactly what the original reports.
    SimConfig cfg = test::smallConfig(Protocol::TwoPhase, 8, 2);
    cfg.msgLength = 16;
    cfg.load = 0.40;
    cfg.staticNodeFaults = 6;
    cfg.seed = 7;
    cfg.watchdog = 0;
    cfg.verifyCwg = true;
    Harness a(cfg);
    a.run(1500);
    ASSERT_GT(a.net.cwg()->edgeCount(), 0u);
    CampaignState stA = a.state();
    obs::CkWriter w;
    serializeCampaign(w, stA);
    std::ostringstream os(std::ios::binary);
    w.writeTo(os, 1);

    Harness b(cfg);
    CampaignState stB = b.state();
    std::istringstream is(os.str(), std::ios::binary);
    obs::CkReader r(is);
    ASSERT_TRUE(r.ok() && deserializeCampaign(r, stB)) << r.error();
    EXPECT_EQ(campaignStateDigest(stB), campaignStateDigest(stA));

    for (int c = 0; c < 2500; ++c) {
        a.run(1);
        b.run(1);
        const verify::CwgTracker &ca = *a.net.cwg(), &cb = *b.net.cwg();
        ASSERT_EQ(ca.edgeCount(), cb.edgeCount()) << "cycle " << c;
        ASSERT_EQ(ca.cyclesDetected(), cb.cyclesDetected()) << "cycle " << c;
        ASSERT_EQ(ca.lastCycleDiagnosis(), cb.lastCycleDiagnosis());
    }
    a.net.messageStore().forEach([&](const Message &m) {
        EXPECT_EQ(a.net.cwg()->describeWaits(m.id),
                  b.net.cwg()->describeWaits(m.id));
    });
    EXPECT_GT(a.net.cwg()->cyclesDetected(), 0u);
    EXPECT_EQ(campaignStateDigest(stB), campaignStateDigest(stA));
}

TEST(CheckpointState, RejectsInconsistentCwgRecords)
{
    // The CWG tracker's records travel in id order, and a restore puts
    // each on its message's store slot and lists it under the VCs it
    // waits on. So it refuses records out of order, repeated or of a
    // message that is not live, waits on no VC or on an owner outside
    // the id range, and out-edges that are not the waits' owners.
    // Message 0 is delivered and retired; messages 1..3 are offered,
    // and 1 and 2 are blocked by hand on trios owned by 2 and 3.
    SimConfig cfg = harnessConfig();
    cfg.verifyCwg = true;
    Harness a(cfg);
    ASSERT_TRUE(a.net.offerMessage(13, 2));
    ASSERT_TRUE(test::runToQuiescent(a.net));
    ASSERT_FALSE(a.net.messageStore().contains(0));
    for (NodeId src : {4, 5, 6})
        ASSERT_TRUE(a.net.offerMessage(src, 11));
    const int avc = a.net.escapeVcCount();
    VcIndex keys[2];
    for (MsgId id = 1; id <= 2; ++id) {
        const LinkId link = a.net.linkAt(static_cast<NodeId>(id), 0).id;
        a.net.vc(link, avc).reserve(id + 1, 0, false);
        keys[id - 1] = a.net.dataPlane().index(link, avc);
        verify::CwgTracker &cwg = *a.net.cwg();
        Message &msg = a.net.message(id);
        cwg.beginEvaluation(msg);
        cwg.noteCandidate(static_cast<NodeId>(id), 0, avc);
        cwg.onBlocked(msg);
    }
    CampaignState st = a.state();
    const std::string payload = bytesOf(
        [&st](obs::CkWriter &w) { serializeCampaign(w, st); });

    // Each record: id, committed, one wait (key, owner), one out-edge
    // (to, in-DAG) — 53 bytes, after the record count.
    const std::string records = bytesOf([&keys](obs::CkWriter &w) {
        std::uint64_t n = 2;
        w.u64(n);
        for (MsgId id = 1; id <= 2; ++id) {
            std::int64_t i = id, owner = id + 1, to = id + 1;
            std::uint64_t committed = 1, waits = 1, outs = 1;
            bool inDag = true;
            w.i64(i);
            w.u64(committed);
            w.u64(waits);
            w.u32(keys[id - 1]);
            w.i64(owner);
            w.u64(outs);
            w.i64(to);
            w.b(inDag);
        }
    });
    const std::size_t at = payload.find(records);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(payload.rfind(records), at);
    std::string error;
    ASSERT_TRUE(restorePayload(payload, error, cfg)) << error;

    const std::size_t rec = at + 8, stride = 53;
    const auto i64 = [](std::int64_t v) {
        return bytesOf([v](obs::CkWriter &w) {
            std::int64_t x = v;
            w.i64(x);
        });
    };
    const auto u32 = [](std::uint32_t v) {
        return bytesOf([v](obs::CkWriter &w) {
            std::uint32_t x = v;
            w.u32(x);
        });
    };
    const std::uint32_t noVc =
        static_cast<std::uint32_t>(a.net.dataPlane().size());
    struct Row
    {
        const char *what;
        std::vector<std::pair<std::size_t, std::string>> patches;
        const char *error;
    };
    const char *disordered =
        "checkpoint CWG ids out of order or beyond the next id";
    const Row rows[] = {
        {"ids out of order", {{rec, i64(2)}, {rec + stride, i64(1)}},
         disordered},
        {"repeated id", {{rec + stride, i64(1)}}, disordered},
        {"id past the next id", {{rec + stride, i64(4)}}, disordered},
        {"retired id", {{rec, i64(0)}}, "not live"},
        {"wait on no VC", {{rec + 24, u32(noVc)}}, "names no VC"},
        {"negative owner", {{rec + 28, i64(-1)}}, "owner out of range"},
        {"owner past the next id", {{rec + 28, i64(4)}},
         "owner out of range"},
        {"out-edge to a non-owner", {{rec + 44, i64(3)}},
         "out-edges are not the owners of the waits"},
    };
    for (const Row &row : rows) {
        std::string bad = payload;
        for (const auto &[offset, bytes] : row.patches)
            bad.replace(offset, bytes.size(), bytes);
        EXPECT_FALSE(restorePayload(bad, error, cfg)) << row.what;
        EXPECT_NE(error.find(row.error), std::string::npos)
            << row.what << ": " << error;
    }
}

TEST(CheckpointState, RejectsOutOfRangeFaultKind)
{
    // Replay lines spell a fault's kind by indexing it, so a restore
    // refuses a kind that names nothing.
    Harness a(harnessConfig());
    a.schedule.add({500, static_cast<FaultKind>(3), 5, -1, 0});
    a.run(100);
    std::string error;
    EXPECT_FALSE(roundTrip(a, error));
    EXPECT_NE(error.find("fault kind 3 out of range"), std::string::npos)
        << error;
}

TEST(CheckpointState, FileRejectsWrongConfigAndCorruption)
{
    const fs::path path = scratchFile("harness.ck");
    Harness a(harnessConfig());
    a.run(100);
    CampaignState st = a.state();
    std::string error;
    ASSERT_TRUE(
        writeCampaignCheckpoint(path.string(), 1234, st, &error))
        << error;

    Harness b(harnessConfig());
    CampaignState stB = b.state();
    // Wrong config digest: a checkpoint from another spec is refused.
    EXPECT_FALSE(
        readCampaignCheckpoint(path.string(), 9999, stB, &error));
    EXPECT_NE(error.find("config"), std::string::npos) << error;

    // Corrupted payload byte.
    std::string bytes = slurp(path);
    bytes[bytes.size() - 3] ^= 0x40;
    spit(path, bytes);
    EXPECT_FALSE(
        readCampaignCheckpoint(path.string(), 1234, stB, &error));

    // Truncation.
    spit(path, bytes.substr(0, bytes.size() / 2));
    EXPECT_FALSE(
        readCampaignCheckpoint(path.string(), 1234, stB, &error));

    // Missing file.
    fs::remove(path);
    EXPECT_FALSE(
        readCampaignCheckpoint(path.string(), 1234, stB, &error));
}

/** Cheap campaign with live faults for the golden-digest tests. */
CampaignSpec
ckCampaignSpec(std::uint64_t seed)
{
    CampaignSpec spec;
    spec.cfg = test::smallConfig(Protocol::TwoPhase, 4, 2);
    spec.cfg.msgLength = 8;
    spec.cfg.load = 0.05;
    spec.cfg.maxRetries = 6;
    spec.seed = seed;
    spec.injectCycles = 400;
    spec.drainCycles = 50000;
    spec.faults.horizon = 400;
    spec.faults.earliest = 30;
    spec.faults.nodeKills = 1;
    spec.faults.linkKills = 1;
    spec.faults.intermittents = 1;
    spec.faults.downMin = 50;
    spec.faults.downMax = 100;
    return spec;
}

/** The golden property, for one spec variant. */
void
expectRestoreBitIdentical(CampaignSpec spec, const std::string &tag)
{
    const fs::path ck = scratchFile("campaign-" + tag + ".ck");
    const fs::path ck2 = scratchFile("campaign-" + tag + "-2.ck");

    // Straight-through run, writing checkpoints as it goes.
    CampaignSpec armed = spec;
    armed.checkpointPath = ck.string();
    armed.checkpointEvery = 128;
    const CampaignResult a = runCampaign(armed);
    ASSERT_TRUE(a.checkpointError.empty()) << a.checkpointError;
    ASSERT_GE(a.checkpointsWritten, 1u) << tag;
    const std::string ckBytes = slurp(ck);

    // Restore-then-run from the final checkpoint.
    CampaignSpec resumed = spec;
    resumed.restorePath = ck.string();
    const CampaignResult b = runCampaign(resumed);
    ASSERT_TRUE(b.checkpointError.empty())
        << tag << ": " << b.checkpointError;
    EXPECT_TRUE(b.restored);
    EXPECT_GE(b.restoredAt, armed.checkpointEvery);

    // Bit-identical outcome: same structured result, same tail trace
    // digest from the same boundary, same final harness state.
    EXPECT_EQ(campaignJson(a), campaignJson(b)) << tag;
    EXPECT_EQ(a.tailDigest, b.tailDigest) << tag;
    EXPECT_EQ(a.tailDigestFrom, b.tailDigestFrom) << tag;
    EXPECT_EQ(b.tailDigestFrom, b.restoredAt) << tag;
    EXPECT_EQ(a.stateDigest, b.stateDigest) << tag;

    // Restore + immediately re-checkpoint: the first checkpoint the
    // resumed run writes lands on the restore boundary, so its file is
    // byte-identical to the one it restored from.
    CampaignSpec rewrite = spec;
    rewrite.restorePath = ck.string();
    rewrite.checkpointPath = ck2.string();
    rewrite.checkpointEvery = 128;
    const CampaignResult c = runCampaign(rewrite);
    ASSERT_TRUE(c.checkpointError.empty())
        << tag << ": " << c.checkpointError;
    ASSERT_GE(c.checkpointsWritten, 1u) << tag;
    EXPECT_EQ(slurp(ck2), ckBytes) << tag;
    EXPECT_EQ(c.stateDigest, a.stateDigest) << tag;
    EXPECT_EQ(c.tailDigest, a.tailDigest) << tag;
}

TEST(CheckpointCampaign, RestoreIsBitIdenticalBaseline)
{
    expectRestoreBitIdentical(ckCampaignSpec(11), "base");
}

TEST(CheckpointCampaign, RestoreIsBitIdenticalWithCwgAnalyzer)
{
    CampaignSpec spec = ckCampaignSpec(12);
    spec.verifyCwg = true;
    expectRestoreBitIdentical(spec, "cwg");
}

TEST(CheckpointCampaign, RestoreIsBitIdenticalInRecoveryMode)
{
    CampaignSpec spec = ckCampaignSpec(13);
    spec.cfg.recoveryMode = true;
    expectRestoreBitIdentical(spec, "recovery");
}

TEST(CheckpointCampaign, StateDigestsArePinned)
{
    // The restore tests compare a run with itself, so a serialization
    // drift that hits both sides alike would pass them. These golden
    // payload digests pin the bytes: the last checkpoint a run writes
    // (mid-drain, live messages and watchdog tracks included), its
    // final state, and a harness stopped with messages in flight.
    struct Row
    {
        const char *tag;
        CampaignSpec spec;
        std::uint64_t checkpoint;
        std::uint64_t final;
    };
    CampaignSpec cwg = ckCampaignSpec(12);
    cwg.verifyCwg = true;
    CampaignSpec recovery = ckCampaignSpec(13);
    recovery.cfg.recoveryMode = true;
    const Row rows[] = {
        {"base", ckCampaignSpec(11), 0xd6d569de54fb6501ull,
         0xd16b2fcf5fe60441ull},
        {"cwg", cwg, 0xb5cf758b37a6112eull, 0x73c17f966de2109eull},
        {"recovery", recovery, 0x504dbafcd4555422ull,
         0xe834b190e1ab522eull},
    };
    for (const Row &row : rows) {
        const fs::path ck = scratchFile(std::string("pinned-") + row.tag +
                                        ".ck");
        CampaignSpec armed = row.spec;
        armed.checkpointPath = ck.string();
        armed.checkpointEvery = 128;
        const CampaignResult r = runCampaign(armed);
        ASSERT_GE(r.checkpointsWritten, 1u) << row.tag;
        std::ifstream is(ck, std::ios::binary);
        obs::CheckpointFileInfo info;
        std::string error;
        ASSERT_TRUE(obs::readCheckpointInfo(is, &info, &error)) << error;
        EXPECT_EQ(info.payloadDigest, row.checkpoint)
            << row.tag << std::hex << " 0x" << info.payloadDigest;
        EXPECT_EQ(r.stateDigest, row.final)
            << row.tag << std::hex << " 0x" << r.stateDigest;
    }

    Harness h(harnessConfig());
    h.run(200);
    ASSERT_GT(h.net.activeMessages(), 0u);
    CampaignState st = h.state();
    EXPECT_EQ(campaignStateDigest(st), 0x3afcc4cd53b3e068ull)
        << std::hex << " 0x" << campaignStateDigest(st);
}

TEST(CheckpointCampaign, ArmedRunMatchesUnarmedRun)
{
    const CampaignSpec plain = ckCampaignSpec(14);
    const CampaignResult rPlain = runCampaign(plain);

    CampaignSpec armed = plain;
    armed.checkpointPath =
        scratchFile("campaign-armed.ck").string();
    armed.checkpointEvery = 64;
    const CampaignResult rArmed = runCampaign(armed);

    // The digest tee must not perturb the run in any observable way.
    EXPECT_EQ(campaignJson(rPlain), campaignJson(rArmed));
    EXPECT_EQ(rPlain.cycles, rArmed.cycles);
    EXPECT_EQ(rPlain.passed, rArmed.passed);
}

TEST(CheckpointCampaign, RestoreFailureIsALoudViolation)
{
    CampaignSpec spec = ckCampaignSpec(15);
    spec.restorePath =
        scratchFile("campaign-missing.ck").string();  // never written
    const CampaignResult r = runCampaign(spec);
    EXPECT_FALSE(r.passed);
    EXPECT_FALSE(r.checkpointError.empty());
    ASSERT_FALSE(r.violations.empty());
    EXPECT_NE(r.violations[0].find("restore failed"),
              std::string::npos)
        << r.violations[0];
}

} // namespace
} // namespace tpnet
